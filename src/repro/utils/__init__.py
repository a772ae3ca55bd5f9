"""Shared numerical and bit-twiddling utilities.

The :mod:`repro.utils` package collects the small, dependency-free helpers
that the PHY, MIMO and MAC layers build on:

* :mod:`repro.utils.linalg` -- null spaces, orthonormal complements and
  projections used by interference nulling, alignment and
  multi-dimensional carrier sense.
* :mod:`repro.utils.db` -- dB / linear power conversions.
* :mod:`repro.utils.bits` -- bit packing, CRC-32 and pseudo-random payloads.
"""

from repro.utils.db import (
    db_to_linear,
    linear_to_db,
    dbm_to_milliwatt,
    milliwatt_to_dbm,
    power_db,
    signal_power,
    snr_db,
)
from repro.utils.linalg import (
    null_space,
    orthonormal_basis,
    orthonormal_complement,
    project_onto_subspace,
    project_out_subspace,
    random_unitary,
    subspace_angle,
)

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_milliwatt",
    "milliwatt_to_dbm",
    "power_db",
    "signal_power",
    "snr_db",
    "null_space",
    "orthonormal_basis",
    "orthonormal_complement",
    "project_onto_subspace",
    "project_out_subspace",
    "random_unitary",
    "subspace_angle",
]
