"""Shared numerical and bit-twiddling utilities.

The :mod:`repro.utils` package collects the small, dependency-free helpers
that the PHY, MIMO and MAC layers build on:

* :mod:`repro.utils.linalg` -- null spaces and orthonormal complements
  used by interference nulling, alignment and multi-dimensional carrier
  sense.
* :mod:`repro.utils.db` -- dB / linear power conversions.
* :mod:`repro.utils.bits` -- pseudo-random payload bits.
* :mod:`repro.utils.guarded` -- SVD and solve wrappers that degrade
  instead of raising on non-finite or singular input.
"""
