"""The paper's core contribution: distributed interference nulling,
interference alignment and multi-dimensional carrier sense.

* :mod:`repro.mimo.dof` -- degrees-of-freedom accounting (Claims 3.1, 3.2).
* :mod:`repro.mimo.nulling` -- interference nulling (Claim 3.3).
* :mod:`repro.mimo.alignment` -- interference alignment (Claim 3.4).
* :mod:`repro.mimo.precoder` -- the general pre-coding solver (Claim 3.5,
  Eq. 7) combining nulling and alignment constraints across receivers.
* :mod:`repro.mimo.decoder` -- projection + zero-forcing decoding and
  post-projection SNR (the quantity behind Fig. 7 and bitrate selection).
* :mod:`repro.mimo.carrier_sense` -- multi-dimensional carrier sense
  (§3.2, Fig. 6).
"""

from repro.mimo.dof import InterferenceStrategy, max_concurrent_streams, choose_strategy
from repro.mimo.nulling import nulling_precoders
from repro.mimo.alignment import alignment_constraint_rows
from repro.mimo.precoder import ReceiverConstraint, OwnReceiver, compute_precoders, max_streams
from repro.mimo.decoder import (
    zero_forcing_decode,
    project_and_decode,
    post_projection_snr_db,
)
from repro.mimo.carrier_sense import MultiDimensionalCarrierSense, CarrierSenseResult

__all__ = [
    "InterferenceStrategy",
    "max_concurrent_streams",
    "choose_strategy",
    "nulling_precoders",
    "alignment_constraint_rows",
    "ReceiverConstraint",
    "OwnReceiver",
    "compute_precoders",
    "max_streams",
    "zero_forcing_decode",
    "project_and_decode",
    "post_projection_snr_db",
    "MultiDimensionalCarrierSense",
    "CarrierSenseResult",
]
