"""The paper's core contribution: distributed interference nulling,
interference alignment and multi-dimensional carrier sense.

* :mod:`repro.mimo.dof` -- degrees-of-freedom accounting (Claims 3.1, 3.2).
* :mod:`repro.mimo.precoder` -- the pre-coding solver: nulling (Claim
  3.3) and alignment (Claim 3.4) constraint rows across receivers, solved
  together per Eq. 7 (Claim 3.5).
* :mod:`repro.mimo.decoder` -- the post-projection SNR of the projection
  + zero-forcing decoder (the quantity behind Fig. 7 and bitrate
  selection).
* :mod:`repro.mimo.carrier_sense` -- multi-dimensional carrier sense
  (§3.2, Fig. 6).

The pre-coder and SNR kernels work on a stack of matrices, one per OFDM
subcarrier; the subspace primitives underneath are
:mod:`repro.utils.linalg`.
"""
