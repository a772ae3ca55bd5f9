"""Per-subcarrier MIMO channel estimates.

A receiver that hears a MIMO preamble (time-orthogonal LTFs, see
:mod:`repro.phy.preamble`) estimates, per OFDM subcarrier, the channel
from each transmit antenna to each of its own antennas.  The full-PHY
probe (:mod:`repro.sim.fidelity`) hands its receiver the estimate the
link abstraction already holds, in this form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelEstimate"]


@dataclass
class ChannelEstimate:
    """Per-subcarrier MIMO channel estimate.

    Attributes
    ----------
    matrices:
        Complex array of shape ``(n_subcarriers, n_rx, n_tx)``; entry
        ``[k, j, i]`` is the channel from transmit antenna ``i`` to receive
        antenna ``j`` on subcarrier ``k``.  Only the bins listed in
        ``valid_bins`` are meaningful.
    valid_bins:
        FFT bins for which the estimate is valid (the LTF occupies bins
        -26..26 excluding DC).
    """

    matrices: np.ndarray
    valid_bins: np.ndarray
