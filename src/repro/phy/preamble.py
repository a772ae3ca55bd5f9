"""802.11-style training fields and preamble correlation.

Every frame begins with a short training field (STF) used for packet
detection, AGC and coarse frequency-offset estimation, followed by long
training fields (LTF) used for channel estimation.  For a MIMO
transmitter the LTFs of different antennas are time-orthogonal: antenna
``i`` transmits its LTF in slot ``i`` while all other antennas are silent,
which lets every receiver estimate the full channel matrix.

Carrier sense in n+ cross-correlates the received samples against the STF
(§6.1): the same correlation is computed after projecting away ongoing
transmissions for multi-dimensional carrier sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    NUM_LONG_TRAINING_SYMBOLS,
    NUM_SHORT_TRAINING_REPEATS,
    SHORT_TRAINING_SYMBOL_LENGTH,
)
from repro.exceptions import DimensionError
from repro.phy.ofdm import OfdmConfig

__all__ = [
    "short_training_field",
    "Preamble",
    "cross_correlate",
]

# Frequency-domain definition of the 802.11a short training symbol: energy
# on every fourth subcarrier with the standard QPSK-like values.
_STS_CARRIERS = {
    4: (1 + 1j), 8: (-1 - 1j), 12: (1 + 1j), 16: (-1 - 1j), 20: (-1 - 1j), 24: (1 + 1j),
    -4: (-1 - 1j), -8: (-1 - 1j), -12: (1 + 1j), -16: (1 + 1j), -20: (1 + 1j), -24: (1 + 1j),
}

# Frequency-domain definition of the 802.11a long training symbol (bins -26..26).
_LTS_SEQUENCE = np.array(
    [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
     0,
     1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1],
    dtype=float,
)


#: Samples in the (default) short training field: its length without
#: building it.
_STF_LENGTH = NUM_SHORT_TRAINING_REPEATS * SHORT_TRAINING_SYMBOL_LENGTH


def short_training_field(config: OfdmConfig | None = None) -> np.ndarray:
    """Return the time-domain short training field (10 repeats of a
    16-sample symbol)."""
    config = config or OfdmConfig()
    grid = np.zeros(config.fft_size, dtype=complex)
    scale = np.sqrt(13.0 / 6.0)
    for bin_index, value in _STS_CARRIERS.items():
        grid[bin_index % config.fft_size] = scale * value
    full = np.fft.ifft(grid) * np.sqrt(config.fft_size)
    one_symbol = full[:SHORT_TRAINING_SYMBOL_LENGTH]
    return np.tile(one_symbol, NUM_SHORT_TRAINING_REPEATS)


def ltf_frequency_sequence(config: OfdmConfig | None = None) -> np.ndarray:
    """Return the known frequency-domain LTF values on the full FFT grid:
    the LTS sequence at bins -26..26, zero elsewhere."""
    config = config or OfdmConfig()
    grid = np.zeros(config.fft_size, dtype=complex)
    for value, b in zip(_LTS_SEQUENCE, range(-26, 27)):
        grid[b % config.fft_size] = value
    return grid


@dataclass
class Preamble:
    """A MIMO preamble: a shared STF plus per-antenna time-orthogonal LTFs.

    Attributes
    ----------
    n_antennas:
        Number of transmit antennas (= number of LTF slots).
    config:
        OFDM numerology.
    """

    n_antennas: int
    config: OfdmConfig = field(default_factory=OfdmConfig)

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise DimensionError("a preamble needs at least one antenna")

    @property
    def ltf_slot_length(self) -> int:
        """Samples per LTF slot."""
        return NUM_LONG_TRAINING_SYMBOLS * self.config.samples_per_symbol

    @property
    def length(self) -> int:
        """Total preamble length in samples."""
        return _STF_LENGTH + self.n_antennas * self.ltf_slot_length

    def ltf_slot_bounds(self, antenna: int) -> tuple:
        """Return (start, end) sample indices of antenna ``antenna``'s LTF."""
        if not 0 <= antenna < self.n_antennas:
            raise DimensionError(f"antenna index {antenna} out of range")
        start = _STF_LENGTH + antenna * self.ltf_slot_length
        return start, start + self.ltf_slot_length


# ---------------------------------------------------------------------------
# Correlation-based detection
# ---------------------------------------------------------------------------

def cross_correlate(samples: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Normalised cross-correlation of ``samples`` against ``template``.

    Returns an array of correlation magnitudes in [0, 1], one per alignment
    of the template within the samples.  This is the metric 802.11 carrier
    sense uses to detect a preamble, and the metric plotted in Fig. 9(b).
    """
    samples = np.asarray(samples, dtype=complex).reshape(-1)
    template = np.asarray(template, dtype=complex).reshape(-1)
    if template.size == 0:
        raise DimensionError("template must be non-empty")
    if samples.size < template.size:
        return np.zeros(0)
    n = samples.size - template.size + 1
    template_norm = np.linalg.norm(template)
    out = np.empty(n)
    # Sliding windows over the received samples.
    windows = np.lib.stride_tricks.sliding_window_view(samples, template.size)
    dots = windows @ np.conj(template)
    window_norms = np.linalg.norm(windows, axis=1)
    denom = window_norms * template_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(dots) / np.where(denom > 0, denom, np.inf)
    return out
