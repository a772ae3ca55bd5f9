"""Constellation mapping and demapping for the 802.11 modulations.

The paper's prototype supports BPSK, 4-QAM (QPSK), 16-QAM and 64-QAM
(§5).  All constellations are Gray mapped and normalised to unit average
energy so that a stream's transmit power does not depend on its
modulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError

__all__ = ["Modulation", "MODULATIONS", "get_modulation"]


def _gray_code(n: int) -> int:
    """Return the Gray code of ``n``."""
    return n ^ (n >> 1)


def _pam_levels(bits_per_axis: int) -> np.ndarray:
    """Return the Gray-mapped PAM amplitude for each integer label.

    ``levels[label]`` is the amplitude transmitted for that label, with
    adjacent amplitudes differing in exactly one bit of the label.
    """
    m = 1 << bits_per_axis
    amplitudes = 2 * np.arange(m) - (m - 1)
    levels = np.empty(m, dtype=float)
    for position, amplitude in enumerate(amplitudes):
        levels[_gray_code(position)] = amplitude
    return levels


def _build_constellation(bits_per_symbol: int) -> np.ndarray:
    """Return the unit-energy constellation points indexed by symbol label.

    For square QAM the label is split into an I-half (most significant
    bits) and a Q-half (least significant bits), each Gray-mapped onto a
    PAM amplitude, matching the 802.11a mapping.
    """
    if bits_per_symbol == 1:
        points = np.array([-1.0 + 0j, 1.0 + 0j])
        return points
    if bits_per_symbol % 2 != 0:
        raise ConfigurationError(
            f"square QAM requires an even number of bits per symbol, got {bits_per_symbol}"
        )
    half = bits_per_symbol // 2
    pam = _pam_levels(half)
    m = 1 << bits_per_symbol
    points = np.empty(m, dtype=complex)
    for label in range(m):
        i_label = label >> half
        q_label = label & ((1 << half) - 1)
        points[label] = pam[i_label] + 1j * pam[q_label]
    # Normalise to unit average energy.
    energy = np.mean(np.abs(points) ** 2)
    return points / np.sqrt(energy)


@dataclass(frozen=True)
class Modulation:
    """A Gray-mapped constellation.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"16qam"``.
    bits_per_symbol:
        Number of bits carried by each constellation point.
    points:
        Complex constellation points indexed by the integer label whose
        binary expansion (MSB first) is the transmitted bit group.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.points) != (1 << self.bits_per_symbol):
            raise ConfigurationError(
                f"{self.name}: expected {1 << self.bits_per_symbol} points, "
                f"got {len(self.points)}"
            )

    # -- mapping ----------------------------------------------------------

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit array to complex symbols.

        The bit count must be a multiple of :attr:`bits_per_symbol`.
        """
        bits = np.asarray(bits, dtype=np.int8)
        if bits.size % self.bits_per_symbol != 0:
            raise DimensionError(
                f"{self.name}: bit count {bits.size} is not a multiple of "
                f"{self.bits_per_symbol}"
            )
        groups = bits.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        labels = groups @ weights
        return self.points[labels]

    # -- demapping --------------------------------------------------------

    def demodulate_hard(self, symbols: np.ndarray) -> np.ndarray:
        """Map noisy symbols to the bits of the nearest constellation point."""
        symbols = np.asarray(symbols, dtype=complex).reshape(-1)
        distances = np.abs(symbols[:, None] - self.points[None, :]) ** 2
        labels = np.argmin(distances, axis=1)
        out = np.zeros((symbols.size, self.bits_per_symbol), dtype=np.int8)
        for bit in range(self.bits_per_symbol):
            shift = self.bits_per_symbol - 1 - bit
            out[:, bit] = (labels >> shift) & 1
        return out.reshape(-1)


def _make_modulations() -> Dict[str, Modulation]:
    return {
        "bpsk": Modulation("bpsk", 1, _build_constellation(1)),
        "qpsk": Modulation("qpsk", 2, _build_constellation(2)),
        "16qam": Modulation("16qam", 4, _build_constellation(4)),
        "64qam": Modulation("64qam", 6, _build_constellation(6)),
    }


#: The modulations supported by the prototype (§5).
MODULATIONS: Dict[str, Modulation] = _make_modulations()

#: Aliases accepted by :func:`get_modulation`.
_ALIASES: Dict[str, str] = {
    "4qam": "qpsk",
    "qam4": "qpsk",
    "qam16": "16qam",
    "qam64": "64qam",
}


def get_modulation(name: str) -> Modulation:
    """Look up a modulation by name (case-insensitive, aliases allowed)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return MODULATIONS[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown modulation {name!r}; choose from {sorted(MODULATIONS)}"
        ) from None
