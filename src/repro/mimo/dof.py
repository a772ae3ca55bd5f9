"""Degrees-of-freedom accounting (Claims 3.1 and 3.2).

Two small but load-bearing rules of the protocol:

* *Claim 3.1* -- a joiner nulls at a receiver whose antennas are all
  occupied by wanted streams (n = N) and aligns in the unwanted space of a
  receiver with spare dimensions (n < N).
* *Claim 3.2* -- a transmitter with M antennas can add at most ``M - K``
  streams on top of K ongoing streams without interfering with any of
  them.
"""

from __future__ import annotations

from enum import Enum

from repro.exceptions import DimensionError

__all__ = [
    "InterferenceStrategy",
    "choose_strategy",
    "max_concurrent_streams",
    "can_join",
]


class InterferenceStrategy(Enum):
    """How a joiner protects a particular ongoing receiver."""

    NULL = "null"
    ALIGN = "align"


def choose_strategy(n_rx_antennas: int, n_wanted_streams: int) -> InterferenceStrategy:
    """Decide whether to null or align at a receiver (Claim 3.1).

    Parameters
    ----------
    n_rx_antennas:
        N, the number of antennas at the ongoing receiver.
    n_wanted_streams:
        n, the number of streams that receiver wants.
    """
    if n_wanted_streams > n_rx_antennas:
        raise DimensionError(
            f"a receiver with {n_rx_antennas} antennas cannot want "
            f"{n_wanted_streams} streams"
        )
    if n_wanted_streams <= 0:
        raise DimensionError("a protected receiver must want at least one stream")
    if n_wanted_streams == n_rx_antennas:
        return InterferenceStrategy.NULL
    return InterferenceStrategy.ALIGN


def max_concurrent_streams(n_tx_antennas: int, n_ongoing_streams: int) -> int:
    """Maximum streams a joiner can add (Claim 3.2: ``m = M - K``)."""
    if n_tx_antennas < 1:
        raise DimensionError("a transmitter needs at least one antenna")
    if n_ongoing_streams < 0:
        raise DimensionError("the number of ongoing streams cannot be negative")
    return max(0, n_tx_antennas - n_ongoing_streams)


def can_join(n_tx_antennas: int, n_ongoing_streams: int) -> bool:
    """Whether a transmitter has spare antennas to join the medium at all."""
    return max_concurrent_streams(n_tx_antennas, n_ongoing_streams) > 0
