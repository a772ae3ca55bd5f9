"""DCF-style contention: contention windows, backoff and collision
resolution.

Both the primary contention (for an idle medium) and n+'s secondary
contention (for unused degrees of freedom, sensed through the projection
of §3.2) use 802.11's contention-window/backoff machinery.  The simulator
resolves each contention round in one step: every contender draws a
backoff counter, the smallest counter wins, and ties are collisions --
the standard "condensed" DCF model, which preserves the win/collision
statistics of slot-by-slot simulation for saturated sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.constants import CW_MAX, CW_MIN, DIFS_US, SLOT_TIME_US

__all__ = ["DcfContender", "ContentionRound", "resolve_contention"]


@dataclass
class DcfContender:
    """Per-node DCF state: the contention window and retry count.

    Attributes
    ----------
    node_id:
        Identifier of the contending node.
    cw_min, cw_max:
        Contention-window bounds (in slots).
    """

    node_id: int
    cw_min: int = CW_MIN
    cw_max: int = CW_MAX
    _cw: int = field(default=CW_MIN, repr=False)
    _fast_retransmit: bool = field(default=False, repr=False)

    def record_collision(self) -> None:
        """Binary exponential backoff after a collision."""
        self._cw = min(2 * (self._cw + 1) - 1, self.cw_max)
        self._fast_retransmit = False

    def record_success(self) -> None:
        """Reset the window after a successful transmission."""
        self._cw = self.cw_min
        self._fast_retransmit = False

    def arm_fast_retransmit(self) -> None:
        """Give the node a free pass in the next contention round.

        The ``fast-retransmit`` recovery policy arms this after a frame
        is NACKed by *channel loss* (not a collision): the retransmission
        contends with a zero backoff window instead of doubling the
        contention window, LinkGuardian-style link-local resend.  The
        pass is consumed by the next outcome either way -- a success
        resets the window, a collision falls back to exponential backoff.
        """
        self._fast_retransmit = True

    @property
    def backoff_window(self) -> int:
        """Window actually used for the next draw (0 when fast-retransmit
        is armed, the contention window otherwise)."""
        return 0 if self._fast_retransmit else self._cw


@dataclass(frozen=True)
class ContentionRound:
    """Result of resolving one contention round.

    Attributes
    ----------
    winners:
        Node ids that start transmitting (more than one means collision).
    backoff_slots:
        The winning backoff value.
    start_delay_us:
        Time from the start of the round until the winners transmit
        (DIFS + backoff slots).
    collision:
        Whether two or more nodes picked the same smallest backoff.
    """

    winners: Tuple[int, ...]
    backoff_slots: int
    start_delay_us: float
    collision: bool


def resolve_contention(
    contenders: Sequence[DcfContender],
    rng: np.random.Generator,
) -> ContentionRound:
    """Resolve one contention round among ``contenders``.

    Every contender draws a backoff; the smallest value wins.  Ties are
    collisions: all tied nodes "transmit" and the caller treats their
    frames as lost.  The contention-window updates (doubling on collision,
    reset on success) are the caller's responsibility because it knows the
    eventual outcome of the transmission.

    Backoffs are drawn in ascending ``node_id`` order regardless of how
    the caller ordered ``contenders``, so the outcome of a seeded round
    depends only on *which* nodes contend, never on the iteration order
    of whatever container they came from.  All counters come from a
    single array-bounded ``rng.integers`` draw (one RNG call per round
    instead of one per contender -- the O(n_nodes) cost the batched round
    pipeline removes); each counter is uniform on the contender's own
    ``[0, backoff_window]``.
    """
    if not contenders:
        return ContentionRound(winners=(), backoff_slots=0, start_delay_us=DIFS_US, collision=False)
    ordered = sorted(contenders, key=lambda c: c.node_id)
    highs = np.array([c.backoff_window for c in ordered], dtype=np.int64)
    values = rng.integers(0, highs + 1)
    smallest = int(values.min())
    winners = tuple(
        c.node_id for c, value in zip(ordered, values) if value == smallest
    )
    return ContentionRound(
        winners=winners,
        backoff_slots=smallest,
        start_delay_us=DIFS_US + smallest * SLOT_TIME_US,
        collision=len(winners) > 1,
    )
