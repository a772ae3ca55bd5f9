"""Runtime invariant checks for the simulation loops.

The simulator's accounting obeys conservation laws -- a link can never
deliver more bits than it attempted, recovery can never reconstruct more
than was delivered, the clock and the channel epochs only move forward.
Silent corruption of any of these (a numerical guard gone wrong, a
miscounted retransmission, a fault episode applied twice) historically
surfaced only as subtly-off sweep results.  This module turns the laws
into explicit checkers that run *during* a simulation and raise
:class:`~repro.exceptions.InvariantViolation` -- naming the checker, the
round and the links involved -- the moment one breaks.  A sweep records
the violation in the failed cell's store row like any crash, and
``repro replay`` re-executes that cell from the row.

Three validation modes, resolved from ``SimulationConfig.validation`` by
:meth:`repro.sim.spec.RunSpec.resolve` like every other simulation knob:

``"off"``
    The default.  No checker runs; the loops carry ``invariants=None``
    and the execution path is exactly the unvalidated one (strict no-op,
    bit-identical to every committed golden).
``"cheap"``
    Aggregate conservation laws at transmission-round boundaries:
    O(links) sums per round, cheap enough for the precommit smoke.
``"full"``
    Everything in ``"cheap"`` plus per-link and per-queue checks each
    round.  This is the mode ``repro replay`` re-executes a failed cell
    under.

Checkers live in a registry (:func:`invariant`); registering a new law is
one decorated function.  Every checker receives the running loop object
and the :class:`InvariantSuite` (for cross-round state such as the last
observed clock and epoch map).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from repro.exceptions import ConfigurationError, InvariantViolation

__all__ = [
    "VALIDATION_MODES",
    "invariant",
    "InvariantSuite",
]

#: The validation modes accepted by ``SimulationConfig.validation``.
VALIDATION_MODES = ("off", "cheap", "full")

#: Registry: checker name -> (scope, function).  Scope is "cheap" or
#: "full"; cheap checkers run in both validating modes, full checkers
#: only under ``validation="full"``.
_REGISTRY: Dict[str, Tuple[str, Callable]] = {}


def invariant(name: str, *, scope: str = "cheap"):
    """Register a checker under ``name``.

    ``scope="cheap"`` checkers run under both ``"cheap"`` and ``"full"``;
    ``scope="full"`` checkers only under ``"full"``.
    """
    if scope not in ("cheap", "full"):
        raise ConfigurationError(f"invariant scope must be 'cheap' or 'full', got {scope!r}")

    def register(fn):
        _REGISTRY[name] = (scope, fn)
        return fn

    return register


class InvariantSuite:
    """The checkers active for one run, plus their cross-round state.

    The round loop calls :meth:`check_round` at the end of every
    transmission round (and once more when the run closes); any violated
    law raises :class:`~repro.exceptions.InvariantViolation` out of the
    loop, and a sweep records it in the failed cell's store row.
    """

    def __init__(self, mode: str) -> None:
        if mode not in ("cheap", "full"):
            raise ConfigurationError(
                f"an InvariantSuite validates 'cheap' or 'full', got {mode!r}"
            )
        self.mode = mode
        self.checkers = [
            (name, fn)
            for name, (scope, fn) in _REGISTRY.items()
            if scope == "cheap" or mode == "full"
        ]
        self.rounds_checked = 0
        self._last_now_us = -math.inf
        self._last_epochs: Dict[tuple, int] = {}
        self._last_drops: Dict[tuple, int] = {}

    def check_round(self, loop) -> None:
        """Run every active checker against the loop's current state."""
        for name, fn in self.checkers:
            fn(self, loop)
        self.rounds_checked += 1

    def fail(self, checker: str, loop, links=(), detail: str = "") -> None:
        raise InvariantViolation(checker, getattr(loop, "rounds", -1), links, detail)


# -- cheap checkers: aggregate conservation at round boundaries ---------------


@invariant("delivered-within-attempted")
def _check_delivered_within_attempted(suite: InvariantSuite, loop) -> None:
    links = loop.metrics.links.values()
    delivered = sum(m.delivered_bits for m in links)
    attempted = sum(m.attempted_bits for m in links)
    if delivered > attempted:
        suite.fail(
            "delivered-within-attempted",
            loop,
            detail=f"{delivered} bits delivered but only {attempted} attempted",
        )


@invariant("recovered-within-delivered")
def _check_recovered_within_delivered(suite: InvariantSuite, loop) -> None:
    links = loop.metrics.links.values()
    recovered = sum(m.recovered_bits for m in links)
    delivered = sum(m.delivered_bits for m in links)
    if recovered > delivered:
        suite.fail(
            "recovered-within-delivered",
            loop,
            detail=f"{recovered} bits recovered but only {delivered} delivered",
        )


@invariant("finite-metrics")
def _check_finite_metrics(suite: InvariantSuite, loop) -> None:
    for name, link in loop.metrics.links.items():
        airtime = link.airtime_us
        if not math.isfinite(airtime) or airtime < 0:
            suite.fail(
                "finite-metrics", loop, links=(name,), detail=f"airtime_us={airtime!r}"
            )
        for field in ("delivered_bits", "attempted_bits", "recovered_bits"):
            value = getattr(link, field)
            if value < 0:
                suite.fail(
                    "finite-metrics", loop, links=(name,), detail=f"{field}={value!r}"
                )


@invariant("clock-monotone")
def _check_clock_monotone(suite: InvariantSuite, loop) -> None:
    now = loop.now_us
    if not math.isfinite(now) or now < suite._last_now_us:
        suite.fail(
            "clock-monotone",
            loop,
            detail=f"clock moved from {suite._last_now_us} to {now}",
        )
    suite._last_now_us = now


@invariant("epoch-monotone")
def _check_epoch_monotone(suite: InvariantSuite, loop) -> None:
    epochs = dict(loop.network.link_epochs)
    for pair, epoch in epochs.items():
        previous = suite._last_epochs.get(pair, 0)
        if epoch < previous:
            suite.fail(
                "epoch-monotone",
                loop,
                links=(f"{pair[0]}->{pair[1]}",),
                detail=f"epoch went from {previous} to {epoch}",
            )
    suite._last_epochs = epochs


# -- full checkers: per-link / per-queue, every round -------------------------


@invariant("per-link-conservation", scope="full")
def _check_per_link_conservation(suite: InvariantSuite, loop) -> None:
    for name, link in loop.metrics.links.items():
        if link.delivered_bits > link.attempted_bits:
            suite.fail(
                "per-link-conservation",
                loop,
                links=(name,),
                detail=(
                    f"{link.delivered_bits} bits delivered but only "
                    f"{link.attempted_bits} attempted"
                ),
            )
        if link.recovered_bits > link.delivered_bits:
            suite.fail(
                "per-link-conservation",
                loop,
                links=(name,),
                detail=(
                    f"{link.recovered_bits} bits recovered but only "
                    f"{link.delivered_bits} delivered"
                ),
            )


@invariant("per-link-counters", scope="full")
def _check_per_link_counters(suite: InvariantSuite, loop) -> None:
    for name, link in loop.metrics.links.items():
        for field in (
            "packets_delivered",
            "packets_failed",
            "transmissions",
            "joins",
            "collisions",
            "packets_dropped",
            "quarantined_rounds",
        ):
            value = getattr(link, field)
            if value < 0:
                suite.fail(
                    "per-link-counters", loop, links=(name,), detail=f"{field}={value!r}"
                )


@invariant("queue-drops-monotone", scope="full")
def _check_queue_drops_monotone(suite: InvariantSuite, loop) -> None:
    """Drop accounting closes: a queue's drop counter never runs backwards
    (packets leave the retry path exactly once)."""
    for agent in loop.agents.values():
        for receiver_id, queue in agent.queues.items():
            key = (agent.node_id, receiver_id)
            dropped = queue.dropped_packets
            previous = suite._last_drops.get(key, 0)
            if dropped < previous:
                suite.fail(
                    "queue-drops-monotone",
                    loop,
                    links=(f"{agent.node_id}->{receiver_id}",),
                    detail=f"dropped_packets went from {previous} to {dropped}",
                )
            suite._last_drops[key] = dropped
