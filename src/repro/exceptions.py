"""Exception hierarchy for the 802.11n+ reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a component is configured with inconsistent parameters.

    Also a :class:`ValueError`: bad parameter *values* (a malformed fault
    trace row, an out-of-range rate, an unparsable env override) are what
    this error reports, so generic ``except ValueError`` handlers treat
    it correctly.
    """


class DimensionError(ReproError):
    """Raised when array shapes or antenna counts are incompatible."""


class PrecodingError(ReproError):
    """Raised when no valid pre-coding vectors exist for a request.

    Typical causes: the transmitter asks for more streams than its free
    degrees of freedom (Claim 3.2), or the stacked nulling/alignment
    constraints are rank deficient in a way that leaves no usable null
    space.
    """


class DecodingError(ReproError):
    """Raised when a receiver cannot decode a frame (CRC failure, rank
    deficiency of the wanted-stream channel, or an unsupported bitrate)."""


class MediumAccessError(ReproError):
    """Raised on protocol violations in the MAC simulation, e.g. a node
    attempting to join more streams than the available degrees of freedom."""


class SimulationError(ReproError):
    """Raised by the discrete-event engine on scheduling errors."""


class InvariantViolation(ReproError):
    """Raised when a runtime invariant check fails during a simulation.

    The message names the violated checker, the round it fired in and the
    links involved; the structured fields (:attr:`checker`, :attr:`round`,
    :attr:`links`) carry the same information for programmatic handling
    (crash capsules serialize them).  Raised only when
    :attr:`repro.sim.runner.SimulationConfig.validation` is ``"cheap"``
    or ``"full"`` -- the default ``"off"`` never runs the checkers.
    """

    def __init__(self, checker: str, round_index: int, links=(), detail: str = ""):
        self.checker = checker
        self.round = int(round_index)
        self.links = tuple(links)
        message = f"invariant {checker!r} violated at round {self.round}"
        if self.links:
            message += f" on link(s) {', '.join(str(l) for l in self.links)}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
