"""What a run is: the simulation parameters, resolved against a scenario.

This module is the *plan layer*'s view of a run.  It holds the config a
caller passes (:class:`SimulationConfig`), the resolution rule that merges
it with a scenario's hints (:class:`RunSpec`) and the seed scheme of a
sweep (:func:`placement_seed`, :func:`mac_seed`) -- everything a sweep
needs to lay out its cells and compute their cache keys.  Of the package
it imports only :mod:`repro.sim.faults`, :mod:`repro.sim.invariants` and
:mod:`repro.sim.scenarios`, which need nothing beyond NumPy, so resolving
a sweep or replaying a stored grid never loads the round loop
(:mod:`repro.sim.runner`), the MAC agents, MIMO or the PHY.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

from repro.constants import (
    BITRATE_MARGIN_DB,
    DEFAULT_PACKET_SIZE_BYTES,
    MAX_ROUNDS,
    MIN_JOIN_AIRTIME_US,
    NUM_DATA_SUBCARRIERS,
)
from repro.exceptions import ConfigurationError
from repro.sim.faults import LossEpisode, fault_profile, read_trace
from repro.sim.invariants import VALIDATION_MODES
from repro.sim.scenarios import Scenario

__all__ = [
    "SimulationConfig",
    "RunSpec",
    "placement_seed",
    "mac_seed",
    "check_subcarrier_count",
    "FIDELITY_MODES",
    "DEFAULT_BAND_DB",
]

#: The three fidelity tiers, in increasing PHY cost.
FIDELITY_MODES = ("abstraction", "auto", "full")

#: Half-width (dB) of the uncertainty band around the delivery cliff.
#: Calibrated against the real chain: at ``margin = +band`` the probe
#: delivers essentially always, at ``margin = -band`` essentially never,
#: so outside the band the abstraction's confident verdicts can stand.
DEFAULT_BAND_DB = 3.0


def check_subcarrier_count(n_subcarriers: int) -> None:
    """Refuse a subcarrier resolution the OFDM layout cannot provide.

    The link abstraction tracks a subset of the 48 data subcarriers, so
    ``n_subcarriers`` must lie in ``1..NUM_DATA_SUBCARRIERS``; anything
    else raises :class:`~repro.exceptions.ConfigurationError`.
    """
    if not 1 <= n_subcarriers <= NUM_DATA_SUBCARRIERS:
        raise ConfigurationError(
            f"n_subcarriers must be between 1 and {NUM_DATA_SUBCARRIERS} "
            f"(the OFDM data subcarriers), got {n_subcarriers}"
        )


@dataclass
class SimulationConfig:
    """Parameters of one simulation run.

    The config is resolved against the scenario's hints into a
    :class:`RunSpec`, whose key payload is part of the results-cache key
    used by :mod:`repro.sim.sweep`: two runs with equal resolved specs
    (and equal scenario, protocol and seed) produce identical metrics,
    and any change to a resolved value invalidates the cached entry.
    What the paper's evaluation fixes -- the packet size, the bitrate
    margin, the joiner's minimum airtime and the round budget -- is a
    constant in :mod:`repro.constants`, not a field.

    Attributes
    ----------
    duration_us:
        Length of the observation window in simulated microseconds.  The
        last transmission round may run past it; the metrics normalise by
        the actual elapsed time.
    n_subcarriers:
        Number of OFDM data subcarriers tracked by the link abstraction,
        between 1 and 48.  16 keeps runs fast while retaining frequency
        selectivity; 48 tracks every data subcarrier; 8 is a common
        test/CI setting.
    packet_rate_pps:
        Per-flow Poisson packet arrival rate; a positive rate models
        bursty traffic.  ``None`` (the default) defers to the scenario's
        hint (the bursty dense-LAN scenarios suggest one), else the
        saturated sources of the paper's evaluation; ``0`` forces
        saturated sources even on a bursty scenario.
    fault_profile:
        Name of a registered fault profile (:mod:`repro.sim.faults`) to
        inject -- deep fades, loss episodes, station churn.  ``None``
        defers to the scenario's hint (``"mixed"`` on the
        ``dense-lan-*-faulty`` variants); ``"none"`` or ``""`` disables
        faults even on such a scenario.
    fault_trace:
        Path to a JSON/CSV loss-trace file
        (:func:`repro.sim.faults.read_trace`) whose
        episodes are injected in addition to the profile's.  The cache
        key covers the file's *content*, not its path.
    fidelity:
        PHY fidelity tier (:mod:`repro.sim.fidelity`): ``"abstraction"``
        predicts every delivery from the link abstraction, ``"auto"``
        escalates receptions whose delivery margin falls inside the
        uncertainty band to a real transceiver probe whose verdict
        overrides the abstraction's coin, and ``"full"`` escalates every
        evaluated reception.  ``None`` means ``"abstraction"``.
    fidelity_band_db:
        Half-width (dB) of the ``"auto"`` uncertainty band around the
        delivery cliff.  ``None`` means :data:`DEFAULT_BAND_DB`.
    validation:
        Runtime invariant checking (:mod:`repro.sim.invariants`):
        ``"off"`` (the default for ``None``) runs no checkers,
        ``"cheap"`` verifies the aggregate conservation laws at
        transmission-round boundaries, ``"full"`` additionally checks
        every link and queue each round (the mode ``repro replay``
        re-executes crash capsules under).  Validation never changes
        seeded results -- a violated invariant raises instead -- so it
        is left out of the sweep cache key.
    """

    duration_us: float = 100_000.0
    n_subcarriers: int = 16
    packet_rate_pps: Optional[float] = None
    fault_profile: Optional[str] = None
    fault_trace: Optional[str] = None
    fidelity: Optional[str] = None
    fidelity_band_db: Optional[float] = None
    validation: Optional[str] = None


#: :class:`RunSpec` fields left out of its cache key: ``validation`` never
#: changes results (a violated invariant raises instead of altering the
#: run), and the parsed ``trace_episodes`` are covered by ``fault_trace``,
#: the SHA-256 of the trace file they were read from.
_UNKEYED_FIELDS = ("validation", "trace_episodes")


def _check_mode(name: str, modes: Sequence[str], what: str) -> None:
    if name not in modes:
        raise ConfigurationError(f"unknown {what} {name!r}; choose from {modes}")


@dataclass(frozen=True)
class RunSpec:
    """A :class:`SimulationConfig` with every scenario hint resolved.

    :meth:`resolve` is *the* resolution rule -- the only place where an
    explicit config value is merged with a scenario hint -- and every
    consumer (network build, fault schedule, agents, round loop, sweep
    keys, capsule replay, the fidelity report) reads the resolved values
    from here.  Fields keep their config names and hold the value in
    effect: ``channel_draws`` is the scenario's contract (``"batched"``
    unless it declares another), ``fault_trace`` the SHA-256 of the
    trace file's bytes (its episodes in ``trace_episodes``),
    ``packet_rate_pps`` and ``fault_profile`` the config value when set,
    else the scenario's hint, and the other fields the config value,
    else the default.  :attr:`key_payload` is what a sweep cell's cache
    key hashes: resolved values, not spellings.
    """

    duration_us: float
    n_subcarriers: int
    packet_rate_pps: Optional[float]
    channel_draws: str
    fault_profile: Optional[str]
    fault_trace: Optional[str]
    trace_episodes: Tuple[LossEpisode, ...]
    fidelity: str
    fidelity_band_db: float
    validation: str

    @classmethod
    def resolve(
        cls,
        scenario: Scenario,
        config: Union[SimulationConfig, "RunSpec", None] = None,
    ) -> "RunSpec":
        """Resolve ``config`` against ``scenario``'s hints.

        A :class:`RunSpec` is already resolved and passes through
        unchanged.  Raises :class:`~repro.exceptions.ConfigurationError`
        for a duration that is not finite and positive, a packet rate
        that is not finite, a fidelity band that is not finite and
        non-negative, a subcarrier count outside ``1..48``, an unknown
        fidelity tier, validation mode or fault profile, and for an
        unreadable or malformed fault trace.
        """
        if isinstance(config, RunSpec):
            return config
        config = config or SimulationConfig()
        if not (math.isfinite(config.duration_us) and config.duration_us > 0):
            raise ConfigurationError(
                f"duration_us must be finite and > 0, got {config.duration_us}"
            )
        check_subcarrier_count(config.n_subcarriers)

        def hinted(name: str):
            value = getattr(config, name)
            return getattr(scenario, name) if value is None else value

        if config.packet_rate_pps is not None and not math.isfinite(config.packet_rate_pps):
            raise ConfigurationError(
                f"packet_rate_pps must be finite, got {config.packet_rate_pps}"
            )
        rate = hinted("packet_rate_pps")
        if config.packet_rate_pps is not None and config.packet_rate_pps <= 0:
            rate = None  # explicitly saturated
        profile = hinted("fault_profile")
        if profile in ("", "none"):
            profile = None
        elif profile is not None:
            fault_profile(profile)  # unknown names fail here, not mid-run
        trace_digest, trace_episodes = None, ()
        if config.fault_trace:
            trace_digest, schedule = read_trace(config.fault_trace)
            trace_episodes = tuple(schedule.episodes)
        fidelity = config.fidelity or "abstraction"
        _check_mode(fidelity, FIDELITY_MODES, "fidelity")
        band = config.fidelity_band_db
        if band is not None and not (math.isfinite(band) and band >= 0):
            raise ConfigurationError(f"fidelity_band_db must be finite and >= 0, got {band}")
        validation = config.validation or "off"
        _check_mode(validation, VALIDATION_MODES, "validation mode")
        return cls(
            duration_us=config.duration_us,
            n_subcarriers=config.n_subcarriers,
            packet_rate_pps=rate,
            channel_draws=scenario.channel_draws or "batched",
            fault_profile=profile,
            fault_trace=trace_digest,
            trace_episodes=trace_episodes,
            fidelity=fidelity,
            fidelity_band_db=DEFAULT_BAND_DB if band is None else float(band),
            validation=validation,
        )

    @cached_property
    def key_payload(self) -> dict:
        """The result-determining fields as a JSON-able dict (computed once).

        A fault profile is keyed by its parameters, so retuning a
        registered profile misses the cache.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in _UNKEYED_FIELDS
        }
        # Former config fields, now constants: keyed under their old names
        # and values so that recorded cell keys and sweep ids still match.
        payload.update(
            packet_size_bytes=DEFAULT_PACKET_SIZE_BYTES,
            min_join_airtime_us=MIN_JOIN_AIRTIME_US,
            bitrate_margin_db=BITRATE_MARGIN_DB,
            max_rounds=MAX_ROUNDS,
        )
        if self.fault_profile is not None:
            payload["fault_profile"] = {
                "name": self.fault_profile,
                "params": dataclasses.asdict(fault_profile(self.fault_profile)),
            }
        return payload


def placement_seed(seed: int, run: int) -> int:
    """The seed of run ``run`` in a sweep whose base seed is ``seed``.

    Placements and channels are drawn from ``placement_seed(seed, run)``;
    the MAC simulation of every protocol on that placement uses
    :func:`mac_seed` of it.  :class:`repro.sim.sweep.Cell` applies this
    scheme to every sweep cell, which is what makes cells interchangeable
    (and cacheable per run).
    """
    return seed + 1000 * run


def mac_seed(run_seed: int) -> int:
    """The MAC-simulation seed of a run whose placement seed is ``run_seed``.

    Offset from the placement seed so backoff/delivery draws are
    decorrelated from the channel draws.
    """
    return run_seed + 17
