"""The evaluation topologies: the paper's Figs. 2, 3 and 4 plus dense LANs.

Every scenario is a :class:`Scenario` -- stations, traffic pairs and
(optionally) a custom testbed and a suggested traffic model.  Factories
for the canonical topologies are registered in a name-to-factory registry
so experiments, the CLI and the sweep cache can refer to a topology by a
stable string::

    >>> from repro.sim.scenarios import scenario_factory, available_scenarios
    >>> available_scenarios()  # doctest: +ELLIPSIS
    ['dense-lan-20', ...]
    >>> scenario = scenario_factory("three-pair")()

The ``dense-lan-*`` family models the production-scale regime the
ROADMAP asks for: 20-500 node LANs with heterogeneous 1x1/2x2/3x3 antenna
mixes on a larger synthetic floor, in saturated and bursty variants.
The 100/200-station tier is the workload of the runner's batched
round queries (:mod:`repro.sim.runner`); the 500-station tier
additionally declares the grouped (v3) channel-draw contract
(``channel_draws="grouped"``), whose scalars-first construction is what
makes a 124750-pair network draw affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.node import Station, TrafficPair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.channel.testbed import Testbed

__all__ = [
    "Scenario",
    "two_pair_scenario",
    "three_pair_scenario",
    "heterogeneous_ap_scenario",
    "dense_lan_scenario",
    "register_scenario",
    "scenario_factory",
    "available_scenarios",
]


@dataclass
class Scenario:
    """A set of stations and traffic pairs.

    The fields after ``testbed_factory`` are *hints*, merged with a
    :class:`~repro.sim.spec.SimulationConfig` by
    :meth:`repro.sim.spec.RunSpec.resolve`: an explicit config value
    beats every hint but ``channel_draws``, and the resolved values, not
    the hints, reach the sweep cache key.

    Attributes
    ----------
    name:
        Scenario label used in result tables and cache keys.
    stations:
        Every node (transmitters and receivers).
    pairs:
        The transmitter-receiver pairs with traffic.
    testbed_factory:
        Optional zero-argument callable building the
        :class:`~repro.channel.testbed.Testbed` this scenario should be
        placed on.  ``None`` means the default 20-location office floor;
        dense scenarios supply a larger floor so 20-50 nodes fit.
    packet_rate_pps:
        Suggested per-flow Poisson arrival rate; ``None`` means
        saturated sources.
    channel_draws:
        The channel-draw contract of this scenario's networks
        (:class:`repro.sim.network.Network`): ``"grouped"`` or
        ``"batched"`` (the default, for ``None``).  The 500-station tier
        declares ``"grouped"`` -- at that density the v2 per-pair draw
        order is the dominant construction cost.  Only the scenario
        chooses the contract; no config overrides it.
    fault_profile:
        Suggested fault profile (:mod:`repro.sim.faults`): the name of a
        registered :class:`~repro.sim.faults.FaultProfile` whose
        episodes -- deep fades, loss bursts, station churn -- are
        injected into every run.  ``None`` means a static network.
    """

    name: str
    stations: List[Station]
    pairs: List[TrafficPair]
    testbed_factory: Optional[Callable[[], "Testbed"]] = None
    packet_rate_pps: Optional[float] = None
    channel_draws: Optional[str] = None
    fault_profile: Optional[str] = None

    @property
    def max_antennas(self) -> int:
        """Maximum antenna count among transmitters (= network DoF, §1)."""
        return max(pair.transmitter.n_antennas for pair in self.pairs)

    def make_testbed(self) -> Optional["Testbed"]:
        """Build this scenario's testbed, or ``None`` for the default floor."""
        if self.testbed_factory is None:
            return None
        return self.testbed_factory()


def two_pair_scenario() -> Scenario:
    """Fig. 2: a single-antenna pair plus a 2-antenna pair."""
    tx1 = Station(0, 1, "tx1")
    rx1 = Station(1, 1, "rx1")
    tx2 = Station(2, 2, "tx2")
    rx2 = Station(3, 2, "rx2")
    pairs = [
        TrafficPair(tx1, [rx1]),
        TrafficPair(tx2, [rx2]),
    ]
    return Scenario("two-pair", [tx1, rx1, tx2, rx2], pairs)


def three_pair_scenario() -> Scenario:
    """Fig. 3: 1-, 2- and 3-antenna pairs contending for the medium.

    This is the topology of the main throughput comparison (Fig. 12).
    """
    tx1 = Station(0, 1, "tx1")
    rx1 = Station(1, 1, "rx1")
    tx2 = Station(2, 2, "tx2")
    rx2 = Station(3, 2, "rx2")
    tx3 = Station(4, 3, "tx3")
    rx3 = Station(5, 3, "rx3")
    pairs = [
        TrafficPair(tx1, [rx1]),
        TrafficPair(tx2, [rx2]),
        TrafficPair(tx3, [rx3]),
    ]
    return Scenario("three-pair", [tx1, rx1, tx2, rx2, tx3, rx3], pairs)


def heterogeneous_ap_scenario() -> Scenario:
    """Fig. 4: transmitters and receivers with different antenna counts.

    A single-antenna client c1 transmits uplink to a 2-antenna AP1, while
    a 3-antenna AP2 has downlink traffic for two 2-antenna clients c2 and
    c3.  This is the topology of Fig. 13.
    """
    c1 = Station(0, 1, "c1")
    ap1 = Station(1, 2, "AP1")
    ap2 = Station(2, 3, "AP2")
    c2 = Station(3, 2, "c2")
    c3 = Station(4, 2, "c3")
    pairs = [
        TrafficPair(c1, [ap1]),
        TrafficPair(ap2, [c2, c3], streams_per_receiver=[1, 1]),
    ]
    return Scenario("heterogeneous-ap", [c1, ap1, ap2, c2, c3], pairs)


#: The antenna counts a dense LAN's pairs are drawn from: 1x1, 2x2 and
#: 3x3 links, like a real office LAN.
ANTENNA_MIX = (1, 2, 3)


def dense_lan_scenario(
    n_pairs: int = 10,
    seed: int = 0,
    packet_rate_pps: Optional[float] = None,
    name: Optional[str] = None,
    channel_draws: Optional[str] = None,
    fault_profile: Optional[str] = None,
) -> Scenario:
    """A dense LAN: many contending pairs with a heterogeneous antenna mix.

    This is the scaling workload beyond the paper's 2-3 pair topologies:
    ``n_pairs`` transmitter-receiver pairs (so ``2 * n_pairs`` stations)
    whose antenna counts are drawn from :data:`ANTENNA_MIX`.  The scenario
    carries a :func:`~repro.channel.testbed.dense_testbed` sized to hold
    every node, so placements still vary run by run while the topology
    (which pair has how many antennas) is frozen by ``seed``.

    Parameters
    ----------
    n_pairs:
        Number of traffic pairs.  10-25 pairs give the 20-50 node LANs of
        the registered ``dense-lan-20/30/50`` scenarios; 50 and 100 pairs
        give the ``dense-lan-100/200`` tier.
    seed:
        Freezes the antenna assignment, one draw per pair (not the
        placements, which are per run); if every pair draws one antenna,
        the first takes the largest count so the network always has
        multiple degrees of freedom.  Factories with the same arguments
        build identical scenarios, which keeps sweep cache keys stable.
    packet_rate_pps:
        Suggested per-flow Poisson rate for the bursty variants; ``None``
        keeps the paper's saturated sources.
    name:
        Scenario label; defaults to ``dense-lan-<n_stations>``.
    channel_draws:
        Suggested draw contract for the network construction; the
        500-station tier passes ``"grouped"`` (the v3 scalars-first
        contract) because the v2 per-pair draw order dominates its
        124750-pair build.
    fault_profile:
        Suggested fault profile for the ``*-faulty`` variants: the name
        of a registered :class:`~repro.sim.faults.FaultProfile` injected
        into every run (config override wins; ``"none"`` disables).
    """
    if n_pairs < 1:
        raise ConfigurationError("a dense LAN needs at least one pair")
    from repro.channel.testbed import dense_testbed

    rng = np.random.default_rng(seed)
    counts = [ANTENNA_MIX[i] for i in rng.integers(0, len(ANTENNA_MIX), size=n_pairs)]
    if max(counts) == 1:
        # Guarantee the network has spare degrees of freedom to share.
        counts[0] = max(ANTENNA_MIX)

    stations: List[Station] = []
    pairs: List[TrafficPair] = []
    node_id = 0
    for index, antennas in enumerate(counts, start=1):
        tx = Station(node_id, antennas, f"tx{index}")
        rx = Station(node_id + 1, antennas, f"rx{index}")
        node_id += 2
        stations.extend([tx, rx])
        pairs.append(TrafficPair(tx, [rx]))

    n_locations = max(2 * n_pairs + 8, 24)
    label = name or f"dense-lan-{2 * n_pairs}"
    return Scenario(
        label,
        stations,
        pairs,
        testbed_factory=partial(dense_testbed, n_locations=n_locations, seed=seed),
        packet_rate_pps=packet_rate_pps,
        channel_draws=channel_draws,
        fault_profile=fault_profile,
    )


# -- registry -------------------------------------------------------------------

#: Name -> zero-argument factory.  Stable names double as sweep cache keys.
_SCENARIOS: Dict[str, Callable[[], Scenario]] = {}


def register_scenario(name: str, factory: Callable[[], Scenario]) -> None:
    """Register a zero-argument scenario factory under a stable name.

    A registered name is the only way to select a scenario: the CLI's
    ``--scenario`` flag, the figure experiments and
    :func:`repro.sim.sweep.run_sweep` (where the name also keys the
    results cache and a failed cell's replay) all take one.  Registering a
    parameterised family is a one-liner with :func:`functools.partial`,
    as the ``dense-lan-*`` entries below demonstrate.  A name registers
    once.
    """
    if name in _SCENARIOS:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _SCENARIOS[name] = factory


def scenario_factory(name: str) -> Callable[[], Scenario]:
    """Look up a registered scenario factory by name.

    Raises :class:`~repro.exceptions.ConfigurationError` with the list of
    known names for anything else -- an unknown name or a value that is
    not a name (``python -m repro.cli scenarios`` shows what is
    available).
    """
    factory = _SCENARIOS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {available_scenarios()}"
        )
    return factory


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_SCENARIOS)


register_scenario("two-pair", two_pair_scenario)
register_scenario("three-pair", three_pair_scenario)
register_scenario("heterogeneous-ap", heterogeneous_ap_scenario)
# The dense-LAN family: 20/30/50-station saturated LANs plus a bursty
# 20-station variant (Poisson arrivals instead of saturated sources).
register_scenario("dense-lan-20", partial(dense_lan_scenario, n_pairs=10, seed=20))
register_scenario("dense-lan-30", partial(dense_lan_scenario, n_pairs=15, seed=30))
register_scenario("dense-lan-50", partial(dense_lan_scenario, n_pairs=25, seed=50))
register_scenario(
    "dense-lan-20-bursty",
    partial(dense_lan_scenario, n_pairs=10, seed=20, packet_rate_pps=300.0,
            name="dense-lan-20-bursty"),
)
# The 100/200-station tier served by the batched round pipeline.  At this
# density a saturated LAN is contention-bound (the paper's DCF model
# collapses under 50+ simultaneous contenders, which is itself a result
# worth reproducing), so each size also ships a bursty variant where
# single-winner rounds, joins and idle gaps all occur -- the workload the
# per-round batching is measured on (benchmarks/bench_dense_rounds.py).
register_scenario("dense-lan-100", partial(dense_lan_scenario, n_pairs=50, seed=100))
register_scenario("dense-lan-200", partial(dense_lan_scenario, n_pairs=100, seed=200))
register_scenario(
    "dense-lan-100-bursty",
    partial(dense_lan_scenario, n_pairs=50, seed=100, packet_rate_pps=150.0,
            name="dense-lan-100-bursty"),
)
register_scenario(
    "dense-lan-200-bursty",
    partial(dense_lan_scenario, n_pairs=100, seed=200, packet_rate_pps=150.0,
            name="dense-lan-200-bursty"),
)
# The 500-station backbone tier: 124750 channel pairs per placement.
# In the spirit of LINC's argument that loss/scale pathologies only
# surface at backbone-scale workloads, this tier exists to exercise the
# grouped (v3) draw contract -- at this density the v2 per-pair rng
# calls dominate construction, so the scenario declares
# channel_draws="grouped" (scalars-first draws, ChannelBank views,
# batched estimation prefetch).  As with the 100/200 tier, the
# saturated variant is contention-collapsed by design; the bursty
# variant is the meaningful workload.
register_scenario(
    "dense-lan-500",
    partial(dense_lan_scenario, n_pairs=250, seed=500, channel_draws="grouped"),
)
register_scenario(
    "dense-lan-500-bursty",
    partial(dense_lan_scenario, n_pairs=250, seed=500, packet_rate_pps=150.0,
            name="dense-lan-500-bursty", channel_draws="grouped"),
)
# The faulty variants: the same topologies under the "mixed" fault
# profile (deep fades + bursty loss episodes + station churn, see
# repro.sim.faults).  These are the robustness workloads -- the paper's
# dense heterogeneous-LAN story only matters under disturbance, and
# LinkGuardian/LINC (PAPERS.md) make episodic loss the first-class
# object.  Bursty arrivals keep the runs out of the contention-collapse
# regime so fades, churn gaps and retransmissions all actually occur.
register_scenario(
    "dense-lan-20-faulty",
    partial(dense_lan_scenario, n_pairs=10, seed=20, packet_rate_pps=300.0,
            name="dense-lan-20-faulty", fault_profile="mixed"),
)
register_scenario(
    "dense-lan-50-faulty",
    partial(dense_lan_scenario, n_pairs=25, seed=50, packet_rate_pps=200.0,
            name="dense-lan-50-faulty", fault_profile="mixed"),
)
register_scenario(
    "dense-lan-100-faulty",
    partial(dense_lan_scenario, n_pairs=50, seed=100, packet_rate_pps=150.0,
            name="dense-lan-100-faulty", fault_profile="mixed"),
)
