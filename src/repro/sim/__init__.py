"""Network simulation tying the PHY, channel, MIMO and MAC layers together.

The simulator operates at transmission granularity: contention rounds are
resolved with the condensed DCF model (:mod:`repro.mac.csma`), concurrent
transmissions are tracked on a shared :class:`~repro.sim.medium.Medium`,
and packet reception is decided by a link abstraction that computes
per-subcarrier post-projection SNRs from the true channels, the
pre-coders actually used, and the residual interference left by imperfect
nulling/alignment.

* :mod:`repro.sim.engine` -- a minimal discrete-event scheduler.
* :mod:`repro.sim.node` -- stations (nodes with antennas and a location).
* :mod:`repro.sim.medium` -- the shared medium and the streams on the air.
* :mod:`repro.sim.traffic` -- saturated and Poisson traffic sources.
* :mod:`repro.sim.metrics` -- throughput and fairness accounting.
* :mod:`repro.sim.link_abstraction` -- post-projection SNR evaluation.
* :mod:`repro.sim.network` -- nodes + channels + hardware for one run.
* :mod:`repro.sim.scenarios` -- the registered topologies: the paper's
  Figs. 2, 3 and 4 plus the dense-LAN family.
* :mod:`repro.sim.runner` -- the event-driven contention/transmission loop.
* :mod:`repro.sim.sweep` -- parallel, cached placement x protocol sweeps.
"""

from repro.sim.engine import EventScheduler
from repro.sim.node import Station, TrafficPair
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.traffic import SaturatedSource, PoissonSource
from repro.sim.metrics import LinkMetrics, NetworkMetrics
from repro.sim.network import Network
from repro.sim.scenarios import (
    Scenario,
    available_scenarios,
    dense_lan_scenario,
    heterogeneous_ap_scenario,
    register_scenario,
    scenario_factory,
    three_pair_scenario,
    two_pair_scenario,
)
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.sweep import SweepResult, run_sweep

__all__ = [
    "EventScheduler",
    "Station",
    "TrafficPair",
    "Medium",
    "ScheduledStream",
    "SaturatedSource",
    "PoissonSource",
    "LinkMetrics",
    "NetworkMetrics",
    "Network",
    "Scenario",
    "available_scenarios",
    "dense_lan_scenario",
    "register_scenario",
    "scenario_factory",
    "three_pair_scenario",
    "two_pair_scenario",
    "heterogeneous_ap_scenario",
    "SimulationConfig",
    "run_simulation",
    "SweepResult",
    "run_sweep",
]
