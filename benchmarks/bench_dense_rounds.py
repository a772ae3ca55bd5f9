"""Dense-LAN round benchmarks: the runner's batched round queries.

The event loop (``repro.sim.runner``) evaluates the per-round MAC
queries -- who has traffic, when does traffic arrive next, who may join
-- as array operations over :class:`repro.sim.traffic.TrafficStateArrays`
instead of one Python call per agent.  These benchmarks time a
default-duration (100 ms) simulation of the ``dense-lan-100`` scenarios
on a pre-built network, so the measured time is exactly the rounds
(network construction is excluded).  The test suite asserts the batched
queries bit-identical to per-agent scans
(``tests/sim/test_batched_pipeline.py``).

The entries are tracked in ``BENCH_core.json``; run
``python benchmarks/run_all.py --compare`` to gate regressions.
"""

from __future__ import annotations

from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory

#: The paper-default observation window (SimulationConfig.duration_us).
_CONFIG = SimulationConfig(duration_us=100_000.0, n_subcarriers=8)
_SEED = 1

_networks: dict = {}


def _run(scenario_name: str):
    """Simulate n+ on the scenario's (once-built) network."""
    if scenario_name not in _networks:
        scenario = scenario_factory(scenario_name)()
        _networks[scenario_name] = (scenario, build_network(scenario, _SEED, _CONFIG))
    scenario, network = _networks[scenario_name]
    return run_simulation(scenario, "n+", seed=_SEED, config=_CONFIG, network=network)


def bench_dense_lan_100_rounds_batched(benchmark):
    """Batched round queries, 100-station saturated LAN, 100 ms window."""
    metrics = benchmark(lambda: _run("dense-lan-100"))
    assert metrics.elapsed_us >= _CONFIG.duration_us


def bench_dense_lan_100_bursty_rounds_batched(benchmark):
    """Batched round queries on the bursty 100-station LAN (joins + idle gaps)."""
    metrics = benchmark(lambda: _run("dense-lan-100-bursty"))
    assert metrics.elapsed_us >= _CONFIG.duration_us
