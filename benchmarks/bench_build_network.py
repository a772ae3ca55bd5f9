"""Network-construction and plan-cache benchmarks.

``Network`` construction is tracked under both draw contracts:

* ``bench_build_network_100`` and ``bench_build_network_200_batched``
  time the v2 ``channel_draws="batched"`` contract: per-pair draw order
  in exactly two generator calls per pair (the line-of-sight coin, then
  one normal fill covering the pair's tap normals and the next pair's
  shadowing normal), with the link budget, tap scaling and the padded
  64-point FFT (on the contiguous axis) as array code per antenna-shape
  group.  Every batched build is asserted bit-identical to a per-pair
  oracle loop in the test suite
  (``tests/sim/test_network_batched_draws.py``).

* ``bench_build_network_200`` and ``bench_build_network_500`` time the
  grouped (v3) contract (``channel_draws="grouped"``): scalars-first
  draws, one tap draw per antenna-shape group, the DFT evaluated directly
  at the tracked bins as one BLAS matmul per group, ChannelBank storage
  fed id arrays (no per-pair tuples) with reciprocal directions as
  views.  The acceptance bar of the v3 contract is ``bench_build_network_200``
  >= 2x faster than the committed v2 ``bench_build_network_200`` baseline
  (0.272 s); ``bench_build_network_500`` is the first tracked number at
  the 500-station tier (124750 pairs).

* The per-simulation plan cache (:class:`repro.mac.plan.PlanCache`)
  memoizes the winner's pre-coder decompositions and measured SNRs by
  contention configuration.  ``bench_nplus_rounds_plan_cache`` times a
  default-window n+ simulation with the cache (the default);
  ``bench_nplus_rounds_no_plan_cache`` recomputes every plan, for the
  comparison.  Both runs assert identical metrics -- the cache is a pure
  speedup.

All entries are tracked in ``BENCH_core.json``; run
``python benchmarks/run_all.py --compare`` (or ``make bench-compare``)
to gate regressions.
"""

from __future__ import annotations

import numpy as np

from repro.sim.network import Network
from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory

_CONFIG = SimulationConfig(duration_us=100_000.0, n_subcarriers=16)
_SEED = 0

_scenarios: dict = {}


def _scenario(name: str):
    if name not in _scenarios:
        _scenarios[name] = scenario_factory(name)()
    return _scenarios[name]


def _build(name: str, channel_draws: str) -> Network:
    scenario = _scenario(name)
    return Network(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(_SEED),
        testbed=scenario.make_testbed(),
        n_subcarriers=_CONFIG.n_subcarriers,
        channel_draws=channel_draws,
    )


def bench_build_network_100(benchmark):
    """Batched construction of a 100-station network (4950 channel pairs)."""
    network = benchmark(lambda: _build("dense-lan-100", "batched"))
    assert len(network.stations) == 100


def bench_build_network_200(benchmark):
    """Grouped (v3) construction of a 200-station network (19900 pairs).

    Acceptance bar: >= 2x faster than the committed v2 baseline of this
    entry (0.272 s, ``channel_draws="batched"``), which is tracked on as
    ``bench_build_network_200_batched``.
    """
    network = benchmark(lambda: _build("dense-lan-200", "grouped"))
    assert len(network.stations) == 200


def bench_build_network_200_batched(benchmark):
    """The v2 batched contract at 200 stations, for the comparison."""
    network = benchmark(lambda: _build("dense-lan-200", "batched"))
    assert len(network.stations) == 200


def bench_build_network_500(benchmark):
    """Grouped construction of the 500-station tier (124750 pairs)."""
    network = benchmark(lambda: _build("dense-lan-500", "grouped"))
    assert len(network.stations) == 500


_plan_cache_state: dict = {}


def _plan_cache_setup():
    """The saturated dense LAN whose rounds exercise the plan cache."""
    if not _plan_cache_state:
        scenario = scenario_factory("dense-lan-30")()
        config = SimulationConfig(duration_us=100_000.0, n_subcarriers=8)
        network = build_network(scenario, 1, config)
        reference = run_simulation(
            scenario, "n+", seed=1, config=config, network=network, plan_cache=False
        )
        _plan_cache_state.update(
            scenario=scenario,
            config=config,
            network=network,
            reference=reference.to_dict(),
        )
    return _plan_cache_state


def _run_rounds(plan_cache: bool):
    state = _plan_cache_setup()
    metrics = run_simulation(
        state["scenario"],
        "n+",
        seed=1,
        config=state["config"],
        network=state["network"],
        plan_cache=plan_cache,
    )
    # The cache must be a pure speedup: identical metrics either way.
    assert metrics.to_dict() == state["reference"]
    return metrics


def bench_nplus_rounds_plan_cache(benchmark):
    """n+ rounds on dense-lan-30, 100 ms window, plan cache on (default)."""
    metrics = benchmark(lambda: _run_rounds(True))
    assert metrics.elapsed_us >= 100_000.0


def bench_nplus_rounds_no_plan_cache(benchmark):
    """The same rounds recomputing every plan, for the comparison."""
    metrics = benchmark(lambda: _run_rounds(False))
    assert metrics.elapsed_us >= 100_000.0
