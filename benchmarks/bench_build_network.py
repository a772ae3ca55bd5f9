"""Network-construction and plan-cache benchmarks.

``Network`` construction is tracked under both draw contracts.  A build
makes every generator call of its contract and keeps each antenna-shape
group's draws -- the tap normals, the per-pair tap scales and SNRs --
in the ChannelBank; it computes no channel response.  A response (the
tap scaling and the transform below) is computed the first time a run
reads the link, so these entries time the draws, the link budget, the
tap scales and the bank index, and the transforms show up in the runs
that read links.

* ``bench_build_network_100`` and ``bench_build_network_200_batched``
  time the v2 ``channel_draws="batched"`` contract: per-pair draw order
  in exactly two generator calls per pair (the line-of-sight coin, then
  one normal fill covering the pair's tap normals and the next pair's
  shadowing normal), with the link budget and tap scales as array code
  per antenna-shape group; a read link's response is the padded
  64-point FFT (on the contiguous axis).  Every batched build is
  asserted bit-identical to a per-pair oracle loop in the test suite
  (``tests/sim/test_network_batched_draws.py``).

* ``bench_build_network_200`` and ``bench_build_network_500`` time the
  grouped (v3) contract (``channel_draws="grouped"``): scalars-first
  draws and one tap draw per antenna-shape group, kept by a ChannelBank
  fed id arrays (no per-pair tuples); a read link's response is the DFT
  evaluated directly at the tracked bins (one BLAS matmul), and the
  reciprocal direction is a view of it.  The acceptance bar of the v3
  contract is ``bench_build_network_200`` >= 2x faster than the
  committed v2 ``bench_build_network_200`` baseline (0.272 s);
  ``bench_build_network_500`` is the 500-station tier (124750 pairs).

* Every run memoizes the winner's pre-coder decompositions and measured
  SNRs by contention configuration in its own plan cache
  (:class:`repro.mac.plan.PlanCache`).  ``bench_nplus_rounds_plan_cache``
  times a default-window n+ simulation on a reused network and asserts
  that every repetition reproduces the metrics of a reference run.

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
            scenario, "n+", seed=1, config=config, network=network
        )
        _plan_cache_state.update(
            scenario=scenario,
            config=config,
            network=network,
            reference=reference.to_dict(),
        )
    return _plan_cache_state


def _run_rounds():
    state = _plan_cache_setup()
    metrics = run_simulation(
        state["scenario"],
        "n+",
        seed=1,
        config=state["config"],
        network=state["network"],
    )
    # A run is a pure function of its arguments: every repetition matches.
    assert metrics.to_dict() == state["reference"]
    return metrics


def bench_nplus_rounds_plan_cache(benchmark):
    """n+ rounds on dense-lan-30, 100 ms window, planning memoized."""
    metrics = benchmark(_run_rounds)
    assert metrics.elapsed_us >= 100_000.0
