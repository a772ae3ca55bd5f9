"""A finished run's network is freed by reference counting alone.

Agents hold the network, and agents and the runner's traffic-state
arrays point at each other, so unless the runner breaks that cycle when
a run ends, a finished run's :class:`~repro.sim.network.Network` lives
until the cyclic garbage collector happens to run -- at the 500-station
tier that is a second network's worth of memory.  Each test disables the
collector, so only reference counting can free the network.
"""

import gc
import weakref

import pytest

from repro.exceptions import SimulationError
from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory

CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)


def _freed_after_run(scenario_name, protocol, config):
    """Run once on a caller-held network, drop it, report whether it died.

    Returns ``(freed, error_type)``: the type of the exception the run
    raised, if any.  Only the type is kept, because a live traceback
    legitimately references the run's frames and with them the network.
    """
    scenario = scenario_factory(scenario_name)()
    gc.collect()
    gc.disable()
    try:
        network = build_network(scenario, 3, config)
        error_type = None
        try:
            run_simulation(scenario, protocol, seed=3, config=config, network=network)
        except SimulationError as exc:
            error_type = type(exc)
        ref = weakref.ref(network)
        del network
        return ref() is None, error_type
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "scenario_name, protocol",
    [
        ("dense-lan-20-bursty", "802.11n"),
        ("dense-lan-20-bursty", "n+"),
        ("dense-lan-20-faulty", "n+[recovery=erasure]"),
    ],
)
def test_finished_run_frees_its_network(scenario_name, protocol):
    freed, error_type = _freed_after_run(scenario_name, protocol, CONFIG)
    assert error_type is None
    assert freed


def test_run_that_raises_frees_its_network():
    """The round-budget guard raises mid-run; the cleanup still runs."""
    config = SimulationConfig(duration_us=20_000.0, n_subcarriers=8, max_rounds=1)
    freed, error_type = _freed_after_run("dense-lan-20-bursty", "n+", config)
    assert error_type is SimulationError
    assert freed
