"""A finished run's network is freed by reference counting alone.

Agents hold the network, and agents and the runner's traffic-state
arrays point at each other, so unless the runner breaks that cycle when
a run ends, a finished run's :class:`~repro.sim.network.Network` lives
until the cyclic garbage collector happens to run -- at the 500-station
tier that is a second network's worth of memory.  The network's
zero-forcing memo must die with it.  Each test disables the collector, so
only reference counting can free the network.
"""

import gc
import weakref

import pytest

from repro.exceptions import SimulationError
from repro.sim import runner
from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory

CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)


class _MemoEntry:
    """A weak-referenceable value planted in a network's memo."""


def _freed_after_run(scenario_name, protocol, config):
    """Run once on a caller-held network, drop it, report whether it died.

    Returns ``(freed, memo_freed, memo_used, error_type)``: whether the
    network and its zero-forcing memo died, whether the run stored
    anything in the memo, and the type of the exception the run raised,
    if any.  Only the type is kept, because a live traceback
    legitimately references the run's frames and with them the network.
    (A dict cannot be weakly referenced, so the memo's death is seen
    through an entry planted in it.)
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
        memo_used = bool(network.zero_forcing_memo)
        entry = _MemoEntry()
        network.zero_forcing_memo["planted"] = entry
        ref, memo_ref = weakref.ref(network), weakref.ref(entry)
        del network, entry
        return ref() is None, memo_ref() is None, memo_used, error_type
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
    freed, memo_freed, memo_used, error_type = _freed_after_run(
        scenario_name, protocol, CONFIG
    )
    assert error_type is None
    assert freed
    assert memo_used and memo_freed


def test_run_that_raises_frees_its_network(monkeypatch):
    """The round-budget guard raises mid-run; the cleanup still runs."""
    monkeypatch.setattr(runner, "MAX_ROUNDS", 1)
    freed, memo_freed, _, error_type = _freed_after_run("dense-lan-20-bursty", "n+", CONFIG)
    assert error_type is SimulationError
    assert freed
    assert memo_freed
