"""The runtime invariant layer: mode resolution, checker registry,
violation reporting, and the strict-no-op guarantee of ``"off"``."""

from __future__ import annotations

import math

import pytest

from oracles.runner import run_simulation_condensed_reference
from repro.exceptions import ConfigurationError, InvariantViolation
from repro.sim.invariants import (
    VALIDATION_MODES,
    InvariantSuite,
    invariant,
    _REGISTRY,
)
from repro.sim.metrics import LinkMetrics, NetworkMetrics
from repro.sim.runner import RunSpec, SimulationConfig, run_simulation
from repro.sim.scenarios import scenario_factory

FAST = SimulationConfig(duration_us=4000.0, n_subcarriers=4)


def THREE_PAIR():
    return scenario_factory("three-pair")()


def FAULTY():
    return scenario_factory("dense-lan-20-faulty")()


class _StubScheduler:
    def __init__(self, now_us=0.0):
        self.now_us = now_us


class _StubNetwork:
    def __init__(self, epochs=None):
        self.link_epochs = dict(epochs or {})


class _StubLoop:
    """The duck-typed slice of the event loop the checkers read."""

    def __init__(self, links=None, now_us=0.0, epochs=None):
        self.metrics = NetworkMetrics()
        self.metrics.links.update(links or {})
        self.scheduler = _StubScheduler(now_us)
        self.network = _StubNetwork(epochs)
        self.agents = {}
        self.rounds = 7


class TestValidationResolution:
    def test_defaults_to_off(self):
        assert RunSpec.resolve(THREE_PAIR(), SimulationConfig()).validation == "off"

    def test_config_selects_the_mode(self):
        config = SimulationConfig(validation="cheap")
        assert RunSpec.resolve(THREE_PAIR(), config).validation == "cheap"

    def test_unknown_mode_is_rejected(self):
        config = SimulationConfig(validation="paranoid")
        with pytest.raises(ConfigurationError, match="unknown validation mode"):
            RunSpec.resolve(THREE_PAIR(), config)

    def test_modes_constant_matches_registry_scopes(self):
        assert VALIDATION_MODES == ("off", "cheap", "full")
        cheap = {name for name, _ in InvariantSuite("cheap").checkers}
        full = {name for name, _ in InvariantSuite("full").checkers}
        assert cheap < full


class TestRegistry:
    def test_expected_checkers_are_registered(self):
        names = {name for name, _ in InvariantSuite("full").checkers}
        assert {
            "delivered-within-attempted",
            "recovered-within-delivered",
            "finite-metrics",
            "clock-monotone",
            "epoch-monotone",
            "per-link-conservation",
            "per-link-counters",
            "queue-drops-monotone",
        } <= names

    def test_bad_scope_is_rejected(self):
        with pytest.raises(ConfigurationError, match="scope"):
            invariant("bogus", scope="sometimes")

    def test_suite_rejects_off(self):
        with pytest.raises(ConfigurationError, match="'cheap' or 'full'"):
            InvariantSuite("off")

    def test_cheap_suite_skips_full_checkers(self):
        cheap = {name for name, _ in InvariantSuite("cheap").checkers}
        full = {name for name, _ in InvariantSuite("full").checkers}
        assert "per-link-conservation" in full - cheap


class TestCheckers:
    def test_clean_stub_passes_all_checkers(self):
        loop = _StubLoop(
            links={"1->2": LinkMetrics("1->2", delivered_bits=10, attempted_bits=20)}
        )
        suite = InvariantSuite("full")
        suite.check_round(loop)
        assert suite.rounds_checked == 1

    def test_delivered_beyond_attempted_raises(self):
        loop = _StubLoop(
            links={"1->2": LinkMetrics("1->2", delivered_bits=30, attempted_bits=20)}
        )
        with pytest.raises(InvariantViolation) as err:
            InvariantSuite("cheap").check_round(loop)
        assert err.value.checker == "delivered-within-attempted"
        assert err.value.round == 7

    def test_per_link_violation_names_the_link(self):
        # aggregates balance (the surplus on one link hides behind the
        # other), so only the full per-link checker can catch it
        loop = _StubLoop(
            links={
                "1->2": LinkMetrics("1->2", delivered_bits=30, attempted_bits=20),
                "3->4": LinkMetrics("3->4", delivered_bits=0, attempted_bits=20),
            }
        )
        InvariantSuite("cheap").check_round(loop)  # passes: sums balance
        with pytest.raises(InvariantViolation) as err:
            InvariantSuite("full").check_round(loop)
        assert err.value.checker == "per-link-conservation"
        assert "1->2" in err.value.links
        assert "1->2" in str(err.value)

    def test_nonfinite_airtime_raises(self):
        loop = _StubLoop(links={"1->2": LinkMetrics("1->2", airtime_us=math.nan)})
        with pytest.raises(InvariantViolation) as err:
            InvariantSuite("cheap").check_round(loop)
        assert err.value.checker == "finite-metrics"

    def test_clock_running_backwards_raises(self):
        suite = InvariantSuite("cheap")
        suite.check_round(_StubLoop(now_us=100.0))
        with pytest.raises(InvariantViolation) as err:
            suite.check_round(_StubLoop(now_us=50.0))
        assert err.value.checker == "clock-monotone"

    def test_epoch_regression_raises(self):
        suite = InvariantSuite("cheap")
        suite.check_round(_StubLoop(epochs={(1, 2): 3}))
        with pytest.raises(InvariantViolation) as err:
            suite.check_round(_StubLoop(epochs={(1, 2): 2}))
        assert err.value.checker == "epoch-monotone"

    def test_negative_counter_raises_under_full(self):
        loop = _StubLoop(links={"1->2": LinkMetrics("1->2", quarantined_rounds=-1)})
        InvariantSuite("cheap").check_round(loop)
        with pytest.raises(InvariantViolation) as err:
            InvariantSuite("full").check_round(loop)
        assert err.value.checker == "per-link-counters"


class TestRunnerIntegration:
    def test_validating_runs_match_the_unvalidated_metrics(self):
        baseline = run_simulation(THREE_PAIR(), "n+", seed=3, config=FAST)
        for mode in ("cheap", "full"):
            config = SimulationConfig(
                duration_us=4000.0, n_subcarriers=4, validation=mode
            )
            validated = run_simulation(THREE_PAIR(), "n+", seed=3, config=config)
            assert validated.to_dict() == baseline.to_dict()

    def test_faulty_scenario_passes_full_validation(self):
        config = SimulationConfig(
            duration_us=4000.0, n_subcarriers=4, validation="full"
        )
        metrics = run_simulation(FAULTY(), "n+", seed=7, config=config)
        assert metrics.elapsed_us > 0

    def test_checkers_actually_run_during_a_simulation(self):
        calls = {"n": 0}

        @invariant("test-probe")
        def _probe(suite, loop):
            calls["n"] += 1

        try:
            config = SimulationConfig(
                duration_us=4000.0, n_subcarriers=4, validation="cheap"
            )
            run_simulation(THREE_PAIR(), "n+", seed=3, config=config)
        finally:
            _REGISTRY.pop("test-probe", None)
        assert calls["n"] > 0

    def test_off_mode_does_not_touch_the_registry(self):
        calls = {"n": 0}

        @invariant("test-probe-off")
        def _probe(suite, loop):
            calls["n"] += 1

        try:
            run_simulation(THREE_PAIR(), "n+", seed=3, config=FAST)
        finally:
            _REGISTRY.pop("test-probe-off", None)
        assert calls["n"] == 0

    def test_condensed_reference_refuses_validation(self):
        config = SimulationConfig(
            duration_us=4000.0, n_subcarriers=4, validation="cheap"
        )
        with pytest.raises(ConfigurationError, match="invariant layer"):
            run_simulation_condensed_reference(
                THREE_PAIR(), "n+", seed=3, config=config
            )


class TestInvariantViolation:
    def test_message_names_checker_round_and_links(self):
        err = InvariantViolation(
            "finite-metrics", 12, links=("1->2",), detail="airtime_us=nan"
        )
        assert err.checker == "finite-metrics"
        assert err.round == 12
        assert err.links == ("1->2",)
        message = str(err)
        assert "finite-metrics" in message
        assert "12" in message
        assert "1->2" in message
        assert "airtime_us=nan" in message
