"""The run-resolution rule (:class:`repro.sim.spec.RunSpec`) and what the
sweep cache keys with it: every field of a scenario or config is either
structure, a resolved value in the key payload, or declared
result-neutral; keys compare resolved values, not spellings; a fault
trace is keyed by its bytes, not its path; and the validation mode never
reaches the key."""

from __future__ import annotations

import dataclasses
import json
from functools import partial

import pytest

import repro.sim.spec as spec_module
import repro.sim.supervisor as supervisor_module
import repro.sim.sweep as sweep_module
from repro.exceptions import ConfigurationError
from repro.mac.nplus import NPlusMac
from repro.mac.variants import _VARIANTS, ProtocolVariant, resolve_protocol
from repro.sim.capsule import load_capsule, replay_capsule
from repro.sim.faults import read_trace
from repro.sim.fidelity import DEFAULT_BAND_DB
from repro.sim.runner import (
    RunSpec,
    SimulationConfig,
    build_fault_schedule,
    run_simulation,
)
from repro.sim.scenarios import (
    Scenario,
    dense_lan_scenario,
    scenario_factory,
    three_pair_scenario,
)
from repro.sim.sweep import Cell, run_sweep, scenario_digest

FAST = SimulationConfig(duration_us=4000.0, n_subcarriers=4)

#: Scenario fields covered by the structure digest.
STRUCTURE_FIELDS = {"stations", "pairs", "testbed_factory"}

#: Fields that never change a run's results, so no key covers them.
RESULT_NEUTRAL = {"validation", "name"}

#: RunSpec fields outside the key payload: the neutral validation mode and
#: the parsed trace episodes (keyed through the trace's content hash).
UNKEYED_RUN_SPEC_FIELDS = {"validation", "trace_episodes"}

TRACE = '[{"start_us": 0, "duration_us": 1500, "loss_rate": 0.6}]'


class _BoomMac(NPlusMac):
    """An n+ agent that raises the moment it wins the floor."""

    protocol_name = "boom"

    def plan_initial(self, *args, **kwargs):
        raise RuntimeError("boom")


def _key(scenario: Scenario, config) -> str:
    return Cell(
        "probe", None, resolve_protocol("n+"), 0, 0, RunSpec.resolve(scenario, config)
    ).key


class TestFieldWalk:
    """Adding a field without deciding where it is keyed fails here."""

    def test_every_scenario_field_is_structure_keyed_or_neutral(self):
        payload = RunSpec.resolve(three_pair_scenario()).key_payload
        for f in dataclasses.fields(Scenario):
            if f.name in STRUCTURE_FIELDS or f.name in RESULT_NEUTRAL:
                continue
            assert f.name in payload, (
                f"Scenario.{f.name} is not in the structure digest, the run "
                "spec's key payload or the result-neutral list"
            )

    def test_every_config_field_is_resolved_and_keyed_or_neutral(self):
        run_spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
        payload = RunSpec.resolve(three_pair_scenario()).key_payload
        for f in dataclasses.fields(SimulationConfig):
            assert f.name in run_spec_fields, f"RunSpec lacks config field {f.name}"
            if f.name in RESULT_NEUTRAL:
                assert f.name not in payload, f"{f.name} is result-neutral"
            else:
                assert f.name in payload, f"config field {f.name} is not keyed"

    def test_only_declared_run_spec_fields_stay_out_of_the_key(self):
        run_spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
        payload = RunSpec.resolve(three_pair_scenario()).key_payload
        assert run_spec_fields - set(payload) == UNKEYED_RUN_SPEC_FIELDS

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FIELDS))
    def test_structure_fields_move_the_digest(self, name):
        scenario = dense_lan_scenario(n_pairs=3, seed=1)
        edits = {
            "stations": scenario.stations[:-1],
            "pairs": scenario.pairs[:-1],
            "testbed_factory": None,
        }
        edited = dataclasses.replace(scenario, **{name: edits[name]})
        assert scenario_digest(edited) != scenario_digest(scenario)

    def test_hints_are_not_structure(self):
        scenario = dense_lan_scenario(n_pairs=3, seed=1)
        hinted = dataclasses.replace(
            scenario,
            packet_rate_pps=9.0,
            channel_draws="grouped",
            fault_profile="mixed",
        )
        assert scenario_digest(hinted) == scenario_digest(scenario)


#: (scenario factory, config override, keys like the unset field?)
KEY_CASES = [
    pytest.param(three_pair_scenario, {"fidelity": "abstraction"}, True,
                 id="explicit-abstraction"),
    pytest.param(three_pair_scenario, {"fidelity_band_db": DEFAULT_BAND_DB}, True,
                 id="explicit-default-band"),
    pytest.param(three_pair_scenario, {"fault_profile": "none"}, True,
                 id="none-profile-on-static"),
    pytest.param(three_pair_scenario, {"fault_profile": ""}, True,
                 id="empty-profile-on-static"),
    pytest.param(three_pair_scenario, {"packet_rate_pps": 0}, True,
                 id="zero-rate-on-saturated"),
    pytest.param(three_pair_scenario, {"validation": "full"}, True,
                 id="validation-is-neutral"),
    pytest.param(scenario_factory("dense-lan-20-bursty"), {"packet_rate_pps": 0},
                 False, id="saturate-a-bursty-scenario"),
    pytest.param(scenario_factory("dense-lan-20-bursty"), {"packet_rate_pps": 50.0},
                 False, id="retune-a-bursty-rate"),
    pytest.param(scenario_factory("dense-lan-20-faulty"), {"fault_profile": "none"},
                 False, id="disable-a-faulty-profile"),
    pytest.param(scenario_factory("dense-lan-20-faulty"),
                 {"fault_profile": "deep-fades"}, False, id="swap-a-faulty-profile"),
]


class TestKeysCompareResolvedValues:
    @pytest.mark.parametrize("factory, override, same", KEY_CASES)
    def test_override_keys_like_its_resolved_value(self, factory, override, same):
        unset = _key(factory(), FAST)
        explicit = _key(factory(), dataclasses.replace(FAST, **override))
        assert (explicit == unset) is same


class TestResolve:
    def test_a_resolved_spec_passes_through(self):
        run_spec = RunSpec.resolve(three_pair_scenario(), FAST)
        assert RunSpec.resolve(three_pair_scenario(), run_spec) is run_spec

    def test_none_config_resolves_the_defaults(self):
        assert RunSpec.resolve(three_pair_scenario()) == RunSpec.resolve(
            three_pair_scenario(), SimulationConfig()
        )

    def test_packet_rate_config_beats_the_hint(self):
        bursty = scenario_factory("dense-lan-20-bursty")()
        assert bursty.packet_rate_pps is not None
        assert RunSpec.resolve(bursty).packet_rate_pps == bursty.packet_rate_pps
        rate = SimulationConfig(packet_rate_pps=42.0)
        assert RunSpec.resolve(bursty, rate).packet_rate_pps == 42.0
        for saturated in (0, -1.0):
            config = SimulationConfig(packet_rate_pps=saturated)
            assert RunSpec.resolve(bursty, config).packet_rate_pps is None

    def test_unknown_fault_profile_is_refused_at_resolve(self):
        with pytest.raises(ConfigurationError, match="unknown fault profile"):
            RunSpec.resolve(three_pair_scenario(), SimulationConfig(fault_profile="x"))

    @pytest.mark.parametrize("n_subcarriers", [0, 49, 64])
    def test_subcarrier_count_beyond_the_data_bins_is_refused_at_resolve(
        self, n_subcarriers
    ):
        config = SimulationConfig(n_subcarriers=n_subcarriers)
        with pytest.raises(ConfigurationError, match="between 1 and 48"):
            RunSpec.resolve(three_pair_scenario(), config)

    @pytest.mark.parametrize("duration_us", [0.0, -5_000.0, float("nan"), float("inf")])
    def test_a_duration_that_is_not_finite_and_positive_is_refused(
        self, tmp_path, duration_us
    ):
        config = SimulationConfig(duration_us=duration_us)
        with pytest.raises(ConfigurationError, match="duration_us must be"):
            RunSpec.resolve(three_pair_scenario(), config)
        with pytest.raises(ConfigurationError, match="duration_us must be"):
            run_sweep("three-pair", ["n+"], n_runs=1, config=config, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_a_packet_rate_that_is_not_finite_is_refused(self, tmp_path, rate):
        config = SimulationConfig(packet_rate_pps=rate)
        with pytest.raises(ConfigurationError, match="packet_rate_pps must be finite"):
            RunSpec.resolve(three_pair_scenario(), config)
        with pytest.raises(ConfigurationError, match="packet_rate_pps must be finite"):
            run_sweep("three-pair", ["n+"], n_runs=1, config=config, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("band", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_a_fidelity_band_that_is_not_finite_and_non_negative_is_refused(self, band):
        config = SimulationConfig(fidelity="auto", fidelity_band_db=band)
        with pytest.raises(ConfigurationError, match="fidelity_band_db must be"):
            RunSpec.resolve(three_pair_scenario(), config)

    def test_a_zero_fidelity_band_resolves(self):
        config = SimulationConfig(fidelity="auto", fidelity_band_db=0.0)
        assert RunSpec.resolve(three_pair_scenario(), config).fidelity_band_db == 0.0

    @pytest.mark.parametrize("n_subcarriers", [49, 64])
    def test_run_simulation_refuses_more_subcarriers_than_data_bins(
        self, n_subcarriers
    ):
        config = SimulationConfig(duration_us=2_000.0, n_subcarriers=n_subcarriers)
        with pytest.raises(ConfigurationError, match="between 1 and 48"):
            run_simulation(three_pair_scenario(), "n+", seed=0, config=config)

    def test_key_payload_is_computed_once(self):
        run_spec = RunSpec.resolve(scenario_factory("dense-lan-20-faulty")(), FAST)
        assert run_spec.key_payload is run_spec.key_payload
        assert run_spec.key_payload["fault_profile"]["name"] == "mixed"

    def test_the_key_keeps_the_former_config_fields(self):
        """Packet size, join airtime, bitrate margin and round budget are
        constants now, but recorded keys hashed them as config fields: the
        payload keeps them under those names with the same JSON values."""
        run_spec = RunSpec.resolve(three_pair_scenario(), FAST)
        former = ("packet_size_bytes", "min_join_airtime_us", "bitrate_margin_db", "max_rounds")
        fields = {f.name for f in dataclasses.fields(RunSpec)}
        assert fields.isdisjoint(former)
        payload = run_spec.key_payload
        assert json.dumps({name: payload[name] for name in former}) == (
            '{"packet_size_bytes": 1500, "min_join_airtime_us": 96.0, '
            '"bitrate_margin_db": 1.0, "max_rounds": 200000}'
        )

    @pytest.mark.parametrize("protocol", ["802.11n", "n+"])
    def test_run_simulation_is_bit_identical_from_a_resolved_spec(self, protocol):
        scenario = scenario_factory("dense-lan-20-faulty")()
        config = dataclasses.replace(FAST, duration_us=10_000.0)
        from_config = run_simulation(scenario, protocol, seed=5, config=config)
        from_spec = run_simulation(
            scenario, protocol, seed=5, config=RunSpec.resolve(scenario, config)
        )
        assert from_spec.to_dict() == from_config.to_dict()

    def test_a_sweep_resolves_its_config_once(self, monkeypatch):
        resolved = []
        real = RunSpec.resolve.__func__

        def counting(cls, scenario, config=None):
            if not isinstance(config, RunSpec):
                resolved.append(config)
            return real(cls, scenario, config)

        monkeypatch.setattr(RunSpec, "resolve", classmethod(counting))
        run_sweep("three-pair", ["802.11n", "n+"], n_runs=3, seed=1, config=FAST)
        assert resolved == [FAST]


class TestTraceKeying:
    def _sweep(self, trace, cache_dir):
        config = dataclasses.replace(FAST, fault_trace=str(trace))
        return run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=2, config=config, cache_dir=cache_dir
        )

    def test_rewriting_a_trace_in_place_misses(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(TRACE)
        assert self._sweep(trace, tmp_path / "cache").cache_misses == 2
        assert self._sweep(trace, tmp_path / "cache").cache_hits == 2
        trace.write_text(TRACE.replace("0.6", "0.9"))
        rewritten = self._sweep(trace, tmp_path / "cache")
        assert rewritten.cache_hits == 0 and rewritten.cache_misses == 2

    def test_the_same_bytes_at_another_path_hit(self, tmp_path):
        first = tmp_path / "a" / "trace.json"
        first.parent.mkdir()
        first.write_text(TRACE)
        moved = tmp_path / "b" / "renamed.json"
        moved.parent.mkdir()
        moved.write_text(TRACE)
        cold = self._sweep(first, tmp_path / "cache")
        warm = self._sweep(moved, tmp_path / "cache")
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert [m.to_dict() for m in warm.results["n+"]] == [
            m.to_dict() for m in cold.results["n+"]
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unreadable_trace_raises_before_any_worker_spawns(
        self, tmp_path, monkeypatch, workers
    ):
        def no_executor(*args, **kwargs):
            raise AssertionError("an executor started before the trace was read")

        monkeypatch.setattr(supervisor_module, "WorkerSupervisor", no_executor)
        monkeypatch.setattr(supervisor_module, "in_process_events", no_executor)
        config = dataclasses.replace(FAST, fault_trace=str(tmp_path / "missing.csv"))
        with pytest.raises(ConfigurationError, match="cannot read fault trace"):
            run_sweep(
                "three-pair", ["n+"], n_runs=2, config=config, workers=workers,
                cache_dir=tmp_path / "cache",
            )

    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "crashing"])
    def test_a_sweep_reads_the_trace_once(self, tmp_path, monkeypatch, crash):
        """Also when a cell fails: its capsule's fault schedule comes from
        the resolved run, so it is written (and replays) even if the
        trace file is gone by then."""
        trace = tmp_path / "trace.json"
        trace.write_text(TRACE)
        reads = []
        real = spec_module.read_trace
        monkeypatch.setattr(
            spec_module, "read_trace", lambda path: reads.append(path) or real(path)
        )
        config = dataclasses.replace(FAST, fault_trace=str(trace))
        if not crash:
            run_sweep("three-pair", ["802.11n", "n+"], n_runs=3, config=config)
            assert reads == [str(trace)]
            return

        episodes = read_trace(trace)[1].to_jsonable()
        real_simulate = sweep_module._simulate_run

        def delete_trace_then_simulate(args):
            trace.unlink(missing_ok=True)
            return real_simulate(args)

        monkeypatch.setattr(sweep_module, "_simulate_run", delete_trace_then_simulate)
        monkeypatch.setitem(
            _VARIANTS, "boom", ProtocolVariant("boom", _BoomMac, supports_joining=True)
        )
        result = run_sweep(
            "three-pair", ["boom", "n+"], n_runs=2, config=config,
            cache_dir=tmp_path / "cache",
        )
        assert reads == [str(trace)] and not trace.exists()
        assert [(f.protocol, f.run) for f in result.failures] == [
            ("boom", 0), ("boom", 1)
        ]
        for failure in result.failures:
            capsule = load_capsule(failure.capsule_path)
            assert capsule.fault_schedule == episodes
            assert replay_capsule(capsule).reproduced

    def test_traced_run_injects_the_trace_episodes(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(TRACE)
        scenario = three_pair_scenario()
        config = dataclasses.replace(FAST, fault_trace=str(trace))
        schedule = build_fault_schedule(scenario, config, 3)
        assert schedule.episodes == read_trace(trace)[1].episodes
        traced = run_simulation(scenario, "n+", seed=3, config=config)
        explicit = run_simulation(
            scenario, "n+", seed=3, config=FAST,
            fault_schedule=read_trace(trace)[1],
        )
        assert traced.to_dict() == explicit.to_dict()


class TestValidationIsNotKeyed:
    def test_warm_grid_rerun_under_cheap_validation_only_hits(self, tmp_path):
        sweep = partial(
            run_sweep, "three-pair", ["802.11n", "n+"], n_runs=2, seed=4,
            cache_dir=tmp_path,
        )
        cold = sweep(config=FAST)
        warm = sweep(config=dataclasses.replace(FAST, validation="cheap"))
        assert cold.cache_misses == 4
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert warm.sweep_id == cold.sweep_id
