"""Tests for the fault-injection layer (:mod:`repro.sim.faults`).

The load-bearing guarantees:

* an **empty** fault schedule is a strict no-op: metrics are
  bit-identical to a run that never imported the fault layer;
* faulted runs are a pure function of the seed (dedicated
  ``(seed, FAULT_STREAM_TAG, ...)`` streams), identical on the
  per-agent oracle loop and across the plan-cache on/off switch -- the epoch-keyed
  caches never serve a stale entry;
* a fade scales both directions of a link in place and an ended fade
  restores the channel **bit-exactly**;
* ``bump_link_epoch`` evicts exactly the bumped link's estimate-memo
  entries -- every other link keeps its measured estimate;
* trace files (JSON and CSV) round-trip into ``LossEpisode`` lists and
  malformed traces are rejected with :class:`ConfigurationError`.
"""

import json

import numpy as np
import pytest

from helpers import custom_pairs_scenario
from oracles.runner import PerAgentLoop, run_simulation_condensed_reference
from repro.exceptions import ConfigurationError, DimensionError
from repro.sim.faults import (
    ChurnEpisode,
    FadeEpisode,
    FaultInjector,
    FaultProfile,
    FaultSchedule,
    LossEpisode,
    available_fault_profiles,
    fault_profile,
    loss_episode_generator,
    read_trace,
)
from repro.sim import runner
from repro.sim.network import Network
from repro.sim.runner import (
    RunSpec,
    SimulationConfig,
    build_fault_schedule,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    dense_lan_scenario,
    scenario_factory,
    three_pair_scenario,
)

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
FAULTY = scenario_factory("dense-lan-20-faulty")


def _network(seed=3, antenna_counts=(1, 2, 3, 2)):
    scenario = custom_pairs_scenario(list(antenna_counts))
    return Network(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(seed),
        n_subcarriers=8,
    )


class TestStrictNoOp:
    """Empty schedule == the fault layer was never there."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_empty_schedule_is_bit_identical(self, protocol):
        plain = run_simulation(three_pair_scenario(), protocol, seed=11, config=FAST)
        empty = run_simulation(
            three_pair_scenario(),
            protocol,
            seed=11,
            config=FAST,
            fault_schedule=FaultSchedule(),
        )
        assert plain.to_dict() == empty.to_dict()

    def test_none_profile_disables_a_faulty_scenario(self):
        """``fault_profile='none'`` is the off switch for *-faulty."""
        config = SimulationConfig(
            duration_us=10_000.0, n_subcarriers=8, fault_profile="none"
        )
        off = run_simulation(FAULTY(), "n+", seed=2, config=config)
        empty = run_simulation(
            FAULTY(), "n+", seed=2, config=config, fault_schedule=FaultSchedule()
        )
        assert off.to_dict() == empty.to_dict()

    def test_empty_profile_resolves_to_no_schedule(self):
        empty = FaultSchedule.from_profile(FaultProfile(), three_pair_scenario(), 0, 1e6)
        assert empty.episodes == []
        config = SimulationConfig(duration_us=10_000.0, fault_profile="none")
        assert build_fault_schedule(three_pair_scenario(), config, 0) is None
        assert build_fault_schedule(three_pair_scenario(), FAST, 0) is None


class TestFaultResolution:
    def test_config_beats_scenario_hint(self):
        scenario = FAULTY()
        assert scenario.fault_profile == "mixed"
        assert RunSpec.resolve(scenario, FAST).fault_profile == "mixed"
        override = SimulationConfig(fault_profile="deep-fades")
        assert RunSpec.resolve(scenario, override).fault_profile == "deep-fades"
        for off in ("none", ""):
            config = SimulationConfig(fault_profile=off)
            assert RunSpec.resolve(scenario, config).fault_profile is None

    def test_unknown_profile_name_raises(self):
        with pytest.raises(ConfigurationError):
            fault_profile("does-not-exist")

    def test_builtin_profiles_are_registered(self):
        names = available_fault_profiles()
        for name in ("deep-fades", "bursty-loss", "churn", "mixed"):
            assert name in names
            schedule = FaultSchedule.from_profile(
                fault_profile(name), three_pair_scenario(), 0, 1e6
            )
            assert schedule.episodes

    def test_trace_episodes_are_appended(self, tmp_path):
        trace = tmp_path / "loss.json"
        trace.write_text(
            json.dumps([{"start_us": 100.0, "duration_us": 500.0, "loss_rate": 0.5}])
        )
        config = SimulationConfig(
            duration_us=10_000.0, fault_profile="none", fault_trace=str(trace)
        )
        schedule = build_fault_schedule(three_pair_scenario(), config, 0)
        assert schedule is not None
        assert schedule.losses == [LossEpisode(100.0, 500.0, 0.5)]


class TestFaultedDeterminism:
    def test_same_seed_is_bit_identical(self):
        first = run_simulation(FAULTY(), "n+", seed=7, config=FAST)
        second = run_simulation(FAULTY(), "n+", seed=7, config=FAST)
        assert first.to_dict() == second.to_dict()

    def test_faults_change_the_metrics(self):
        """Sanity: the mixed profile actually does something."""
        long = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)
        off = SimulationConfig(
            duration_us=20_000.0, n_subcarriers=8, fault_profile="none"
        )
        faulty = run_simulation(FAULTY(), "n+", seed=7, config=long)
        clean = run_simulation(FAULTY(), "n+", seed=7, config=off)
        assert faulty.to_dict() != clean.to_dict()

    def test_pipelines_agree_under_faults(self, monkeypatch):
        batched = run_simulation(FAULTY(), "n+", seed=3, config=FAST)
        monkeypatch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)
        per_agent = run_simulation(FAULTY(), "n+", seed=3, config=FAST)
        assert batched.to_dict() == per_agent.to_dict()

    def test_schedule_is_a_pure_function_of_the_seed(self):
        profile = fault_profile("mixed")
        scenario = FAULTY()
        a = FaultSchedule.from_profile(profile, scenario, 5, 50_000.0)
        b = FaultSchedule.from_profile(profile, scenario, 5, 50_000.0)
        c = FaultSchedule.from_profile(profile, scenario, 6, 50_000.0)
        assert a.episodes == b.episodes
        assert a.episodes != c.episodes
        assert a.episodes  # mixed at 50 ms on 20 stations generates episodes

    def test_condensed_reference_refuses_faults(self):
        with pytest.raises(ConfigurationError, match="fault injection"):
            run_simulation_condensed_reference(FAULTY(), "n+", seed=1, config=FAST)

    def test_condensed_reference_runs_with_faults_disabled(self):
        config = SimulationConfig(
            duration_us=10_000.0, n_subcarriers=8, fault_profile="none"
        )
        metrics = run_simulation_condensed_reference(FAULTY(), "n+", seed=1, config=config)
        assert metrics.to_dict() == (
            run_simulation(FAULTY(), "n+", seed=1, config=config).to_dict()
        )


class TestEpochInvalidation:
    """Exact invalidation: a fade re-measures its link, nothing else."""

    def test_plan_cache_is_transparent_under_faults(self):
        """The property test of the epoch-keyed caches: cached and
        uncached faulted runs are bit-identical, i.e. every served
        cache entry equals a cold recompute."""
        cached = run_simulation(FAULTY(), "n+", seed=9, config=FAST, plan_cache=True)
        cold = run_simulation(FAULTY(), "n+", seed=9, config=FAST, plan_cache=False)
        assert cached.to_dict() == cold.to_dict()

    def test_bump_evicts_only_the_bumped_link(self):
        network = _network()
        faded = network.estimated_channel(0, 3)
        kept = network.estimated_channel(2, 5)
        reverse_kept = network.estimated_channel(5, 2, reciprocity=True)
        network.fade_link(0, 3, depth_db=20.0)
        # the bumped link re-measures (new noise draw on a new channel)...
        assert not np.array_equal(network.estimated_channel(0, 3), faded)
        # ...while every other memo entry survives as the same object.
        assert network.estimated_channel(2, 5) is kept
        assert network.estimated_channel(5, 2, reciprocity=True) is reverse_kept

    def test_epoch_signature_fast_path_and_scoping(self):
        network = _network()
        assert network.epoch_signature([0, 3, 5]) == ()
        network.fade_link(0, 3, depth_db=10.0)
        assert network.link_epochs[(0, 3)] == 1
        assert list(network.link_epochs) == [(0, 3)]  # canonical pair
        assert network.epoch_signature([0, 3]) == (((0, 3), 1),)
        # links outside the node set do not leak into the signature
        assert network.epoch_signature([2, 5]) == ()
        network.fade_link(0, 3, depth_db=5.0)
        assert network.epoch_signature([0, 3, 5]) == (((0, 3), 2),)

    def test_fade_and_restore_are_bit_exact(self):
        network = _network()
        before = network.true_channel(0, 3).copy()
        before_rev = network.true_channel(3, 0).copy()
        snr_before = network.channels.snr_db(0, 3)
        response, snr = network.snapshot_link(0, 3)
        network.fade_link(0, 3, depth_db=20.0)
        scale = 10.0 ** (-20.0 / 20.0)
        assert np.allclose(network.true_channel(0, 3), before * scale)
        # reciprocity: the reverse direction fades with it
        assert np.allclose(network.true_channel(3, 0), before_rev * scale)
        assert network.channels.snr_db(0, 3) == pytest.approx(snr_before - 20.0)
        network.restore_link(0, 3, response, snr)
        assert np.array_equal(network.true_channel(0, 3), before)
        assert np.array_equal(network.true_channel(3, 0), before_rev)
        assert network.channels.snr_db(0, 3) == snr_before
        assert network.link_epochs[(0, 3)] == 2  # fade + restore


class TestChannelBankKernels:
    def test_scale_links_is_in_place_and_grouped(self):
        network = _network()
        bank = network.channels
        links = [(0, 3), (2, 5)]
        before = [bank.channel(*link).copy() for link in links]
        snrs = [bank.snr_db(*link) for link in links]
        bank.scale_links(links, 0.5, snr_delta_db=-6.0)
        for link, old, snr in zip(links, before, snrs):
            assert np.array_equal(bank.channel(*link), old * 0.5)
            assert bank.snr_db(*link) == pytest.approx(snr - 6.0)

    def test_update_links_handles_the_reciprocal_direction(self):
        """An update addressed via the non-canonical direction is
        transposed into the stored orientation."""
        network = _network()
        bank = network.channels
        _, _, transposed = bank.lookup(3, 0)
        assert transposed  # (0, 3) is stored; (3, 0) is the view
        response = bank.channel(3, 0) * 2.0
        bank.update_links([(3, 0, response, 1.5)])
        assert np.array_equal(bank.channel(3, 0), response)
        assert np.array_equal(bank.channel(0, 3), response.transpose(0, 2, 1))
        assert bank.snr_db(0, 3) == 1.5

    def test_update_links_rejects_a_shape_mismatch(self):
        network = _network()
        bank = network.channels
        with pytest.raises(DimensionError):
            bank.update_links([(0, 3, np.zeros((8, 9, 9), dtype=complex), 0.0)])

    def test_kernels_keep_the_stacks_read_only(self):
        network = _network()
        bank = network.channels
        view = bank.channel(0, 3)
        bank.scale_links([(0, 3)], 0.5)
        snapshot = bank.snapshot_links([(0, 3)])
        bank.update_links([(0, 3, snapshot[0][0], snapshot[0][1])])
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0 + 0.0j

    def test_snapshot_update_round_trip_is_bit_exact(self):
        network = _network()
        bank = network.channels
        links = [(0, 3), (2, 5)]
        before = [bank.channel(*link).copy() for link in links]
        snapshots = bank.snapshot_links(links)
        bank.scale_links(links, 0.25, snr_delta_db=-12.0)
        bank.update_links(
            [(tx, rx, resp, snr) for (tx, rx), (resp, snr) in zip(links, snapshots)]
        )
        for link, old in zip(links, before):
            assert np.array_equal(bank.channel(*link), old)


class TestScheduleGenerators:
    def test_loss_generator_is_deterministic(self):
        a = list(loss_episode_generator(3, 100_000.0, 50.0))
        b = list(loss_episode_generator(3, 100_000.0, 50.0))
        c = list(loss_episode_generator(4, 100_000.0, 50.0))
        assert a == b
        assert a != c
        assert a  # 50 episodes/s over 100 ms: effectively never empty

    def test_loss_generator_episodes_are_in_window_and_bounded(self):
        for start, duration, rate in loss_episode_generator(
            9, 50_000.0, 80.0, (500.0, 2_000.0), (0.2, 0.9)
        ):
            assert 0.0 <= start < 50_000.0
            assert 500.0 <= duration <= 2_000.0
            assert 0.2 <= rate <= 0.9

    def test_per_entity_episodes_never_overlap(self):
        """The renewal process draws the next gap from the episode end."""
        profile = FaultProfile(fade_rate_per_s=200.0, fade_duration_us=(500.0, 3_000.0))
        schedule = FaultSchedule.from_profile(
            profile, three_pair_scenario(), 1, 100_000.0
        )
        by_link = {}
        for episode in schedule.episodes:
            by_link.setdefault((episode.tx_id, episode.rx_id), []).append(episode)
        assert by_link
        for episodes in by_link.values():
            episodes.sort(key=lambda e: e.start_us)
            for prev, cur in zip(episodes, episodes[1:]):
                assert cur.start_us >= prev.end_us

    def test_zero_rate_generates_nothing(self):
        assert list(loss_episode_generator(0, 100_000.0, 0.0)) == []
        schedule = FaultSchedule.from_profile(
            FaultProfile(), three_pair_scenario(), 0, 100_000.0
        )
        assert schedule.empty


class TestTraces:
    def test_json_trace_round_trip(self, tmp_path):
        episodes = [
            {"start_us": 0.0, "duration_us": 100.0, "loss_rate": 0.25},
            {"start_us": 50.0, "duration_us": 10.0, "loss_rate": 1.0, "tx_id": 0, "rx_id": 3},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(episodes))
        schedule = read_trace(path)[1]
        assert schedule.losses == [
            LossEpisode(0.0, 100.0, 0.25),
            LossEpisode(50.0, 10.0, 1.0, tx_id=0, rx_id=3),
        ]

    def test_json_trace_accepts_the_wrapped_form(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps({"episodes": [{"start_us": 1.0, "duration_us": 2.0, "loss_rate": 0.5}]})
        )
        assert read_trace(path)[1].losses == [LossEpisode(1.0, 2.0, 0.5)]

    def test_csv_trace_skips_header_and_comments(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# LinkGuardian-style loss trace\n"
            "start_us,duration_us,loss_rate,tx_id,rx_id\n"
            "100.0,50.0,0.3,,\n"
            "200.0,25.0,0.8,1,4\n"
        )
        schedule = read_trace(path)[1]
        assert schedule.losses == [
            LossEpisode(100.0, 50.0, 0.3),
            LossEpisode(200.0, 25.0, 0.8, tx_id=1, rx_id=4),
        ]

    def test_invalid_traces_are_rejected(self, tmp_path):
        bad_duration = tmp_path / "bad1.csv"
        bad_duration.write_text("10.0,0.0,0.5\n")
        with pytest.raises(ConfigurationError):
            read_trace(bad_duration)
        bad_rate = tmp_path / "bad2.csv"
        bad_rate.write_text("10.0,5.0,1.5\n")
        with pytest.raises(ConfigurationError):
            read_trace(bad_rate)
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "missing.csv")


class TestInjector:
    def test_fades_apply_and_finalize_restores(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 4, FAST)
        before = network.true_channel(0, 1).copy()
        schedule = FaultSchedule(
            [FadeEpisode(start_us=100.0, duration_us=2_000.0, tx_id=0, rx_id=1, depth_db=20.0)]
        )
        injector = FaultInjector(schedule, network, seed=4)
        injector.advance(50.0)
        assert np.array_equal(network.true_channel(0, 1), before)
        injector.advance(150.0)
        assert injector.fades_applied == 1
        assert not np.array_equal(network.true_channel(0, 1), before)
        # the run ends mid-fade: finalize restores the shared network
        injector.finalize()
        assert np.array_equal(network.true_channel(0, 1), before)

    def test_expiry_restores_bit_exactly(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 4, FAST)
        before = network.true_channel(0, 1).copy()
        schedule = FaultSchedule(
            [FadeEpisode(start_us=100.0, duration_us=200.0, tx_id=0, rx_id=1, depth_db=17.0)]
        )
        injector = FaultInjector(schedule, network, seed=4)
        injector.advance(400.0)  # start and end both applied, in order
        assert np.array_equal(network.true_channel(0, 1), before)
        assert network.link_epochs[(0, 1)] == 2

    def test_churn_marks_nodes_away(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 4, FAST)
        schedule = FaultSchedule([ChurnEpisode(start_us=10.0, duration_us=100.0, node_id=2)])
        injector = FaultInjector(schedule, network, seed=0)
        assert 2 not in injector._away
        injector.advance(20.0)
        assert 2 in injector._away
        assert 0 not in injector._away
        injector.advance(200.0)
        assert 2 not in injector._away

    def test_next_boundary_us(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 4, FAST)
        schedule = FaultSchedule([ChurnEpisode(start_us=500.0, duration_us=100.0, node_id=2)])
        injector = FaultInjector(schedule, network, seed=0)
        assert injector.next_boundary_us(0.0) == 500.0
        injector.advance(510.0)
        assert injector.next_boundary_us(510.0) == 600.0
        injector.advance(700.0)
        assert injector.next_boundary_us(700.0) == float("inf")

    def test_loss_rate_combines_overlapping_episodes(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 4, FAST)
        schedule = FaultSchedule(
            [
                LossEpisode(0.0, 1_000.0, 0.5),
                LossEpisode(500.0, 1_000.0, 0.5),
                LossEpisode(0.0, 1_000.0, 0.9, tx_id=0, rx_id=1),
            ]
        )
        injector = FaultInjector(schedule, network, seed=0)
        # only the first network-wide episode overlaps [0, 400]
        assert injector.loss_rate(2, 3, 0.0, 400.0) == pytest.approx(0.5)
        # both network-wide episodes overlap [600, 900]
        assert injector.loss_rate(2, 3, 600.0, 900.0) == pytest.approx(0.75)
        # the scoped episode only hits its own link
        assert injector.loss_rate(0, 1, 0.0, 400.0) == pytest.approx(1 - 0.5 * 0.1)
        # outside every window
        assert injector.loss_rate(2, 3, 2_000.0, 2_100.0) == 0.0


class TestFaultyScenarios:
    def test_faulty_variants_are_registered(self):
        for name in ("dense-lan-20-faulty", "dense-lan-50-faulty", "dense-lan-100-faulty"):
            scenario = scenario_factory(name)()
            assert scenario.fault_profile == "mixed"
            assert scenario.packet_rate_pps and scenario.packet_rate_pps > 0

    def test_dense_lan_scenario_accepts_a_profile(self):
        scenario = dense_lan_scenario(n_pairs=2, seed=1, fault_profile="deep-fades")
        assert scenario.fault_profile == "deep-fades"

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_faulty_smoke(self, protocol):
        """Tier-1 smoke: every protocol survives the mixed profile."""
        config = SimulationConfig(duration_us=5_000.0, n_subcarriers=8)
        metrics = run_simulation(FAULTY(), protocol, seed=1, config=config)
        assert metrics.elapsed_us > 0
        assert all(link.packets_dropped >= 0 for link in metrics.links.values())


class TestGoldenFaultedSnapshot:
    """Seeded end-to-end snapshot of one faulty scenario.

    Pins the faulted metrics of ``dense-lan-20-faulty`` under n+ for one
    seed.  Any change to the fault streams, the episode application
    order, the epoch-keyed caches or the retransmission accounting moves
    these numbers -- an intentional change must update them alongside a
    ``CACHE_SCHEMA_VERSION`` bump in :mod:`repro.sim.sweep`.
    """

    CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)

    def test_golden_metrics(self):
        metrics = run_simulation(FAULTY(), "n+", seed=7, config=self.CONFIG)
        assert metrics.elapsed_us == GOLDEN_ELAPSED_US
        assert metrics.total_throughput_mbps() == GOLDEN_TOTAL_MBPS
        assert metrics.per_link_throughputs() == GOLDEN_LINK_MBPS


# Golden values, regenerated by running TestGoldenFaultedSnapshot.CONFIG
# through run_simulation (see the class docstring before changing them).
GOLDEN_ELAPSED_US = 21972.0
GOLDEN_TOTAL_MBPS = 3.8492626979792464
GOLDEN_LINK_MBPS = {
    "tx1->rx1": 1.6384489350081923,
    "tx2->rx2": 0.0,
    "tx3->rx3": 0.0,
    "tx4->rx4": 0.0,
    "tx5->rx5": 0.03932277444019661,
    "tx6->rx6": 0.0,
    "tx7->rx7": 0.5461496450027308,
    "tx8->rx8": 1.0922992900054616,
    "tx9->rx9": 0.0,
    "tx10->rx10": 0.5330420535226652,
}


class TestTraceValidation:
    """Malformed traces raise ConfigurationError (a ValueError) naming
    the offending row and field -- never a raw KeyError/TypeError."""

    def test_configuration_error_is_a_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_json_trace_missing_field_names_row_and_field(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([
            {"start_us": 0.0, "duration_us": 10.0, "loss_rate": 0.5},
            {"start_us": 5.0, "loss_rate": 0.5},
        ]))
        with pytest.raises(ConfigurationError, match=r"episode 1.*duration_us"):
            read_trace(path)

    def test_json_trace_non_numeric_field_names_row_and_field(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(
            [{"start_us": "soon", "duration_us": 10.0, "loss_rate": 0.5}]
        ))
        with pytest.raises(ConfigurationError, match=r"episode 0.*start_us.*'soon'"):
            read_trace(path)

    def test_json_trace_non_integer_node_id_is_rejected(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([
            {"start_us": 0.0, "duration_us": 10.0, "loss_rate": 0.5,
             "tx_id": "ap", "rx_id": 1},
        ]))
        with pytest.raises(ConfigurationError, match=r"tx_id.*must be an integer"):
            read_trace(path)

    def test_json_trace_rejects_invalid_json_and_shapes(self, tmp_path):
        invalid = tmp_path / "bad.json"
        invalid.write_text("{ not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_trace(invalid)
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        with pytest.raises(ConfigurationError, match="must be a JSON list"):
            read_trace(scalar)
        entries = tmp_path / "entries.json"
        entries.write_text(json.dumps([["positional", "row"]]))
        with pytest.raises(ConfigurationError, match=r"episode 0.*expected an\s+object"):
            read_trace(entries)

    def test_csv_trace_short_row_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("start_us,duration_us,loss_rate\n100.0,50.0\n")
        with pytest.raises(ConfigurationError, match=r"line 2.*at least\s+3 fields"):
            read_trace(path)

    @pytest.mark.parametrize(
        "row, field",
        [("0,nan,0.5", "duration_us"), ("nan,1000,0.5", "start_us"),
         ("0,inf,0.5", "duration_us")],
    )
    def test_csv_trace_non_finite_time_names_line_and_field(self, tmp_path, row, field):
        path = tmp_path / "trace.csv"
        path.write_text(f"start_us,duration_us,loss_rate\n{row}\n")
        with pytest.raises(ConfigurationError, match=rf"line 2.*{field}.*finite"):
            read_trace(path)

    @pytest.mark.parametrize(
        "episode, field",
        [({"start_us": 0.0, "duration_us": float("nan"), "loss_rate": 0.5}, "duration_us"),
         ({"start_us": float("nan"), "duration_us": 1e3, "loss_rate": 0.5}, "start_us"),
         ({"start_us": 0.0, "duration_us": float("inf"), "loss_rate": 0.5}, "duration_us")],
    )
    def test_json_trace_non_finite_time_names_episode_and_field(
        self, tmp_path, episode, field
    ):
        path = tmp_path / "trace.json"
        # json.dumps writes NaN/Infinity, which json.loads accepts.
        path.write_text(json.dumps([{"start_us": 0.0, "duration_us": 10.0, "loss_rate": 0.1},
                                    episode]))
        with pytest.raises(ConfigurationError, match=rf"episode 1.*{field}.*finite"):
            read_trace(path)

    def test_csv_trace_rejects_unparseable_row_after_the_first(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("start_us,duration_us,loss_rate\n100,50,0.3\nl00,50,0.9\n")
        with pytest.raises(ConfigurationError, match=r"line 3.*start_us.*'l00'"):
            read_trace(path)

    def test_csv_trace_bad_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("100.0,fifty,0.3\n")
        with pytest.raises(
            ConfigurationError, match=r"line 1.*duration_us.*'fifty'"
        ):
            read_trace(path)
