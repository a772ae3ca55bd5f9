"""Tests for the figure-reproduction experiments (small configurations).

These tests assert the *shape* of each result -- the qualitative claims
the paper makes -- using run sizes small enough for a unit-test suite.
The full-size sweeps live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.experiments.fig9_carrier_sense import run_carrier_sense_experiment, summarize as s9
from repro.experiments.fig11_nulling_alignment import (
    run_alignment_experiment,
    run_nulling_experiment,
    summarize as s11,
)
from repro.experiments.fig12_throughput import run_throughput_experiment, summarize as s12
from repro.experiments.fig13_heterogeneous import run_heterogeneous_experiment, summarize as s13
from oracles.channel import draw_link_reference
from repro.channel.testbed import default_testbed, dense_testbed
from repro.exceptions import ConfigurationError
from repro.experiments.handshake_overhead import (
    _draw_link_responses,
    run_handshake_experiment,
    summarize as sh,
)
from repro.experiments.report import (
    ThroughputExperiment,
    format_cdf_summary,
    format_table,
    per_run_ratios,
    percentile_row,
)
from repro.sim.runner import SimulationConfig
from repro.sim.sweep import run_sweep
from repro.sim.scenarios import heterogeneous_ap_scenario, three_pair_scenario


class TestReportHelpers:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_percentile_row(self):
        row = percentile_row(list(range(101)))
        assert row[2] == pytest.approx(50.0)

    def test_cdf_summary_contains_median(self):
        text = format_cdf_summary("x", [1.0, 2.0, 3.0])
        assert "median=2.0" in text


class TestRunRatios:
    def test_zero_baseline_runs_are_dropped_and_counted(self):
        gain = per_run_ratios([2.0, 3.0, 5.0], [1.0, 0.0, 2.0])
        assert gain.ratios == [2.0, 2.5]
        assert gain.dropped == 1
        assert gain.mean == pytest.approx(2.25)
        assert gain.dropped_note() == "1 of 3 runs dropped"

    def test_all_runs_dropped_has_no_mean(self):
        gain = per_run_ratios([1.0], [0.0])
        assert gain.ratios == [] and np.isnan(gain.mean)
        assert gain.dropped_note() == "1 of 1 runs dropped"

    def test_fig12_summary_counts_a_zero_baseline_run(self):
        experiment = ThroughputExperiment(
            totals={"802.11n": [1.0, 2.0], "n+": [2.0, 4.0]},
            per_link={
                "802.11n": {"tx1->rx1": [1.0, 0.0]},
                "n+": {"tx1->rx1": [1.5, 0.5]},
            },
        )
        assert experiment.gain_over("802.11n").mean == pytest.approx(2.0)
        assert experiment.gain_over("802.11n", "tx1->rx1").mean == pytest.approx(1.5)
        summary = s12(experiment)
        assert "mean of per-run ratios" in summary
        assert "1 of 2 runs dropped" in summary
        assert "0 of 2 runs dropped" in summary

    def test_fig13_summary_counts_a_zero_baseline_run(self):
        protocols = ("802.11n", "beamforming", "n+")
        experiment = ThroughputExperiment(
            totals={"802.11n": [0.0, 2.0], "beamforming": [1.0, 1.0], "n+": [3.0, 3.0]},
            per_link={protocol: {} for protocol in protocols},
        )
        assert experiment.gain_over("802.11n").mean == pytest.approx(1.5)
        assert experiment.gain_over("802.11n").dropped == 1
        summary = s13(experiment)
        assert "mean of per-run ratios" in summary
        assert "1 of 2 runs dropped" in summary


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_carrier_sense_experiment(n_trials=8, seed=1)

    def test_projection_reveals_the_hidden_transmission(self, result):
        assert result.power_jump_db_with_projection > result.power_jump_db_without_projection + 3.0

    def test_raw_power_jump_is_small(self, result):
        assert abs(result.power_jump_db_without_projection) < 3.0

    def test_projection_improves_correlation_distinguishability(self, result):
        assert (
            result.nondistinguishable_fraction_projected
            <= result.nondistinguishable_fraction_raw
        )

    def test_projected_correlations_separate_cleanly(self, result):
        assert result.nondistinguishable_fraction_projected < 0.25

    def test_summary_renders(self, result):
        assert "power jump" in s9(result)


class TestFig11:
    @pytest.fixture(scope="class")
    def nulling(self):
        return run_nulling_experiment(n_trials=250, seed=2)

    @pytest.fixture(scope="class")
    def alignment(self):
        return run_alignment_experiment(n_trials=250, seed=3)

    def test_reductions_are_losses(self, nulling):
        for values in nulling.reductions_db.values():
            assert all(value <= 0.5 for value in values)

    def test_loss_grows_with_interferer_snr(self, nulling):
        low = [v for (u, _), vs in nulling.reductions_db.items() if u == 0 for v in vs]
        high = [v for (u, _), vs in nulling.reductions_db.items() if u == 4 for v in vs]
        assert np.mean(high) < np.mean(low)

    def test_average_loss_below_threshold_is_small(self, nulling, alignment):
        assert -2.0 < nulling.average_reduction_below_threshold_db < 0.0
        assert -2.5 < alignment.average_reduction_below_threshold_db < 0.0

    def test_alignment_loses_more_than_nulling(self, nulling, alignment):
        assert (
            alignment.average_reduction_below_threshold_db
            <= nulling.average_reduction_below_threshold_db + 0.1
        )

    def test_summary_renders(self, nulling):
        text = s11(nulling)
        assert "nulling" in text and "unwanted SNR bin" in text


class TestFig12AndFig13:
    @pytest.fixture(scope="class")
    def fig12(self):
        config = SimulationConfig(duration_us=30_000.0, n_subcarriers=8)
        return run_throughput_experiment(n_runs=3, seed=5, config=config)

    @pytest.fixture(scope="class")
    def fig13(self):
        config = SimulationConfig(duration_us=30_000.0, n_subcarriers=8)
        return run_heterogeneous_experiment(n_runs=3, seed=6, config=config)

    def test_fig12_nplus_improves_total_throughput(self, fig12):
        assert np.mean(fig12.totals["n+"]) > np.mean(fig12.totals["802.11n"])

    def test_fig12_multi_antenna_pairs_gain_most(self, fig12):
        gains = {pair: fig12.gain_over("802.11n", pair).mean for pair in ("tx1->rx1", "tx3->rx3")}
        assert gains["tx3->rx3"] > gains["tx1->rx1"]

    def test_fig12_summary_contains_gain_table(self, fig12):
        assert "throughput gain" in s12(fig12)

    def test_fig13_ordering(self, fig13):
        assert fig13.gain_over("802.11n").mean > 1.0
        assert fig13.gain_over("beamforming").mean > 0.9

    def test_fig13_ap_flows_gain(self, fig13):
        assert fig13.gain_over("802.11n", "AP2->c2+c3").mean > 1.2

    def test_fig13_summary_renders(self, fig13):
        assert "Fig. 13(a)" in s13(fig13)

    def test_both_figures_return_the_shared_result(self, fig12, fig13):
        assert type(fig12) is type(fig13) is ThroughputExperiment
        assert list(fig12.totals) == list(fig12.per_link) == ["802.11n", "n+"]
        assert list(fig13.totals) == list(fig13.per_link) == ["802.11n", "beamforming", "n+"]
        assert fig12.link_names() == ["tx1->rx1", "tx2->rx2", "tx3->rx3"]
        assert fig13.link_names() == ["c1->AP1", "AP2->c2+c3"]


def test_throughput_results_read_every_protocol_and_link_of_a_sweep():
    config = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
    sweep = run_sweep("two-pair", ["csma", "n+"], n_runs=2, seed=3, config=config)
    experiment = ThroughputExperiment.from_sweep(sweep)
    assert list(experiment.totals) == list(sweep.results)
    for protocol, runs in sweep.results.items():
        assert experiment.totals[protocol] == [m.total_throughput_mbps() for m in runs]
        assert experiment.per_link[protocol] == {
            name: [m.throughput_mbps(name) for m in runs] for name in sweep.link_names()
        }


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("floor", ["default", "dense"])
def test_handshake_link_draws_match_the_one_link_oracle(floor, seed):
    """The handshake experiment's stacked link draw is bit-identical to
    drawing each link alone -- placements, shadowing, coin, taps, then
    its 64-point response -- down to the post-draw generator state."""
    testbed = default_testbed() if floor == "default" else dense_testbed(64)
    rng = np.random.default_rng(seed)
    responses = _draw_link_responses(testbed, 40, rng)
    rng_oracle = np.random.default_rng(seed)
    expected = []
    for _ in range(40):
        a, b = testbed.place_nodes(2, rng_oracle)
        _, channel = draw_link_reference(testbed, a, b, n_tx=1, n_rx=2, rng=rng_oracle)
        expected.append(channel.frequency_response(64))
    assert responses.shape == (40, 64, 2, 1)
    assert np.array_equal(responses, np.stack(expected))
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


@pytest.mark.parametrize("experiment", [run_throughput_experiment, run_heterogeneous_experiment])
def test_figure_sweeps_raise_on_a_failed_cell(monkeypatch, experiment):
    """A figure averages complete, paired runs: a crashed cell names
    itself in a SimulationError instead of reaching the averaging as
    ``None``."""
    from repro.exceptions import SimulationError
    from repro.sim import runner, sweep
    from repro.sim.spec import placement_seed

    crash_seed = placement_seed(2, 1)

    def crashing(scenario, run_seed, config):
        if run_seed == crash_seed:
            raise RuntimeError("planted build crash")
        return runner.build_network(scenario, run_seed, config)

    monkeypatch.setattr(sweep, "build_network", crashing)
    config = SimulationConfig(duration_us=2_000.0, n_subcarriers=4)
    with pytest.raises(SimulationError, match=rf"run 1, run_seed {crash_seed}\b"):
        experiment(n_runs=2, seed=2, config=config)


@pytest.mark.parametrize(
    "experiment, factory",
    [
        (run_throughput_experiment, three_pair_scenario),
        (run_heterogeneous_experiment, heterogeneous_ap_scenario),
    ],
)
def test_figure_sweeps_take_a_registered_name_only(tmp_path, experiment, factory):
    config = SimulationConfig(duration_us=2_000.0, n_subcarriers=4)
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        experiment(n_runs=1, config=config, scenario=factory, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestHandshakeOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run_handshake_experiment(n_channels=15, seed=7)

    def test_feedback_fits_in_a_few_symbols(self, result):
        assert 1.0 <= result.mean_feedback_symbols <= 4.5

    def test_overhead_is_a_few_percent(self, result):
        assert 0.01 < result.overhead_fraction < 0.12

    def test_summary_renders(self, result):
        assert "overhead" in sh(result)

    @pytest.mark.parametrize("n_channels", [0, -1])
    def test_no_channels_is_refused(self, n_channels):
        with pytest.raises(ConfigurationError, match="at least one channel"):
            run_handshake_experiment(n_channels=n_channels)

    def test_batched_subspaces_match_reference(self):
        """The one-shot batched SVD equals the per-subcarrier loop."""
        from oracles.mimo import alignment_subspaces_reference
        from repro.utils.linalg import orthonormal_complement_batch

        response = _draw_link_responses(default_testbed(), 1, np.random.default_rng(3))[0]
        reference = alignment_subspaces_reference(response)
        batched, _ = orthonormal_complement_batch(response, 1)
        np.testing.assert_allclose(batched, reference, atol=1e-12)
