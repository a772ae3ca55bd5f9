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
from repro.experiments.fig12_throughput import (
    ThroughputExperiment,
    run_throughput_experiment,
    summarize as s12,
)
from repro.experiments.fig13_heterogeneous import (
    HeterogeneousExperiment,
    run_heterogeneous_experiment,
    summarize as s13,
)
from repro.experiments.handshake_overhead import run_handshake_experiment, summarize as sh
from repro.experiments.report import (
    format_cdf_summary,
    format_table,
    per_run_ratios,
    percentile_row,
)
from repro.sim.runner import SimulationConfig


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
            per_pair={
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
        experiment = HeterogeneousExperiment(
            totals={"802.11n": [0.0, 2.0], "beamforming": [1.0, 1.0], "n+": [3.0, 3.0]},
            per_flow={protocol: {} for protocol in protocols},
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

    def test_batched_subspaces_match_reference(self):
        """The one-shot batched SVD equals the per-subcarrier loop."""
        from repro.channel.testbed import default_testbed
        from oracles.mimo import alignment_subspaces_reference
        from repro.utils.linalg import orthonormal_complement_batch

        rng = np.random.default_rng(3)
        testbed = default_testbed()
        a, b = testbed.place_nodes(2, rng)
        link = testbed.link(a, b, n_tx=1, n_rx=2, rng=rng)
        response = link.frequency_response(64)
        reference = alignment_subspaces_reference(response)
        batched, _ = orthonormal_complement_batch(response, 1)
        np.testing.assert_allclose(batched, reference, atol=1e-12)
