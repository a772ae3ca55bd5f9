"""The two-fidelity PHY layer (repro.sim.fidelity).

Four contracts under test:

* ``fidelity="abstraction"`` (the default) is a strict no-op -- existing
  golden seeded metrics are reproduced bit-for-bit;
* ``fidelity="auto"``/``"full"`` results are a pure function of the seed
  across round loops, plan-cache settings and sweep worker counts, with
  escalated verdicts memoized per (link epoch, stream signature);
* the cross-fidelity validation harness agrees with the abstraction
  outside the uncertainty band at a pinned rate (and its disagreements
  inside the band are what justify the band);
* the fidelity knobs are part of both sweep digests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles.runner import (
    PerAgentLoop,
    RecomputingPlanCache,
    run_simulation_condensed_reference,
)
from repro.exceptions import ConfigurationError
from repro.sim.fidelity import (
    DEFAULT_BAND_DB,
    DEFAULT_PROBE_BITS,
    FidelityEngine,
    _link_precoders,
    cross_validate_links,
    phy_stream_rng,
    simulate_probe_delivery,
)
from repro.phy.channel_est import ChannelEstimate
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.phy.transceiver import MimoReceiver, MimoTransmitter, StreamConfig
from repro.sim.medium import ScheduledStream
from repro.sim.network import _subcarrier_bins
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim import runner
from repro.sim.runner import (
    RunSpec,
    SimulationConfig,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import Scenario, scenario_factory, three_pair_scenario
from repro.sim.sweep import config_digest, run_sweep

AUTO = SimulationConfig(duration_us=30_000.0, n_subcarriers=8, fidelity="auto")


def _dicts(metrics):
    return metrics.to_dict()


class TestResolution:
    def test_default_is_abstraction(self):
        config = SimulationConfig()
        assert config.fidelity is None and config.fidelity_band_db is None
        resolved = RunSpec.resolve(three_pair_scenario(), config)
        assert resolved.fidelity == "abstraction"
        assert resolved.fidelity_band_db == DEFAULT_BAND_DB

    def test_the_config_is_the_only_source(self):
        """A scenario carries no fidelity hint; the config's values resolve
        as they are."""
        names = {f.name for f in dataclasses.fields(Scenario)}
        assert names.isdisjoint({"fidelity", "fidelity_band_db"})
        config = SimulationConfig(fidelity="auto", fidelity_band_db=1.5)
        resolved = RunSpec.resolve(three_pair_scenario(), config)
        assert (resolved.fidelity, resolved.fidelity_band_db) == ("auto", 1.5)

    def test_unknown_fidelity_rejected(self):
        config = SimulationConfig(fidelity="magic")
        with pytest.raises(ConfigurationError):
            RunSpec.resolve(three_pair_scenario(), config)

    def test_condensed_reference_refuses_escalating_configs(self):
        with pytest.raises(ConfigurationError, match="fidelity layer"):
            run_simulation_condensed_reference(
                three_pair_scenario(),
                "n+",
                seed=0,
                config=SimulationConfig(duration_us=5_000.0, fidelity="auto"),
            )


class TestAbstractionBitIdentical:
    """``fidelity="abstraction"`` must not move a single bit."""

    def test_explicit_abstraction_equals_default(self):
        scenario = scenario_factory("three-pair")()
        base = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)
        explicit = dataclasses.replace(base, fidelity="abstraction")
        assert _dicts(
            run_simulation(scenario, "n+", seed=3, config=base)
        ) == _dicts(run_simulation(scenario, "n+", seed=3, config=explicit))

    def test_existing_golden_snapshot_unchanged(self):
        # The same seeded numbers test_grouped_draws.py pins for the
        # pre-fidelity default -- an explicit "abstraction" run must
        # reproduce them exactly.
        config = SimulationConfig(
            duration_us=20_000.0, n_subcarriers=8, fidelity="abstraction"
        )
        scenario = dataclasses.replace(three_pair_scenario(), channel_draws="grouped")
        metrics = run_simulation(scenario, "n+", seed=42, config=config)
        assert metrics.elapsed_us == pytest.approx(20574.0, rel=1e-9)
        assert metrics.total_throughput_mbps() == pytest.approx(
            29.138524351122776, rel=1e-6
        )


class TestAutoGoldenSnapshot:
    """Seeded ``fidelity="auto"`` results, frozen.

    A change here means the escalation classification, the probe chain or
    the PHY stream seeding drifted -- which is only legitimate alongside a
    CACHE_SCHEMA_VERSION bump and a refreshed snapshot.
    """

    def test_dense_lan_20_bursty_auto_snapshot(self):
        scenario = scenario_factory("dense-lan-20-bursty")()
        metrics = run_simulation(scenario, "n+", seed=7, config=AUTO)
        assert metrics.elapsed_us == pytest.approx(30671.0, rel=1e-9)
        assert metrics.total_throughput_mbps() == pytest.approx(
            3.529849043070001, rel=1e-6
        )
        links = metrics.to_dict()["links"]
        assert links["tx1->rx1"]["delivered_bits"] == 24000
        assert links["tx1->rx1"]["packets_failed"] == 3
        assert links["tx8->rx8"]["delivered_bits"] == 41040
        assert links["tx9->rx9"]["delivered_bits"] == 0

    def test_auto_differs_from_abstraction(self):
        # The override actually changes outcomes for this seed -- the
        # fidelity layer is not a silent no-op under "auto".
        scenario = scenario_factory("dense-lan-20-bursty")()
        abstraction = dataclasses.replace(AUTO, fidelity="abstraction")
        assert _dicts(
            run_simulation(scenario, "n+", seed=7, config=AUTO)
        ) != _dicts(run_simulation(scenario, "n+", seed=7, config=abstraction))


class TestAutoDeterminism:
    """Escalated verdicts are a pure function of the seed."""

    def test_pipelines_and_plan_cache_bit_identical(self, monkeypatch):
        scenario = scenario_factory("dense-lan-20-bursty")()

        def run(plan_cache=runner.PlanCache):
            with monkeypatch.context() as patch:
                patch.setattr(runner, "PlanCache", plan_cache)
                return _dicts(run_simulation(scenario, "n+", seed=7, config=AUTO))

        reference = run()
        off = run(RecomputingPlanCache)
        assert off == reference
        monkeypatch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)
        for plan_cache in (runner.PlanCache, RecomputingPlanCache):
            assert run(plan_cache) == reference, plan_cache

    def test_sweep_workers_bit_identical(self):
        config = SimulationConfig(
            duration_us=15_000.0, n_subcarriers=8, fidelity="auto"
        )
        serial = run_sweep(
            "dense-lan-20-bursty", ["n+"], n_runs=2, seed=5, config=config, workers=1
        )
        parallel = run_sweep(
            "dense-lan-20-bursty", ["n+"], n_runs=2, seed=5, config=config, workers=2
        )
        assert [
            m.to_dict() for m in serial.results["n+"]
        ] == [m.to_dict() for m in parallel.results["n+"]]


def _single_stream(network, tx, rx):
    return ScheduledStream(
        stream_id=0,
        transmitter_id=tx,
        receiver_id=rx,
        precoders=_link_precoders(network, tx, rx),
        power=1.0,
        mcs=MCS_TABLE[0],
        payload_bits=1024,
        start_us=0.0,
        end_us=100.0,
    )


class TestFidelityEngine:
    CONFIG = SimulationConfig(n_subcarriers=8)

    def _engine_and_stream(self, mode="auto", band_db=DEFAULT_BAND_DB, seed=1):
        scenario = three_pair_scenario()
        network = build_network(scenario, seed, self.CONFIG)
        engine = FidelityEngine(network, seed, mode=mode, band_db=band_db)
        pair = scenario.pairs[0]
        stream = _single_stream(
            network, pair.transmitter.node_id, pair.receivers[0].node_id
        )
        snrs = receiver_stream_snrs(
            network, stream.receiver_id, [stream], [stream], rng=None
        )
        return engine, stream, snrs

    def test_classification_uses_the_band(self):
        engine, _, _ = self._engine_and_stream(band_db=3.0)
        mcs = MCS_TABLE[4]
        # Flat channel: esnr == snr, margin = snr - threshold + 2.5.
        at_threshold = np.full(8, mcs.min_esnr_db)
        assert engine.in_band(at_threshold, mcs)  # margin +2.5, inside
        far_above = np.full(8, mcs.min_esnr_db + 10.0)
        assert not engine.in_band(far_above, mcs)  # margin +12.5, outside
        far_below = np.full(8, mcs.min_esnr_db - 10.0)
        assert not engine.in_band(far_below, mcs)

    def test_full_mode_escalates_everything(self):
        engine, stream, snrs = self._engine_and_stream(mode="full")
        verdict = engine.override_verdict(
            stream.transmitter_id, stream.receiver_id, [stream], [stream], snrs
        )
        assert verdict is not None
        assert engine.escalations == 1

    def test_out_of_band_defers_to_the_abstraction(self):
        # A vanishing band means nothing is uncertain: "auto" never
        # escalates and the abstraction's verdict always stands.
        engine, stream, snrs = self._engine_and_stream(band_db=0.0)
        assert (
            engine.override_verdict(
                stream.transmitter_id, stream.receiver_id, [stream], [stream], snrs
            )
            is None
        )
        assert engine.escalations == 0

    def test_escalated_verdict_is_memoized(self):
        engine, stream, snrs = self._engine_and_stream(mode="full")
        args = (stream.transmitter_id, stream.receiver_id, [stream], [stream], snrs)
        first = engine.override_verdict(*args)
        second = engine.override_verdict(*args)
        assert first == second
        assert engine.escalations == 2 and engine.memo_hits == 1
        assert len(engine._memo) == 1

    def test_epoch_bump_invalidates_exactly(self):
        engine, stream, snrs = self._engine_and_stream(mode="full")
        args = (stream.transmitter_id, stream.receiver_id, [stream], [stream], snrs)
        engine.override_verdict(*args)
        engine.network.bump_link_epoch(stream.transmitter_id, stream.receiver_id)
        engine.override_verdict(*args)
        # The bumped epoch changed the key: a fresh entry, no memo hit.
        assert engine.memo_hits == 0
        assert len(engine._memo) == 2

    def test_verdict_is_a_pure_function_of_the_seed(self):
        first, stream, snrs = self._engine_and_stream(mode="full", seed=9)
        again, stream2, snrs2 = self._engine_and_stream(mode="full", seed=9)
        assert first.override_verdict(
            stream.transmitter_id, stream.receiver_id, [stream], [stream], snrs
        ) == again.override_verdict(
            stream2.transmitter_id, stream2.receiver_id, [stream2], [stream2], snrs2
        )

    def test_probe_rng_is_order_independent(self):
        rng_a = phy_stream_rng(3, 0, 1, ("key",))
        rng_b = phy_stream_rng(3, 0, 1, ("key",))
        assert np.array_equal(rng_a.integers(0, 2, 64), rng_b.integers(0, 2, 64))
        assert not np.array_equal(
            phy_stream_rng(3, 0, 1, ("key",)).integers(0, 2, 64),
            phy_stream_rng(3, 0, 1, ("other",)).integers(0, 2, 64),
        )

    def test_abstraction_mode_rejected(self):
        network = build_network(three_pair_scenario(), 1, self.CONFIG)
        with pytest.raises(ConfigurationError):
            FidelityEngine(network, 1, mode="abstraction")


def _full_frame_probe(subcarrier_snrs_db, mcs, rng, noise_power=1.0):
    """The probe chain with the full frame: the pre-coded preamble is built
    and spliced in front of the faded, noisy body."""
    snrs = np.asarray(subcarrier_snrs_db, dtype=float)
    bins = np.asarray(_subcarrier_bins(snrs.size), dtype=float)
    order = np.argsort(bins)
    config = OfdmConfig()
    modem = OfdmModem(config)
    snr_per_bin = np.interp(np.arange(config.fft_size, dtype=float), bins[order], snrs[order])
    amplitude = np.sqrt(np.power(10.0, snr_per_bin / 10.0) * noise_power)
    bits = rng.integers(0, 2, size=DEFAULT_PROBE_BITS, dtype=np.uint8)
    samples, layout = MimoTransmitter(1, config).build_frame(
        [StreamConfig(bits=bits, mcs=mcs, precoder=np.array([1.0 + 0j]))]
    )
    grid = modem.demodulate_grid(samples[0, layout.preamble_length :])
    faded = modem.modulate_grid(grid * amplitude[None, :])
    noise = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal(faded.size) + 1j * rng.standard_normal(faded.size)
    )
    received = np.concatenate([samples[0, : layout.preamble_length], faded + noise])
    estimate = ChannelEstimate(
        matrices=amplitude.astype(complex)[:, None, None],
        valid_bins=np.arange(config.fft_size),
    )
    decoded = MimoReceiver(1, config).decode(
        received.reshape(1, -1), layout, channel_estimate=estimate
    )
    return bool(np.array_equal(decoded[0].bits, bits))


class TestProbeChain:
    def test_probe_cliff(self):
        # Far above the MCS threshold the real chain always delivers;
        # far below it never does -- the calibration the band relies on.
        mcs = MCS_TABLE[4]
        rng = np.random.default_rng(0)
        high = np.full(8, mcs.min_esnr_db + 6.0)
        low = np.full(8, mcs.min_esnr_db - 8.0)
        assert all(simulate_probe_delivery(high, mcs, rng) for _ in range(3))
        assert not any(simulate_probe_delivery(low, mcs, rng) for _ in range(3))

    def test_empty_snrs_never_deliver(self):
        assert not simulate_probe_delivery([], MCS_TABLE[0], np.random.default_rng(0))

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_body_only_probe_matches_the_full_frame_probe(self, mcs):
        # The probe builds no preamble; the full-frame probe (build_frame,
        # preamble spliced back into the received samples) must give the
        # same verdicts and leave the probe generator in the same state.
        snrs = mcs.min_esnr_db + np.array([-8.0, -6.0, -4.0, -2.0, 2.0])[:, None] + np.zeros(8)
        fast_rng = np.random.default_rng((33, mcs.index))
        slow_rng = np.random.default_rng((33, mcs.index))
        fast = [simulate_probe_delivery(row, mcs, fast_rng) for row in snrs]
        slow = [_full_frame_probe(row, mcs, slow_rng) for row in snrs]
        assert fast == slow and True in fast and False in fast
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestCrossValidation:
    """The standing seeded agreement table (ISSUE 7's headline artifact)."""

    #: Agreement outside the band must exceed this rate.  The sampled
    #: seeds below all sit at 1.0; the pin leaves room for float drift
    #: but would catch any real calibration regression.
    PINNED_OUTSIDE_AGREEMENT = 0.9

    def test_three_pair_agreement(self):
        report = cross_validate_links("three-pair", seed=0, n_links=3)
        assert report.checks and report.outside_band
        assert report.agreement_outside_band >= self.PINNED_OUTSIDE_AGREEMENT

    def test_dense_lan_20_agreement_and_band_justification(self):
        report = cross_validate_links("dense-lan-20", seed=0, n_links=6)
        assert report.agreement_outside_band >= self.PINNED_OUTSIDE_AGREEMENT
        # This seed lands links inside the band whose PHY verdict differs
        # from the abstraction's -- the disagreements the band exists to
        # catch.  (Seeded, so this is a stable property, not luck.)
        assert report.inside_band
        assert report.agreement_inside_band < 1.0

    def test_report_is_a_pure_function(self):
        first = cross_validate_links("three-pair", seed=2, n_links=3)
        second = cross_validate_links("three-pair", seed=2, n_links=3)
        assert [dataclasses.asdict(c) for c in first.checks] == [
            dataclasses.asdict(c) for c in second.checks
        ]

    @pytest.mark.parametrize(
        "scenario", [three_pair_scenario, three_pair_scenario()], ids=["factory", "object"]
    )
    def test_a_scenario_that_is_not_a_name_is_refused(self, scenario):
        with pytest.raises(ConfigurationError, match=r"unknown scenario .*'three-pair'"):
            cross_validate_links(scenario, seed=0, n_links=1)

    def test_format_table_mentions_every_check(self):
        report = cross_validate_links("three-pair", seed=0, n_links=2)
        table = report.format_table()
        assert "agreement outside band" in table
        assert len(table.splitlines()) == len(report.checks) + 3

    @pytest.mark.slow
    def test_deep_sweep_agreement(self):
        # The expensive standing sweep: more links, more scenarios.
        for name in ("dense-lan-30", "dense-lan-50"):
            report = cross_validate_links(name, seed=0, n_links=10)
            assert report.agreement_outside_band >= self.PINNED_OUTSIDE_AGREEMENT, (
                name,
                report.format_table(),
            )


class TestDigests:
    def test_config_digest_covers_fidelity_knobs(self):
        def digest(config):
            return config_digest(RunSpec.resolve(three_pair_scenario(), config))

        base = digest(SimulationConfig())
        assert digest(SimulationConfig(fidelity="auto")) != base
        assert digest(SimulationConfig(fidelity_band_db=2.0)) != base
