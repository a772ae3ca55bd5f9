"""Tests for the synthetic testbed."""

import numpy as np
import pytest

from repro.channel import testbed as testbed_module
from repro.channel.multipath import tap_scales, taps_from_normals
from repro.channel.testbed import default_testbed
from repro.exceptions import ConfigurationError
from repro.utils.db import db_to_linear


def _link_scalars(testbed, rng, n_links):
    """``(snr_db, decay_samples)`` of ``n_links`` random links: random
    placements, then one shadowing and one coin block."""
    xy = np.array(testbed.locations)[[testbed.place_nodes(2, rng) for _ in range(n_links)]]
    losses = testbed.path_loss_at_distance(np.hypot(*(xy[:, 0] - xy[:, 1]).T))
    return testbed.link_scalars_batch(
        losses, rng.standard_normal(n_links), rng.random(n_links)
    )


class TestGeometry:
    def test_default_testbed_has_enough_locations(self):
        testbed = default_testbed()
        assert testbed.n_locations >= 15

    def test_placements_are_distinct(self, rng):
        testbed = default_testbed()
        placements = testbed.place_nodes(6, rng)
        assert len(set(placements)) == 6

    def test_too_many_nodes_rejected(self, rng):
        testbed = default_testbed()
        with pytest.raises(ConfigurationError):
            testbed.place_nodes(testbed.n_locations + 1, rng)

    def test_needs_at_least_two_locations(self):
        with pytest.raises(ConfigurationError):
            testbed_module.Testbed(locations=[(0.0, 0.0)])


class TestLinkBudget:
    def test_path_loss_increases_with_distance(self):
        losses = default_testbed().path_loss_at_distance(np.array([1.0, 2.0, 5.0, 12.0, 30.0]))
        assert np.all(np.diff(losses) > 0)

    def test_path_loss_clamps_to_the_reference_distance(self):
        testbed = default_testbed()
        losses = testbed.path_loss_at_distance(np.array([0.0, 0.5, 1.0]))
        assert np.all(losses == testbed.reference_loss_db)

    def test_snr_is_clamped_to_operating_range(self):
        testbed = default_testbed()
        losses = np.linspace(20.0, 200.0, 50)
        snr, _ = testbed.link_scalars_batch(losses, np.zeros(50), np.ones(50))
        assert np.all((testbed.min_snr_db <= snr) & (snr <= testbed.max_snr_db))
        assert snr[0] == testbed.max_snr_db
        assert snr[-1] == testbed.min_snr_db

    def test_shadowing_shifts_the_budget_by_sigma_per_unit(self):
        testbed = default_testbed()
        # A loss that leaves the budget mid-range: no clamp either way.
        loss = testbed.tx_power_dbm - testbed.noise_floor_dbm - 15.0
        snr, _ = testbed.link_scalars_batch(
            np.full(2, loss), np.array([0.0, 1.0]), np.ones(2)
        )
        assert snr[0] == pytest.approx(15.0)
        assert snr[0] - snr[1] == pytest.approx(testbed.shadowing_sigma_db)

    def test_line_of_sight_links_decay_faster(self):
        testbed = default_testbed()
        p = testbed.los_probability
        coins = np.array([0.0, p - 1e-9, p, 0.999])
        _, decay = testbed.link_scalars_batch(np.full(4, 80.0), np.zeros(4), coins)
        assert decay.tolist() == [0.6, 0.6, 1.5, 1.5]

    def test_link_snrs_span_a_wide_range(self, rng):
        """The synthetic deployment must produce both strong and weak links,
        mirroring the 5-30 dB spread of the paper's testbed."""
        snrs, decays = _link_scalars(default_testbed(), rng, 200)
        assert snrs.min() < 12.0
        assert snrs.max() > 24.0
        # Both line-of-sight and scattered links occur.
        assert set(decays.tolist()) == {0.6, 1.5}


class TestLinkChannels:
    def test_channel_power_tracks_snr(self, rng):
        testbed = default_testbed()
        n_links = 200
        _, decays = _link_scalars(testbed, rng, n_links)
        scales = tap_scales(testbed.n_taps, decays, db_to_linear(np.full(n_links, 20.0)))
        normals = rng.standard_normal((n_links, testbed.n_taps, 2, 1, 1))
        gains = np.sum(np.abs(taps_from_normals(normals, scales)) ** 2, axis=(1, 2, 3))
        assert 10 * np.log10(np.mean(gains)) == pytest.approx(20.0, abs=1.5)

    def test_taps_respect_cyclic_prefix(self):
        testbed = default_testbed()
        assert testbed.n_taps <= 16
        assert tap_scales(testbed.n_taps, np.array([0.6]), np.ones(1)).shape == (
            1,
            testbed.n_taps,
        )
