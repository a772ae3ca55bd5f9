"""Tests for the synthetic testbed."""

import numpy as np
import pytest

from repro.channel import testbed as testbed_module
from repro.channel.testbed import default_testbed
from repro.exceptions import ConfigurationError


class TestGeometry:
    def test_default_testbed_has_enough_locations(self):
        testbed = default_testbed()
        assert testbed.n_locations >= 15

    def test_distance_is_symmetric(self):
        testbed = default_testbed()
        assert testbed.distance(0, 5) == pytest.approx(testbed.distance(5, 0))

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
        testbed = default_testbed()
        near = min(range(1, testbed.n_locations), key=lambda i: testbed.distance(0, i))
        far = max(range(1, testbed.n_locations), key=lambda i: testbed.distance(0, i))
        assert testbed.path_loss_db(0, far) > testbed.path_loss_db(0, near)

    def test_snr_is_clamped_to_operating_range(self, rng):
        testbed = default_testbed()
        for a in range(0, 10, 2):
            for b in range(1, 10, 2):
                if a == b:
                    continue
                snr = testbed.link_snr_db(a, b, rng)
                assert testbed.min_snr_db <= snr <= testbed.max_snr_db

    def test_link_snrs_span_a_wide_range(self, rng):
        """The synthetic deployment must produce both strong and weak links,
        mirroring the 5-30 dB spread of the paper's testbed."""
        testbed = default_testbed()
        snrs = []
        for _ in range(200):
            a, b = testbed.place_nodes(2, rng)
            snrs.append(testbed.link_snr_db(a, b, rng))
        assert min(snrs) < 12.0
        assert max(snrs) > 24.0


class TestLinkGeneration:
    def test_link_shapes_and_snr(self, rng):
        testbed = default_testbed()
        link = testbed.link(0, 7, n_tx=2, n_rx=3, rng=rng)
        assert link.channel.n_tx == 2
        assert link.channel.n_rx == 3
        assert link.frequency_response(64).shape == (64, 3, 2)
        assert testbed.min_snr_db <= link.snr_db <= testbed.max_snr_db

    def test_forced_snr_is_respected(self, rng):
        testbed = default_testbed()
        link = testbed.link(0, 7, n_tx=1, n_rx=1, rng=rng, snr_db=17.0)
        assert link.snr_db == pytest.approx(17.0)

    def test_channel_power_tracks_snr(self, rng):
        testbed = default_testbed()
        gains = []
        for seed in range(200):
            link = testbed.link(0, 9, 1, 1, np.random.default_rng(seed), snr_db=20.0)
            gains.append(np.sum(np.abs(link.channel.taps) ** 2))
        assert 10 * np.log10(np.mean(gains)) == pytest.approx(20.0, abs=1.5)

    def test_taps_respect_cyclic_prefix(self, rng):
        testbed = default_testbed()
        link = testbed.link(0, 5, 2, 2, rng)
        assert link.channel.n_taps <= 16
