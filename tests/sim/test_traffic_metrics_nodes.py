"""Tests for traffic sources, metrics and station dataclasses."""

import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim.metrics import LinkMetrics, NetworkMetrics, empirical_cdf, jain_fairness_index
from repro.sim.node import Station, TrafficPair
from repro.sim.traffic import PoissonSource, SaturatedSource


class TestStation:
    def test_defaults(self):
        station = Station(3, 2)
        assert station.name == "node3"
        assert station.location is None

    def test_zero_antennas_rejected(self):
        with pytest.raises(ConfigurationError):
            Station(0, 0)


class TestTrafficPair:
    def test_default_stream_allocation(self):
        tx = Station(0, 3, "tx")
        rx = Station(1, 2, "rx")
        pair = TrafficPair(tx, [rx])
        assert pair.streams_per_receiver == [2]
        assert sum(pair.streams_per_receiver) == 2
        assert pair.name == "tx->rx"

    def test_multi_receiver_default_split(self):
        ap = Station(0, 3, "AP")
        c1 = Station(1, 2, "c1")
        c2 = Station(2, 2, "c2")
        pair = TrafficPair(ap, [c1, c2])
        assert sum(pair.streams_per_receiver) <= 3

    def test_stream_count_cannot_exceed_antennas(self):
        with pytest.raises(ConfigurationError):
            TrafficPair(Station(0, 2), [Station(1, 2)], streams_per_receiver=[3])

    def test_receiver_list_required(self):
        with pytest.raises(ConfigurationError):
            TrafficPair(Station(0, 2), [])

    def test_mismatched_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficPair(Station(0, 2), [Station(1, 1)], streams_per_receiver=[1, 1])


class TestTrafficSources:
    def test_saturated_source_always_has_packets(self):
        source = SaturatedSource(0, 1)
        assert source.has_packet(0.0)
        first = source.next_packet(0.0)
        second = source.next_packet(10.0)
        assert first.packet_id != second.packet_id
        assert first.destination == 1

    def test_poisson_interarrival_times(self, rng):
        source = PoissonSource(0, 1, rate_packets_per_second=10_000.0, rng=rng)
        arrivals = []
        now = 0.0
        for _ in range(200):
            while not source.has_packet(now):
                now += 10.0
            packet = source.next_packet(now)
            arrivals.append(packet.created_us)
        gaps = np.diff(arrivals)
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.3)

    def test_poisson_no_packet_before_first_arrival(self, rng):
        source = PoissonSource(0, 1, rate_packets_per_second=1.0, rng=rng)
        assert not source.has_packet(0.0)


class TestMetrics:
    def test_throughput_computation(self):
        metrics = NetworkMetrics(elapsed_us=1_000_000.0)
        link = metrics.link("a->b")
        link.delivered_bits = 5_000_000
        assert metrics.throughput_mbps("a->b") == pytest.approx(5.0)
        assert metrics.total_throughput_mbps() == pytest.approx(5.0)

    def test_zero_elapsed_time(self):
        metrics = NetworkMetrics()
        metrics.link("a")
        assert metrics.total_throughput_mbps() == 0.0

    def test_empirical_cdf(self):
        values, probabilities = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert probabilities[-1] == pytest.approx(1.0)

    def test_empirical_cdf_empty(self):
        values, probabilities = empirical_cdf([])
        assert values.size == 0 and probabilities.size == 0

    def test_jain_index_equal_shares(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_index_single_hog(self):
        assert jain_fairness_index([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_jain_index_of_idle_links_is_one(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_fairness_of_network_metrics(self):
        metrics = NetworkMetrics(elapsed_us=1e6)
        metrics.link("a").delivered_bits = 1_000_000
        metrics.link("b").delivered_bits = 1_000_000
        assert metrics.fairness_index() == pytest.approx(1.0)

    def test_link_to_dict_equals_asdict(self):
        """The field-by-field dict is what ``dataclasses.asdict`` gave:
        same keys in the same order, same values and value types, and
        the same stored JSON."""
        link = LinkMetrics(
            pair_name="tx1->rx1",
            delivered_bits=12_000,
            attempted_bits=15_000,
            packets_delivered=1,
            packets_failed=2,
            airtime_us=np.float64(1234.5678),
            transmissions=3,
            joins=4,
            collisions=5,
            packets_dropped=6,
            recovered_bits=7,
            quarantined_rounds=8,
        )
        expected = dataclasses.asdict(link)
        produced = link.to_dict()
        assert list(produced) == list(expected)
        assert [type(value) for value in produced.values()] == [
            type(value) for value in expected.values()
        ]
        assert produced == expected
        assert json.dumps(produced) == json.dumps(expected)
        assert LinkMetrics.from_dict(produced) == link

    def test_read_paths_do_not_create_links(self):
        """Regression: querying a pair that never transmitted must not
        mutate the metrics (it used to create a zero-valued LinkMetrics,
        silently shifting the Jain-index denominator)."""
        metrics = NetworkMetrics(elapsed_us=1e6)
        metrics.link("a->b").delivered_bits = 1_000_000
        metrics.link("c->d").delivered_bits = 1_000_000
        fairness_before = metrics.fairness_index()
        serialised_before = metrics.to_dict()

        assert metrics.throughput_mbps("nobody->nowhere") == 0.0
        assert metrics.throughput_mbps("also->missing") == 0.0

        assert set(metrics.links) == {"a->b", "c->d"}
        assert metrics.fairness_index() == fairness_before
        assert metrics.to_dict() == serialised_before

    def test_throughput_query_of_recorded_pair_still_works(self):
        metrics = NetworkMetrics(elapsed_us=1_000_000.0)
        metrics.link("a->b").delivered_bits = 2_000_000
        assert metrics.throughput_mbps("a->b") == pytest.approx(2.0)
