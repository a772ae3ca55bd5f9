"""Tests for MAC frames and the historical rate controller."""

from repro.mac.bitrate import HistoricalRateController
from repro.mac.frames import Packet
from repro.phy.rates import MCS_TABLE


class TestPacket:
    def test_size_in_bits(self):
        assert Packet(source=0, destination=1, size_bytes=1500).size_bits == 12000

    def test_defaults(self):
        packet = Packet(source=3, destination=4)
        assert packet.size_bytes == 1500
        assert packet.retries == 0


class TestHistoricalRateController:
    def test_starts_optimistic(self):
        controller = HistoricalRateController()
        assert controller.select().index == len(MCS_TABLE) - 1

    def test_failures_move_selection_down(self, rng):
        controller = HistoricalRateController()
        top = MCS_TABLE[-1]
        for _ in range(20):
            controller.record(top, delivered=False)
        assert controller.select().index < top.index

    def test_successes_restore_confidence(self):
        controller = HistoricalRateController()
        top = MCS_TABLE[-1]
        for _ in range(10):
            controller.record(top, delivered=False)
        for _ in range(40):
            controller.record(top, delivered=True)
        assert controller.select().index == top.index

    def test_delivery_estimate_bounded(self):
        controller = HistoricalRateController()
        mcs = MCS_TABLE[2]
        for _ in range(50):
            controller.record(mcs, delivered=True)
        assert 0.0 <= controller._delivery[mcs.index] <= 1.0
