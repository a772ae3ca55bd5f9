"""Tests for MAC frames and bitrate selection."""

from repro.mac.bitrate import HistoricalRateController, choose_bitrate
from repro.mac.frames import Packet
from repro.phy.esnr import esnr_db, mcs_for_esnr
from repro.phy.rates import MCS_TABLE


class TestPacket:
    def test_size_in_bits(self):
        assert Packet(source=0, destination=1, size_bytes=1500).size_bits == 12000

    def test_defaults(self):
        packet = Packet(source=3, destination=4)
        assert packet.size_bytes == 1500
        assert packet.retries == 0


class TestChooseBitrate:
    def test_extreme_snrs(self):
        assert choose_bitrate([40.0] * 16).index == len(MCS_TABLE) - 1
        assert choose_bitrate([-5.0] * 16).index == 0

    def test_margin_lowers_selection(self):
        snrs = [13.0] * 16
        assert choose_bitrate(snrs, margin_db=4.0).index <= choose_bitrate(snrs).index

    def test_matches_the_rule_on_a_precomputed_esnr(self, rng):
        # n+'s join check computes the ESNR once and picks the rate from
        # it; that must be the rate choose_bitrate would have picked.
        for _ in range(50):
            snrs = rng.uniform(-5.0, 35.0, size=16)
            margin = float(rng.uniform(-2.0, 4.0))
            assert choose_bitrate(snrs, margin) == mcs_for_esnr(esnr_db(snrs), MCS_TABLE, margin)


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
