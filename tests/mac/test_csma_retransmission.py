"""Tests for DCF contention and the retransmission queue."""

from repro.constants import CW_MAX, CW_MIN, DIFS_US, SLOT_TIME_US
from repro.mac.csma import DcfContender, resolve_contention
from repro.mac.frames import Packet
from repro.mac.retransmission import RetransmissionQueue


class TestDcfContender:
    def test_backoff_within_window(self, rng):
        contender = DcfContender(node_id=1)
        draws = [resolve_contention([contender], rng).backoff_slots for _ in range(200)]
        assert min(draws) >= 0
        assert max(draws) <= CW_MIN

    def test_collision_doubles_window(self):
        contender = DcfContender(node_id=1)
        contender.record_collision()
        assert contender._cw == 2 * (CW_MIN + 1) - 1
        contender.record_collision()
        assert contender._cw == 4 * (CW_MIN + 1) - 1

    def test_window_caps_at_cw_max(self):
        contender = DcfContender(node_id=1)
        for _ in range(20):
            contender.record_collision()
        assert contender._cw == CW_MAX

    def test_success_resets_window(self):
        contender = DcfContender(node_id=1)
        contender.record_collision()
        contender.record_success()
        assert contender._cw == CW_MIN


class TestResolveContention:
    def test_single_contender_always_wins(self, rng):
        outcome = resolve_contention([DcfContender(7)], rng)
        assert outcome.winners == (7,)
        assert not outcome.collision
        assert outcome.start_delay_us >= DIFS_US

    def test_empty_contender_list(self, rng):
        outcome = resolve_contention([], rng)
        assert outcome.winners == ()
        assert not outcome.collision

    def test_winner_has_smallest_backoff(self, rng):
        contenders = [DcfContender(i) for i in range(3)]
        outcome = resolve_contention(contenders, rng)
        assert len(outcome.winners) >= 1
        assert outcome.start_delay_us == DIFS_US + outcome.backoff_slots * SLOT_TIME_US

    def test_collisions_occur_at_realistic_rate(self, rng):
        """With 3 saturated nodes and CW=15, collisions happen but are not
        the common case."""
        collisions = 0
        rounds = 2000
        for _ in range(rounds):
            outcome = resolve_contention([DcfContender(i) for i in range(3)], rng)
            collisions += outcome.collision
        rate = collisions / rounds
        assert 0.03 < rate < 0.30

    def test_every_node_wins_roughly_equally(self, rng):
        wins = {0: 0, 1: 0, 2: 0}
        for _ in range(3000):
            outcome = resolve_contention([DcfContender(i) for i in range(3)], rng)
            if not outcome.collision:
                wins[outcome.winners[0]] += 1
        values = list(wins.values())
        assert max(values) - min(values) < 0.2 * sum(values)

    def test_outcome_is_independent_of_contender_order(self, rng_factory):
        """The same seeded round yields the same winners no matter how the
        caller happened to order the contender list (backoffs are drawn in
        canonical node-id order)."""
        for trial in range(50):
            contenders = [DcfContender(node_id) for node_id in (5, 1, 9, 3, 7)]
            forward = resolve_contention(contenders, rng_factory(trial))
            backward = resolve_contention(list(reversed(contenders)), rng_factory(trial))
            assert forward == backward

    def test_backoffs_respect_per_node_windows(self, rng):
        """The single array draw must honour each contender's own window."""
        wide = DcfContender(1)
        for _ in range(4):
            wide.record_collision()
        narrow = DcfContender(2)
        for _ in range(500):
            outcome = resolve_contention([wide, narrow], rng)
            assert 0 <= outcome.backoff_slots <= narrow._cw


class TestRetransmissionQueue:
    def test_enqueue_and_backlog(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, size_bytes=1500))
        assert queue.has_traffic
        assert queue.backlog_bits == 12000
        assert len(queue) == 1

    def test_acknowledge_whole_packet(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, size_bytes=1500))
        completed = queue.acknowledge(12000)
        assert completed == 1
        assert not queue.has_traffic
        assert queue.delivered_bits == 12000

    def test_partial_acknowledgement_keeps_packet(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, size_bytes=1500))
        completed = queue.acknowledge(5000)
        assert completed == 0
        assert queue.backlog_bits == 7000
        assert queue.has_traffic

    def test_acknowledge_spans_packets(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, size_bytes=1500, packet_id=0))
        queue.enqueue(Packet(0, 1, size_bytes=1500, packet_id=1))
        completed = queue.acknowledge(18000)
        assert completed == 1
        assert queue.backlog_bits == 6000

    def test_take_bits_is_limited_by_backlog(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, size_bytes=100))
        assert queue.take_bits(10_000) == 800

    def test_fail_increments_retries_and_drops_eventually(self):
        queue = RetransmissionQueue(max_retries=2)
        queue.enqueue(Packet(0, 1))
        queue.fail()
        queue.fail()
        assert queue.has_traffic
        queue.fail()
        assert not queue.has_traffic
        assert queue.dropped_packets == 1

    def test_fail_on_empty_queue_is_noop(self):
        RetransmissionQueue().fail()

    def test_head_returns_oldest_packet(self):
        queue = RetransmissionQueue()
        queue.enqueue(Packet(0, 1, packet_id=10))
        queue.enqueue(Packet(0, 1, packet_id=11))
        assert queue.head().packet_id == 10


class TestPartialDeliveryBoundary:
    """Retry accounting at the partial-delivery boundary.

    An aggregated attempt spans several packets; a failure must age every
    packet it carried (not just the head), and forward progress on the
    head must reset its retry count -- otherwise a slow-but-working link
    drops packets at the cap, and a dead link never drops the tail.
    """

    def test_fail_ages_every_packet_the_attempt_spanned(self):
        queue = RetransmissionQueue(max_retries=2)
        first = Packet(0, 1, size_bytes=1500, packet_id=0)
        second = Packet(0, 1, size_bytes=1500, packet_id=1)
        third = Packet(0, 1, size_bytes=1500, packet_id=2)
        for packet in (first, second, third):
            queue.enqueue(packet)
        # an aggregated attempt carrying the first two packets fails
        queue.fail(attempted_bits=24_000)
        assert first.retries == 1
        assert second.retries == 1
        assert third.retries == 0  # not part of the attempt

    def test_fail_with_partial_span_rounds_up_to_the_head(self):
        queue = RetransmissionQueue()
        head = Packet(0, 1, size_bytes=1500, packet_id=0)
        tail = Packet(0, 1, size_bytes=1500, packet_id=1)
        queue.enqueue(head)
        queue.enqueue(tail)
        # a fragment smaller than the head still ages (only) the head
        queue.fail(attempted_bits=4_000)
        assert head.retries == 1
        assert tail.retries == 0

    def test_legacy_fail_ages_only_the_head(self):
        queue = RetransmissionQueue()
        head = Packet(0, 1, size_bytes=1500, packet_id=0)
        tail = Packet(0, 1, size_bytes=1500, packet_id=1)
        queue.enqueue(head)
        queue.enqueue(tail)
        queue.fail()
        assert head.retries == 1
        assert tail.retries == 0

    def test_partial_progress_resets_the_head_retry_count(self):
        queue = RetransmissionQueue(max_retries=2)
        packet = Packet(0, 1, size_bytes=1500)
        queue.enqueue(packet)
        queue.fail(attempted_bits=12_000)
        queue.fail(attempted_bits=12_000)
        assert packet.retries == 2
        # forward progress: part of the packet gets through
        queue.acknowledge(4_000)
        assert packet.retries == 0
        # the cap now counts from the last progress, not from enqueue
        queue.fail(attempted_bits=8_000)
        queue.fail(attempted_bits=8_000)
        assert queue.has_traffic
        assert queue.dropped_packets == 0

    def test_drops_count_remaining_bits_not_original_size(self):
        queue = RetransmissionQueue(max_retries=0)
        packet = Packet(0, 1, size_bytes=1500)
        queue.enqueue(packet)
        queue.acknowledge(2_000)  # 10k bits left (and retries reset)
        queue.fail(attempted_bits=10_000)
        assert not queue.has_traffic
        assert queue.dropped_packets == 1
        assert queue.dropped_bits == 10_000

    def test_aggregated_fail_drops_every_capped_packet(self):
        queue = RetransmissionQueue(max_retries=0)
        for packet_id in range(3):
            queue.enqueue(Packet(0, 1, size_bytes=1500, packet_id=packet_id))
        queue.fail(attempted_bits=36_000)
        assert not queue.has_traffic
        assert queue.dropped_packets == 3
        assert queue.dropped_bits == 36_000

    def test_dropped_packets_survive_into_network_metrics(self):
        """The drop counter flows through to LinkMetrics."""
        from repro.sim.metrics import LinkMetrics

        metrics = LinkMetrics(pair_name="tx1->rx1", packets_dropped=3)
        assert LinkMetrics.from_dict(metrics.to_dict()).packets_dropped == 3
        # entries cached before the counter existed still load
        legacy = metrics.to_dict()
        legacy.pop("packets_dropped")
        assert LinkMetrics.from_dict(legacy).packets_dropped == 0
