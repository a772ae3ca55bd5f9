"""Tests for the event scheduler and the medium bookkeeping."""

import numpy as np
import pytest

from repro.exceptions import MediumAccessError, SimulationError
from repro.phy.rates import MCS_TABLE
from repro.sim.engine import EventScheduler
from repro.sim.medium import Medium, ScheduledStream


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(30.0, lambda: order.append("late"))
        scheduler.schedule_at(10.0, lambda: order.append("early"))
        scheduler.schedule_at(20.0, lambda: order.append("middle"))
        scheduler.run_all()
        assert order == ["early", "middle", "late"]

    def test_ties_run_in_scheduling_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(5.0, lambda: order.append("first"))
        scheduler.schedule_at(5.0, lambda: order.append("second"))
        scheduler.run_all()
        assert order == ["first", "second"]

    def test_now_advances(self):
        scheduler = EventScheduler()
        scheduler.schedule_in(42.0, lambda: None)
        scheduler.run_all()
        assert scheduler.now_us == pytest.approx(42.0)

    def test_run_until_stops_at_time(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(10.0, lambda: fired.append(10))
        scheduler.schedule_at(50.0, lambda: fired.append(50))
        scheduler.run_until(20.0)
        assert fired == [10]
        assert scheduler.pending == 1

    def test_cancelled_events_do_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(10.0, lambda: fired.append(1))
        scheduler.cancel(event)
        scheduler.run_all()
        assert fired == []

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain():
            fired.append(scheduler.now_us)
            if len(fired) < 3:
                scheduler.schedule_in(5.0, chain)

        scheduler.schedule_in(5.0, chain)
        scheduler.run_all()
        assert fired == [5.0, 10.0, 15.0]

    def test_scheduling_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(10.0, lambda: None)
        scheduler.run_all()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule_in(-1.0, lambda: None)

    def test_event_budget_guard(self):
        scheduler = EventScheduler()

        def forever():
            scheduler.schedule_in(1.0, forever)

        scheduler.schedule_in(1.0, forever)
        with pytest.raises(SimulationError):
            scheduler.run_all(max_events=100)


def _stream(medium, tx=1, rx=2, order=0, start=0.0, end=100.0):
    return ScheduledStream(
        stream_id=medium.next_stream_id(),
        transmitter_id=tx,
        receiver_id=rx,
        precoders=np.ones((4, 1), dtype=complex),
        power=1.0,
        mcs=MCS_TABLE[0],
        payload_bits=1000,
        start_us=start,
        end_us=end,
        join_order=order,
    )


class TestMedium:
    def test_add_and_remove_streams(self):
        medium = Medium()
        stream = _stream(medium)
        medium.add_streams([stream])
        assert medium.busy
        assert medium.used_degrees_of_freedom == 1
        medium.remove_streams([stream])
        assert not medium.busy

    def test_stream_ids_are_unique(self):
        medium = Medium()
        ids = {medium.next_stream_id() for _ in range(100)}
        assert len(ids) == 100

    def test_queries(self):
        medium = Medium()
        s1 = _stream(medium, tx=1, rx=2, order=0, end=500.0)
        s2 = _stream(medium, tx=3, rx=4, order=1, end=500.0)
        medium.add_streams([s1, s2])
        assert medium.transmitting_nodes() == [1, 3]
        assert medium.receiving_nodes() == [2, 4]
        assert medium.streams_to(2) == [s1]
        assert medium.streams_from(3) == [s2]
        assert medium.max_join_order() == 1
        assert medium.current_end_us == 500.0

    def test_idle_values(self):
        medium = Medium()
        assert medium.max_join_order() == -1
        assert medium.current_end_us == float("-inf")

    def test_removing_unknown_stream_raises(self):
        medium = Medium()
        stray = _stream(medium)
        with pytest.raises(MediumAccessError):
            medium.remove_streams([stray])

    def test_clear(self):
        medium = Medium()
        medium.add_streams([_stream(medium)])
        medium.clear()
        assert medium.used_degrees_of_freedom == 0

    def test_protects_lookup(self):
        medium = Medium()
        stream = _stream(medium)
        from repro.mimo.dof import InterferenceStrategy

        stream.protected_receivers[9] = InterferenceStrategy.NULL
        assert stream.protects(9)
        assert not stream.protects(2)

    def test_multiple_receivers_deduplicated_in_order(self):
        medium = Medium()
        medium.add_streams(
            [_stream(medium, tx=1, rx=5), _stream(medium, tx=1, rx=6), _stream(medium, tx=1, rx=5)]
        )
        assert medium.receiving_nodes() == [5, 6]
        assert medium.transmitting_nodes() == [1]
        assert medium.used_degrees_of_freedom == 3
        assert len(medium.streams_to(5)) == 2

    def test_streams_for_an_idle_node_are_empty(self):
        medium = Medium()
        medium.add_streams([_stream(medium, tx=1, rx=2)])
        assert medium.streams_to(9) == []
        assert medium.streams_from(9) == []

    def test_end_of_current_transmissions(self):
        medium = Medium()
        early = _stream(medium, tx=1, rx=2, end=500.0)
        late = _stream(medium, tx=3, rx=4, order=1, end=800.0)
        medium.add_streams([early, late])
        assert medium.current_end_us == 800.0
        medium.remove_streams([late])
        assert medium.current_end_us == 500.0
        assert medium.max_join_order() == 0

    def test_active_streams_is_a_copy(self):
        medium = Medium()
        stream = _stream(medium)
        medium.add_streams([stream])
        medium.active_streams.clear()
        assert medium.active_streams == [stream]

    def test_removing_a_stream_twice_raises(self):
        medium = Medium()
        stream = _stream(medium)
        medium.add_streams([stream])
        medium.remove_streams([stream])
        with pytest.raises(MediumAccessError):
            medium.remove_streams([stream])
