"""Tests for the medium bookkeeping."""

import numpy as np

from repro.phy.rates import MCS_TABLE
from repro.sim.medium import Medium, ScheduledStream


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
    def test_add_and_clear_streams(self):
        medium = Medium()
        stream = _stream(medium)
        medium.add_streams([stream])
        assert medium.busy
        assert medium.used_degrees_of_freedom == 1
        medium.clear()
        assert not medium.busy

    def test_stream_ids_are_unique(self):
        medium = Medium()
        ids = {medium.next_stream_id() for _ in range(100)}
        assert len(ids) == 100

    def test_stream_ids_stay_unique_across_clear(self):
        medium = Medium()
        first = _stream(medium)
        medium.add_streams([first])
        medium.clear()
        assert _stream(medium).stream_id != first.stream_id

    def test_queries(self):
        medium = Medium()
        s1 = _stream(medium, tx=1, rx=2, order=0, end=500.0)
        s2 = _stream(medium, tx=3, rx=4, order=1, end=500.0)
        medium.add_streams([s1, s2])
        assert medium.transmitting_nodes() == [1, 3]
        assert medium.receiving_nodes() == [2, 4]
        assert medium.streams_to(2) == [s1]
        assert medium.max_join_order() == 1
        assert medium.current_end_us == 500.0

    def test_idle_values(self):
        medium = Medium()
        assert medium.max_join_order() == -1
        assert medium.current_end_us == float("-inf")

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

    def test_end_of_current_transmissions(self):
        medium = Medium()
        early = _stream(medium, tx=1, rx=2, end=500.0)
        late = _stream(medium, tx=3, rx=4, order=1, end=800.0)
        medium.add_streams([early, late])
        assert medium.current_end_us == 800.0
        medium.clear()
        medium.add_streams([early])
        assert medium.current_end_us == 500.0
        assert medium.max_join_order() == 0

    def test_active_streams_is_a_copy(self):
        medium = Medium()
        stream = _stream(medium)
        medium.add_streams([stream])
        medium.active_streams.clear()
        assert medium.active_streams == [stream]
