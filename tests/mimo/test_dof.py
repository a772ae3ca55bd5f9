"""Tests for degrees-of-freedom accounting (Claims 3.1 and 3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import custom_pairs_scenario
from repro.exceptions import DimensionError
from repro.mimo.dof import (
    InterferenceStrategy,
    choose_strategy,
    max_concurrent_streams,
)


class TestClaim31:
    def test_fully_loaded_receiver_requires_nulling(self):
        assert choose_strategy(1, 1) is InterferenceStrategy.NULL
        assert choose_strategy(2, 2) is InterferenceStrategy.NULL
        assert choose_strategy(3, 3) is InterferenceStrategy.NULL

    def test_spare_dimensions_allow_alignment(self):
        assert choose_strategy(2, 1) is InterferenceStrategy.ALIGN
        assert choose_strategy(3, 1) is InterferenceStrategy.ALIGN
        assert choose_strategy(3, 2) is InterferenceStrategy.ALIGN

    def test_invalid_stream_counts_rejected(self):
        with pytest.raises(DimensionError):
            choose_strategy(2, 3)
        with pytest.raises(DimensionError):
            choose_strategy(2, 0)


class TestClaim32:
    def test_paper_scenarios(self):
        # Fig. 5(b): 3-antenna tx3 joins a 2-stream transmission -> 1 stream.
        assert max_concurrent_streams(3, 2) == 1
        # Fig. 5(c): tx3 joins a single-antenna transmission -> 2 streams.
        assert max_concurrent_streams(3, 1) == 2
        # Fig. 5(d): tx2 joins tx1 -> 1; tx3 joins tx1+tx2 -> 1.
        assert max_concurrent_streams(2, 1) == 1
        assert max_concurrent_streams(3, 2) == 1

    def test_cannot_go_negative(self):
        assert max_concurrent_streams(2, 5) == 0

    def test_idle_medium(self):
        assert max_concurrent_streams(4, 0) == 4

    def test_invalid_arguments(self):
        with pytest.raises(DimensionError):
            max_concurrent_streams(0, 1)
        with pytest.raises(DimensionError):
            max_concurrent_streams(2, -1)

    @given(m=st.integers(1, 8), k=st.integers(0, 8))
    @settings(max_examples=64, deadline=None)
    def test_claim_3_2_formula(self, m, k):
        assert max_concurrent_streams(m, k) == max(0, m - k)


class TestNetworkDof:
    def test_equals_max_transmitter_antennas(self):
        assert custom_pairs_scenario([1, 2, 3]).max_antennas == 3
        assert custom_pairs_scenario([2, 2]).max_antennas == 2
