"""Tests for transmission planning (the join policy)."""

import numpy as np
import pytest

from repro.constants import INTERFERENCE_ADMISSION_THRESHOLD_DB
from repro.exceptions import PrecodingError
from repro.mac.plan import (
    PlannedReceiver,
    ProtectedReceiver,
    plan_initial_transmission,
    plan_join,
)
from repro.mimo.dof import InterferenceStrategy
from repro.utils.db import db_to_linear
from repro.utils.linalg import orthonormal_complement

N_SUB = 8


def _channels(rng, n_rx, n_tx, gain=1.0):
    shape = (N_SUB, n_rx, n_tx)
    return np.sqrt(gain / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _u_perp_per_subcarrier(rng, n_rx, n_keep):
    out = np.zeros((N_SUB, n_rx, n_keep), dtype=complex)
    for k in range(N_SUB):
        random = rng.standard_normal((n_rx, n_rx - n_keep)) + 1j * rng.standard_normal(
            (n_rx, n_rx - n_keep)
        )
        out[k] = orthonormal_complement(random)[:, :n_keep]
    return out


class TestProtectedReceiver:
    def test_strategy_selection(self, rng):
        nulled = ProtectedReceiver(1, n_antennas=1, n_wanted_streams=1, channel=_channels(rng, 1, 3))
        assert nulled.strategy is InterferenceStrategy.NULL
        assert nulled.n_constraints == 1
        aligned = ProtectedReceiver(
            2,
            n_antennas=2,
            n_wanted_streams=1,
            channel=_channels(rng, 2, 3),
            u_perp=_u_perp_per_subcarrier(rng, 2, 1),
        )
        assert aligned.strategy is InterferenceStrategy.ALIGN
        assert aligned.n_constraints == 1

    def test_requires_per_subcarrier_channel(self, rng):
        from repro.exceptions import DimensionError

        with pytest.raises(DimensionError):
            ProtectedReceiver(1, 1, 1, channel=rng.standard_normal((1, 3)))


class TestPlanInitial:
    def test_single_receiver_uses_identity_precoding(self, rng):
        receivers = [PlannedReceiver(5, n_antennas=2, n_streams=2, channel=_channels(rng, 2, 2))]
        plan = plan_initial_transmission(1, 2, receivers)
        assert len(plan.streams) == 2
        assert plan.power_scale == 1.0
        for index, stream in enumerate(plan.streams):
            expected = np.zeros(2)
            expected[index] = 1.0
            assert np.allclose(stream.precoders, expected)

    def test_multi_user_beamforming_protects_other_client(self, rng):
        h_c2 = _channels(rng, 2, 3)
        h_c3 = _channels(rng, 2, 3)
        receivers = [
            PlannedReceiver(10, 2, 2, h_c2),
            PlannedReceiver(11, 2, 1, h_c3),
        ]
        plan = plan_initial_transmission(1, 3, receivers, multi_user_beamforming=True)
        assert len(plan.streams) == 3
        c3_stream = plan.streams[2]
        assert c3_stream.receiver_id == 11
        # The stream destined to c3 must not appear in c2's decoding rows.
        for k in range(N_SUB):
            leak = np.eye(2).conj().T @ (h_c2[k] @ c3_stream.precoders[k])
            assert np.allclose(leak, 0, atol=1e-8)

    def test_too_many_streams_rejected(self, rng):
        receivers = [PlannedReceiver(5, 3, 3, _channels(rng, 3, 2))]
        with pytest.raises(PrecodingError):
            plan_initial_transmission(1, 2, receivers)

    def test_empty_receivers_rejected(self):
        with pytest.raises(PrecodingError):
            plan_initial_transmission(1, 2, [])

    def test_power_per_stream_splits_budget(self, rng):
        receivers = [PlannedReceiver(5, 2, 2, _channels(rng, 2, 2))]
        plan = plan_initial_transmission(1, 2, receivers)
        assert plan.power_per_stream() == pytest.approx(0.5)


class TestPlanJoin:
    def test_fig5c_join(self, rng):
        """tx3 joins the single-antenna pair: nulls at rx1, two streams to rx3."""
        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3, gain=db_to_linear(15.0)))]
        receivers = [PlannedReceiver(5, 3, 2, _channels(rng, 3, 3))]
        plan = plan_join(4, 3, protected, receivers)
        assert len(plan.streams) == 2
        assert plan.protects == {1: InterferenceStrategy.NULL}
        for stream in plan.streams:
            for k in range(N_SUB):
                leak = protected[0].channel[k] @ stream.precoders[k]
                assert np.allclose(leak, 0, atol=1e-8)

    def test_fig5d_join_uses_alignment_at_rx2(self, rng):
        protected = [
            ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3, gain=db_to_linear(12.0))),
            ProtectedReceiver(
                3,
                2,
                1,
                _channels(rng, 2, 3, gain=db_to_linear(12.0)),
                u_perp=_u_perp_per_subcarrier(rng, 2, 1),
            ),
        ]
        receivers = [PlannedReceiver(5, 3, 1, _channels(rng, 3, 3))]
        plan = plan_join(4, 3, protected, receivers)
        assert len(plan.streams) == 1
        assert plan.protects[3] is InterferenceStrategy.ALIGN
        stream = plan.streams[0]
        for k in range(N_SUB):
            aligned_leak = (
                protected[1].u_perp[k].conj().T @ (protected[1].channel[k] @ stream.precoders[k])
            )
            assert np.allclose(aligned_leak, 0, atol=1e-8)

    def test_join_requesting_too_many_streams_fails(self, rng):
        protected = [ProtectedReceiver(1, 2, 2, _channels(rng, 2, 3))]
        receivers = [PlannedReceiver(5, 3, 2, _channels(rng, 3, 3))]
        with pytest.raises(PrecodingError):
            plan_join(4, 3, protected, receivers)

    def test_power_control_engages_for_loud_joiners(self, rng):
        loud_gain = db_to_linear(INTERFERENCE_ADMISSION_THRESHOLD_DB + 8.0)
        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3, gain=loud_gain))]
        receivers = [PlannedReceiver(5, 3, 2, _channels(rng, 3, 3))]
        plan = plan_join(4, 3, protected, receivers)
        assert plan.power_scale < 1.0

    def test_quiet_joiner_keeps_full_power(self, rng):
        quiet_gain = db_to_linear(10.0)
        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3, gain=quiet_gain))]
        receivers = [PlannedReceiver(5, 3, 2, _channels(rng, 3, 3))]
        assert plan_join(4, 3, protected, receivers).power_scale == 1.0

    def test_fig4_join_with_two_own_receivers(self, rng):
        protected = [
            ProtectedReceiver(
                1,
                2,
                1,
                _channels(rng, 2, 3, gain=db_to_linear(12.0)),
                u_perp=_u_perp_per_subcarrier(rng, 2, 1),
            )
        ]
        receivers = [
            PlannedReceiver(3, 2, 1, _channels(rng, 2, 3), u_perp=_u_perp_per_subcarrier(rng, 2, 1)),
            PlannedReceiver(4, 2, 1, _channels(rng, 2, 3), u_perp=_u_perp_per_subcarrier(rng, 2, 1)),
        ]
        plan = plan_join(2, 3, protected, receivers)
        assert len(plan.streams) == 2
        assert {s.receiver_id for s in plan.streams} == {3, 4}

    def test_join_without_receivers_rejected(self, rng):
        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3))]
        with pytest.raises(PrecodingError):
            plan_join(4, 3, protected, [])

    def test_inconsistent_subcarrier_counts_rejected(self, rng):
        from repro.exceptions import DimensionError

        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 3))]
        bad = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        receivers = [PlannedReceiver(5, 3, 1, bad)]
        with pytest.raises(DimensionError):
            plan_join(4, 3, protected, receivers)
