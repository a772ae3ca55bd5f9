"""Full-precision snapshot of the signal-level experiments at seed 0.

Fig. 9 (multi-dimensional carrier sense), Fig. 11 (residual error of
nulling and alignment) and the handshake-overhead estimate run the
paper's subspace math outside the MAC simulator.  A refactor of that
math must leave every float they report unchanged, so the values below
are compared with ``==``: scalars directly, per-trial lists through a
sha256 of their float64 bytes (group keys in sorted order).  Together
the four runs take well under two seconds.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.experiments.fig9_carrier_sense import run_carrier_sense_experiment
from repro.experiments.fig11_nulling_alignment import (
    run_alignment_experiment,
    run_nulling_experiment,
)
from repro.experiments.handshake_overhead import run_handshake_experiment

N_TRIALS = 100


def _digest(groups) -> str:
    """sha256 of every group's values as float64 bytes, keys sorted."""
    h = hashlib.sha256()
    for key in sorted(groups):
        h.update(repr(key).encode())
        h.update(np.asarray(groups[key], dtype=float).tobytes())
    return h.hexdigest()


def test_fig9_carrier_sense_is_pinned():
    result = run_carrier_sense_experiment(n_trials=N_TRIALS, seed=0)
    assert result.power_jump_db_without_projection == 0.38590278283161084
    assert result.power_jump_db_with_projection == 8.999867146290185
    assert result.nondistinguishable_fraction_raw == 0.28
    assert result.nondistinguishable_fraction_projected == 0.0
    assert _digest(result.correlations) == (
        "8d8c2bf5af99120dfc549b571d6e4de44e30c1a6b648fb0d9b1117e125af5b1c"
    )


def test_fig11_nulling_is_pinned():
    result = run_nulling_experiment(n_trials=N_TRIALS, seed=0)
    assert result.average_reduction_below_threshold_db == -0.5166396372511484
    assert sum(len(values) for values in result.reductions_db.values()) == N_TRIALS
    assert _digest(result.reductions_db) == (
        "1663071f6a89c721d94de852a9ea127b706c068073bb85f1ece61023cb62fec8"
    )


def test_fig11_alignment_is_pinned():
    result = run_alignment_experiment(n_trials=N_TRIALS, seed=0)
    assert result.average_reduction_below_threshold_db == -0.8281603042424855
    assert sum(len(values) for values in result.reductions_db.values()) == N_TRIALS
    assert _digest(result.reductions_db) == (
        "8af33dae92c70720c42d06365207bdde5415bd45487b8db18cf239e02f7bb4c8"
    )


def test_handshake_overhead_is_pinned():
    result = run_handshake_experiment(n_channels=N_TRIALS, seed=0)
    assert sum(result.feedback_symbols) == 230
    assert _digest({"symbols": result.feedback_symbols}) == (
        "1215c9500b8811d0ef3d3358f844fedc4e07cf71a8da34c98a63a38137f538e4"
    )
    assert result.overhead_fraction == 0.045454545454545456
    assert result.reference_mcs_index == 5
