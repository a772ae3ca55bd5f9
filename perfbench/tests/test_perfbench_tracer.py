"""Tests of the benchmark's outside-in tracer (``perfbench/tracer.py``).

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``) or on
their own: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

from repro import cli  # noqa: E402
from repro.mac.variants import available_variants  # noqa: E402
from repro.sim.store import ResultsStore  # noqa: E402

WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
#: Appended to a workload's command line (argparse keeps the last value):
#: one placement, a short window, in-process.
SHRINK = ["--runs", "1", "--duration-ms", "10", "--workers", "1"]


def _argv(command: str) -> list:
    argv = shlex.split(command.format(seed=3, store="unused"))[3:]
    at = argv.index("--cache-dir")
    del argv[at : at + 2]
    return argv


def _sweep(argv, store_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--cache-dir", str(store_dir)]) == 0
    with ResultsStore(store_dir) as store:
        cells = store.query(with_metrics=True)
    assert cells and all(cell.status == "done" for cell in cells)
    return {cell.key: cell.metrics_json for cell in cells}


def _originals():
    return [tracing.resolve(b)[2] for b in (*tracing.BOUNDARIES, tracing.PLAN_CACHE_FACTORY)]


def test_every_boundary_exists():
    for boundary in (*tracing.BOUNDARIES, tracing.PLAN_CACHE_FACTORY):
        owner, name, value = tracing.resolve(boundary)
        assert callable(value), boundary
        assert boundary.layer in tracing.LAYERS


def test_renamed_boundary_fails_loudly_naming_its_layer(monkeypatch):
    renamed = tracing.Boundary("planning", "repro.mac.nplus", "NPlusMac.plan_join_v2")
    with pytest.raises(tracing.BoundaryError, match="layer 'planning'.*plan_join_v2"):
        tracing.resolve(renamed)
    before = _originals()
    monkeypatch.setattr(tracing, "BOUNDARIES", (*tracing.BOUNDARIES, renamed))
    with pytest.raises(tracing.BoundaryError, match="planning"):
        tracing.Tracer().install()
    monkeypatch.undo()
    assert _originals() == before  # nothing was patched


def test_inherited_method_is_not_a_boundary():
    inherited = tracing.Boundary("planning", "repro.mac.nplus", "NPlusMac.plan_initial")
    with pytest.raises(tracing.BoundaryError, match="planning"):
        tracing.resolve(inherited)


def test_uninstall_restores_every_original():
    before = _originals()
    with tracing.Tracer() as tracer:
        assert _originals() != before
        assert tracer.labels
    assert _originals() == before


def test_every_protocol_variant_plans_through_a_wrapped_boundary():
    with tracing.Tracer():
        for variant in available_variants():
            agent = variant.agent_class
            assert getattr(agent.plan_initial, "__perfbench_layer__", None) == "planning", (
                f"{variant.name}: {agent.__name__}.plan_initial is not traced"
            )
            if variant.supports_joining:
                assert getattr(agent.plan_join, "__perfbench_layer__", None) == "planning", (
                    f"{variant.name}: {agent.__name__}.plan_join is not traced"
                )


def test_layer_report_is_per_traced_sweep():
    tracer = tracing.Tracer()
    tracer.record_span("import:repro.cli", "import", 0.0, 1.0)
    for start in (1.0, 3.0):  # two sweeps, each one 2 s runner span
        tracer.record_span("runner:run_simulation", "runner", start, start + 2.0)
    report = tracing.layer_report(tracer, 5.0, sweeps=2)
    assert report["runner.self_s"] == 2.0 and report["runner.calls"] == 1.0
    assert report["import.self_s"] == 1.0 and report["import.calls"] == 1.0
    assert report["runner.share"] == pytest.approx(0.8)
    assert report["trace.untraced_share"] == pytest.approx(0.0)


def test_import_breakdown_sums_cumulative_times_of_package_entry_points():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        150 |   numpy",
            "import time:        10 |         10 |       scipy",
            "import time:        30 |        400 |     scipy.optimize",
            "import time:        20 |        620 |   repro.sim",
            "import time:         5 |        775 | repro",
            "import time:        25 |         25 |   json",
            "import time:         5 |        805 | repro.cli",
        ]
    )
    assert bench.import_cumulative(report) == pytest.approx(
        {"numpy": 150e-6, "scipy": 400e-6, "repro": 1580e-6}
    )


@pytest.mark.parametrize(
    "grid",
    [
        ["--scenario", "dense-lan-20-faulty", "--protocols", "802.11n,n+[recovery=erasure]"],
        ["--scenario", "dense-lan-20-bursty", "--protocols", "n+", "--fidelity", "auto"],
    ],
    ids=["faulty", "fidelity-auto"],
)
def test_traced_cells_are_byte_identical_to_untraced(tmp_path, grid):
    argv = ["sweep", *grid, "--seed", "5", *SHRINK, "--duration-ms", "30"]
    untraced = _sweep(argv, tmp_path / "untraced")
    with tracing.Tracer() as tracer:
        traced = _sweep(argv, tmp_path / "traced")
    assert traced == untraced
    # Self times partition the root spans: nothing double-counted or lost.
    times = tracer.self_times()
    roots = sum(
        end - start
        for start, end, parent in zip(tracer.start, tracer.end, tracer.parent)
        if parent < 0
    )
    assert sum(seconds for seconds, _ in times.values()) == pytest.approx(roots)
    assert times["runner"][1] == len(traced)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unarmed_layers_record_no_calls(tmp_path, name):
    armed = set(WORKLOADS[name]["arms"])
    with tracing.Tracer() as tracer:
        _sweep([*_argv(WORKLOADS[name]["command"]), *SHRINK], tmp_path / "store")
    calls = {layer: count for layer, (_, count) in tracer.self_times().items()}
    for layer in ("faults", "fidelity"):
        if layer in armed:
            assert calls[layer] > 0, f"{name} arms {layer} but it was never called"
        else:
            assert calls[layer] == 0, f"{name} does not arm {layer}, yet it ran"
    for layer in ("sweep", "store", "construction", "runner", "contention", "planning"):
        assert calls[layer] > 0, f"{name}: no {layer} calls traced"
