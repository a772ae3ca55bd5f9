"""Say whether a change moved any result: this tree against a revision.

Runs the same sweep grids on a checkout of REV and on this tree, hashes
every cell's :meth:`~repro.sim.metrics.NetworkMetrics.to_dict` as sorted
JSON, and compares the hashes and the text of ``repro all --quick``
(minus its timing lines).  On a difference it prints the first
differing cells -- scenario, seed, protocol, run -- and exits 1::

    python tests/same_results.py REV      # or: make same-results REV=<rev>

The grids are the commands of ``perfbench/workloads.json`` plus the
paper's two topologies (:data:`PAPER_GRIDS`), seeds 0-2, with the CLI's
run defaults; the list lives in those two places only.  The checkout of
REV is a ``git archive`` of it in a temporary directory, removed
afterwards (local, no network; unlike ``git worktree`` it registers
nothing in ``.git``, so an interrupted run leaves nothing behind).  Both
trees run with no bytecode written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = REPO_ROOT / "perfbench" / "workloads.json"
SEEDS = (0, 1, 2)

#: The paper's scenarios, swept at the CLI's defaults next to the
#: perfbench grids.
PAPER_GRIDS = [
    "sweep --scenario three-pair --protocols 802.11n,n+",
    "sweep --scenario heterogeneous-ap --protocols 802.11n,beamforming,n+",
]

#: Lines of ``repro all --quick`` that report wall time, not results.
_TIMING = re.compile(r"finished in [0-9.]+ s$|simulated on .* in [0-9.]+ s$")


def grids() -> List[List[str]]:
    """Every grid's ``repro`` argv, without its seed and results store."""
    commands = [
        workload["command"]
        for workload in json.loads(WORKLOADS.read_text())["workloads"].values()
    ]
    out = []
    for command in commands + PAPER_GRIDS:
        argv = shlex.split(command)
        if argv[:3] == ["python", "-m", "repro.cli"]:
            argv = argv[3:]
        while "--seed" in argv or "--cache-dir" in argv:
            flag = "--seed" if "--seed" in argv else "--cache-dir"
            index = argv.index(flag)
            del argv[index : index + 2]
        out.append(argv)
    return out


def digest_grids(argvs: List[List[str]]) -> Dict[str, str]:
    """``{"scenario seed protocol run": sha256 of the cell's metrics}``.

    Runs in the tree whose ``src`` is on ``sys.path``; a failed cell
    hashes as its error.
    """
    from repro.cli import _simulation_config, build_parser
    from repro.mac.variants import split_protocol_list
    from repro.sim.sweep import run_sweep

    digests = {}
    for argv in argvs:
        for seed in SEEDS:
            args = build_parser().parse_args([*argv, "--seed", str(seed)])
            result = run_sweep(
                args.scenario,
                split_protocol_list(args.protocols),
                n_runs=args.runs,
                seed=seed,
                config=_simulation_config(args),
                workers=args.workers,
            )
            for protocol, column in result.results.items():
                for run, metrics in enumerate(column):
                    if metrics is None:
                        payload = next(
                            f.error for f in result.failures
                            if f.protocol == protocol and f.run == run
                        )
                    else:
                        payload = json.dumps(metrics.to_dict(), sort_keys=True)
                    cell = f"{args.scenario} seed={seed} {protocol} run={run}"
                    digests[cell] = hashlib.sha256(payload.encode()).hexdigest()
    return digests


def _run(tree: Path, *argv: str) -> str:
    """Stdout of a Python process on ``tree``'s sources, no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def results_of(tree: Path) -> tuple:
    """The cell digests and the ``repro all --quick`` text of ``tree``."""
    digests = json.loads(
        _run(tree, str(Path(__file__).resolve()), "--digest", json.dumps(grids()))
    )
    text = _run(tree, "-m", "repro.cli", "all", "--quick")
    lines = [line for line in text.splitlines() if not _TIMING.search(line)]
    return digests, lines


def checkout(rev: str, into: Path) -> Path:
    """Extract ``rev``'s files under ``into`` (``git archive``)."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=REPO_ROOT,
            stdout=archive, check=True,
        )
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into)
    return into


def main(argv: List[str]) -> int:
    if argv[:1] == ["--digest"]:
        json.dump(digest_grids(json.loads(argv[1])), sys.stdout)
        return 0
    if len(argv) != 1:
        print("usage: python tests/same_results.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-results-") as scratch:
        base_digests, base_text = results_of(checkout(argv[0], Path(scratch)))
    digests, text = results_of(REPO_ROOT)
    moved = [
        cell for cell in sorted(set(base_digests) | set(digests))
        if base_digests.get(cell) != digests.get(cell)
    ]
    for cell in moved[:10]:
        print(f"moved: {cell}")
    if len(moved) > 10:
        print(f"... and {len(moved) - 10} more cells")
    if text != base_text:
        diff = [(a, b) for a, b in zip(base_text, text) if a != b]
        print("repro all --quick printed different text:")
        for before, after in diff[:5]:
            print(f"  {argv[0]}: {before}\n  this tree: {after}")
        if len(base_text) != len(text):
            print(f"  {len(base_text)} lines at {argv[0]}, {len(text)} here")
    if moved or text != base_text:
        return 1
    print(f"same results: {len(digests)} cells and the repro all --quick text match {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
