"""The result-comparison tool (``tests/same_results.py``).

The grids it sweeps parse as CLI runs, the timing lines it drops are
the only lines it drops, and a cell's digest is a pure function of its
coordinates.
"""

from __future__ import annotations

import pytest

import same_results
from repro.cli import build_parser

#: A grid small enough for tier-1: one protocol, one short run per seed.
_TINY = ["sweep", "--scenario", "three-pair", "--protocols", "802.11n",
         "--duration-ms", "5", "--runs", "1"]


def test_every_grid_parses_without_a_seed_or_store():
    argvs = same_results.grids()
    assert len(argvs) > len(same_results.PAPER_GRIDS)
    for argv in argvs:
        assert "--seed" not in argv and "--cache-dir" not in argv
        args = build_parser().parse_args(argv)
        assert args.command == "sweep"
    scenarios = {argv[argv.index("--scenario") + 1] for argv in argvs}
    assert {"three-pair", "heterogeneous-ap"} <= scenarios


@pytest.mark.parametrize(
    "line, timing",
    [
        ("[fig9] finished in 12.3 s", True),
        ("0 cell(s) from cache, 8 simulated on 2 worker(s) in 4.6 s", True),
        ("802.11n    12.34  10.1  14.2  0.97", False),
        ("[fig9] finished in 12.3 s, then more text", False),
    ],
)
def test_only_timing_lines_are_dropped(line, timing):
    assert bool(same_results._TIMING.search(line)) is timing


def test_cell_digests_are_deterministic_and_named_by_coordinate():
    first = same_results.digest_grids([_TINY])
    assert sorted(first) == [
        f"three-pair seed={seed} 802.11n run=0" for seed in same_results.SEEDS
    ]
    assert all(len(digest) == 64 for digest in first.values())
    assert same_results.digest_grids([_TINY]) == first


def test_a_wrong_argument_count_is_a_usage_error(capsys):
    assert same_results.main([]) == 2
    assert "usage" in capsys.readouterr().err
