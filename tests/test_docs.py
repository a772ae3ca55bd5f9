"""Docs staleness checks: the README and architecture docs must not rot.

Three classes of guarantee:

* every ``python`` fenced code block in the docs actually executes
  (small, self-contained snippets -- the quickstart must never break);
* every shell command in ``bash`` fenced blocks refers to files that
  exist, and every ``python -m repro.cli ...`` invocation parses against
  the real argument parser (so renamed commands/flags fail here);
* every repo path named in the layout table and inline backticks exists.

``make docs-check`` runs this module plus the example smoke tests.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"]

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _blocks(language: str):
    found = []
    for doc in DOCS:
        for match in _FENCE.finditer(doc.read_text()):
            if match.group(1) == language:
                found.append((doc.name, match.group(2)))
    return found


def test_docs_exist():
    for doc in DOCS:
        assert doc.exists(), f"{doc} is missing"
        assert doc.read_text().strip(), f"{doc} is empty"


def test_python_blocks_execute():
    blocks = _blocks("python")
    assert blocks, "expected at least one python block in the docs"
    for name, source in blocks:
        namespace = {}
        try:
            exec(compile(source, f"<{name} python block>", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure path
            pytest.fail(f"python block in {name} failed: {error}\n---\n{source}")


def _command_lines():
    for name, source in _blocks("bash"):
        for raw in source.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                yield name, line


def test_bash_blocks_reference_real_files():
    lines = list(_command_lines())
    assert lines, "expected at least one bash block in the docs"
    for name, line in lines:
        parts = shlex.split(line)
        for part in parts:
            # Any token that looks like a repo-relative path must exist.
            if ("/" in part or part.endswith(".py")) and not part.startswith("-"):
                candidate = REPO_ROOT / part
                if part.startswith(("http", "repro.")):
                    continue
                assert candidate.exists(), f"{name}: {line!r} references missing {part!r}"


def test_cli_invocations_parse():
    from repro.cli import build_parser

    parser = build_parser()
    checked = 0
    for name, line in _command_lines():
        parts = shlex.split(line)
        if parts[:3] == ["python", "-m", "repro.cli"]:
            args = [a for a in parts[3:] if a != "--help"]
            try:
                parser.parse_intermixed_args(args)  # as repro.cli.main parses
            except SystemExit:
                pytest.fail(f"{name}: CLI invocation no longer parses: {line!r}")
            checked += 1
    assert checked >= 5, "expected the README to document several CLI invocations"


def test_cli_sweep_scenarios_in_docs_are_registered():
    """--scenario values mentioned in docs must exist in the registry."""
    from repro.sim.scenarios import available_scenarios

    names = set(available_scenarios())
    for name, line in _command_lines():
        parts = shlex.split(line)
        if "--scenario" in parts:
            value = parts[parts.index("--scenario") + 1]
            assert value in names, f"{name}: scenario {value!r} is not registered"


def test_layout_table_paths_exist():
    readme = (REPO_ROOT / "README.md").read_text()
    paths = re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE)
    assert len(paths) >= 8, "the repo layout table looks truncated"
    for path in paths:
        if path.startswith("python"):
            continue
        assert (REPO_ROOT / path).exists(), f"layout table references missing {path!r}"


def test_architecture_named_symbols_exist():
    """Functions/modules the architecture doc leans on must be importable."""
    from oracles.mimo import (  # noqa: F401
        alignment_subspaces_reference,
        announced_subspace_reference,
        compute_precoders_reference,
        post_projection_snr_reference,
    )
    from oracles.network import PerPairNetwork  # noqa: F401
    from oracles.phy import (  # noqa: F401
        estimate_mimo_channel_reference,
        viterbi_decode_reference,
    )
    from oracles.runner import (  # noqa: F401
        PerAgentLoop,
        RecomputingPlanCache,
        run_simulation_condensed_reference,
        slot_aligned_idle_end_reference,
    )
    from repro.sim.link_abstraction import announced_decoding_subspace  # noqa: F401
    from repro.sim.runner import _EventDrivenLoop, _slot_aligned_idle_end  # noqa: F401
    from repro.sim.spec import placement_seed  # noqa: F401
    from repro.sim.sweep import run_sweep  # noqa: F401
    from repro.channel.testbed import dense_testbed  # noqa: F401
    from repro.sim.network import Network
    from repro.sim.traffic import TrafficStateArrays  # noqa: F401

    assert hasattr(Network, "reseed_estimation_noise")
