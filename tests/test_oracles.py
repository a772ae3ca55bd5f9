"""Reference implementations live in ``tests/oracles``, not in the package.

Two rules keep the split honest:

* no function or method under ``src/repro`` is named ``*_reference`` --
  a readable formulation the production code is checked against is a
  test oracle, so it belongs to the test suite;
* every public function and class in ``tests/oracles`` is imported by at
  least one test module, and every private helper there is used by its
  own module -- an oracle nobody checks against is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

TESTS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_ROOT.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ORACLES_ROOT = TESTS_ROOT / "oracles"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _oracle_definitions() -> Dict[Tuple[str, str], bool]:
    """``{(module, name): is_public}`` of every top-level def in the oracles."""
    definitions = {}
    for path in sorted(ORACLES_ROOT.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[(path.stem, node.name)] = not node.name.startswith("_")
    return definitions


def _imported_oracles() -> Set[Tuple[str, str]]:
    """``(module, name)`` pairs test modules import from ``oracles.*``."""
    imported = set()
    for path in TESTS_ROOT.rglob("test_*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "oracles."
            ):
                module = node.module.split(".", 1)[1]
                imported.update((module, alias.name) for alias in node.names)
    return imported


def _names_used(tree: ast.AST) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_no_reference_functions_in_the_package():
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for node in _functions(_parse(path))
        if node.name.endswith("_reference")
    ]
    assert offenders == [], (
        "reference implementations belong in tests/oracles: " + ", ".join(offenders)
    )


def test_every_public_oracle_is_imported_by_a_test():
    definitions = _oracle_definitions()
    assert definitions, "tests/oracles defines nothing"
    imported = _imported_oracles()
    unused = sorted(
        f"oracles.{module}.{name}"
        for (module, name), public in definitions.items()
        if public and (module, name) not in imported
    )
    assert unused == [], "oracles no test imports: " + ", ".join(unused)


def test_every_private_oracle_helper_is_used():
    unused = []
    for (module, name), public in _oracle_definitions().items():
        if public:
            continue
        tree = _parse(ORACLES_ROOT / f"{module}.py")
        calls = _names_used(tree)
        if name not in calls:
            unused.append(f"oracles.{module}.{name}")
    assert unused == [], "unused oracle helpers: " + ", ".join(sorted(unused))
