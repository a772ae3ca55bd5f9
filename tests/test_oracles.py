"""``src/`` defines only what the simulator runs; test-only code lives in ``tests/``.

Readable reference forms live in ``tests/oracles`` and test tools in
``tests/helpers.py``.  Three rules keep the split honest here, and
``tests/test_reachability.py`` adds the fourth:

* no function or method under ``src/repro`` is named ``*_reference`` --
  a readable formulation the production code is checked against is a
  test oracle, so it belongs to the test suite;
* every public function and class in ``tests/oracles`` and
  ``tests/helpers.py`` is imported by at least one test module, and every
  private helper there is used by its own module -- an oracle nobody
  checks against is dead code;
* every module under ``src/repro`` is imported by code the simulator
  runs -- ``repro.cli``, the examples, the benchmarks or perfbench -- so
  a module only its own tests import is deleted or becomes an oracle;
* every function and method under ``src/repro`` is *executed* by a run
  of the simulator, or allowlisted with its reason
  (``tests/reachability.py``).  A function only tests call is deleted, or
  moves to ``tests/oracles`` (a form production is checked against) or
  ``tests/helpers.py`` (a test tool).

One more rule keeps the imports honest: every name a module under
``src/repro`` or ``tests/`` imports is used in that module or listed in
its ``__all__`` (``from __future__`` imports and lines marked
``# noqa: F401`` excepted) -- an import nothing reads costs load time and
misleads a reader about what the module depends on.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

TESTS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_ROOT.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ORACLES_ROOT = TESTS_ROOT / "oracles"
#: Directories whose top-level scripts run the package besides
#: ``repro.cli`` (``perfbench/tests`` is a subdirectory, so not globbed).
ENTRY_SCRIPTS = ("examples", "benchmarks", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _test_tool_modules() -> Dict[str, Path]:
    """``{dotted name: path}`` of the oracles and the test-tool module."""
    modules = {
        f"oracles.{path.stem}": path
        for path in sorted(ORACLES_ROOT.glob("*.py"))
        if path.name != "__init__.py"
    }
    modules["helpers"] = TESTS_ROOT / "helpers.py"
    return modules


def _oracle_definitions() -> Dict[Tuple[str, str], bool]:
    """``{(module, name): is_public}`` of every top-level def in the oracles
    and the test tools."""
    definitions = {}
    for module, path in _test_tool_modules().items():
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[(module, node.name)] = not node.name.startswith("_")
    return definitions


def _imported_oracles() -> Set[Tuple[str, str]]:
    """``(module, name)`` pairs test modules import from the oracles or
    the test tools."""
    modules = _test_tool_modules()
    imported = set()
    for path in TESTS_ROOT.rglob("test_*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                imported.update((node.module, alias.name) for alias in node.names)
    return imported


def _names_used(tree: ast.AST) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _package_modules() -> Dict[str, Path]:
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


#: A ``"module:Name"`` path to a package object, imported by name at run time.
_MODULE_PATH = re.compile(r"(repro(?:\.\w+)+):\w+")


def _imported_modules(tree: ast.AST, modules: Dict[str, Path]) -> Set[str]:
    """Package modules that ``tree`` imports, at any depth of the file.

    ``from package import submodule`` counts as importing the submodule,
    and a ``"repro.module:Name"`` string (how the protocol registry names
    a built-in agent it imports on first use) as importing the module.
    """
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _MODULE_PATH.fullmatch(node.value)
            if match:
                imported.add(match.group(1))
    return imported & modules.keys()


def _modules_the_simulator_runs() -> Set[str]:
    """Package modules imported by a non-``__init__`` module that running
    ``repro.cli``, an example, a benchmark or perfbench reaches.

    Package ``__init__`` re-exports are not followed: a module that only
    its package advertises is not run by anything.
    """
    modules = _package_modules()
    trees = {
        name: _parse(path) for name, path in modules.items() if path.name != "__init__.py"
    }
    frontier = {"repro.cli"}
    for directory in ENTRY_SCRIPTS:
        for path in sorted((REPO_ROOT / directory).glob("*.py")):
            frontier |= _imported_modules(_parse(path), modules)
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        if name in trees:
            frontier |= _imported_modules(trees[name], modules) - reached
    return reached


def test_every_package_module_is_run_by_the_simulator():
    run = _modules_the_simulator_runs()
    unrun = sorted(
        name
        for name, path in _package_modules().items()
        if path.name != "__init__.py" and name not in run
    )
    assert unrun == [], (
        "modules nothing but tests imports (delete them, or move them to "
        "tests/oracles): " + ", ".join(unrun)
    )


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
        f"{module}.{name}"
        for (module, name), public in definitions.items()
        if public and (module, name) not in imported
    )
    assert unused == [], "oracles or test tools no test imports: " + ", ".join(unused)


def test_every_private_oracle_helper_is_used():
    unused = []
    modules = _test_tool_modules()
    for (module, name), public in _oracle_definitions().items():
        if public:
            continue
        if name not in _names_used(_parse(modules[module])):
            unused.append(f"{module}.{name}")
    assert unused == [], "unused oracle helpers: " + ", ".join(sorted(unused))


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.AST) -> Set[str]:
    """Every bare name ``tree`` reads, including those inside quoted
    (forward-reference) annotations."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value, mode="eval"))
    return read


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def _unused_imports(path: Path) -> List[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    kept = _names_read(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in kept:
                unused.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}")
    return unused


def test_every_package_import_is_used():
    unused = [
        entry
        for root in (PACKAGE_ROOT, TESTS_ROOT)
        for path in sorted(root.rglob("*.py"))
        for entry in _unused_imports(path)
    ]
    assert unused == [], "imports nothing in their module reads: " + ", ".join(unused)
