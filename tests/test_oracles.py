"""``src/`` defines only what the simulator runs; test-only code lives in ``tests/``.

Readable reference forms live in ``tests/oracles`` and test tools in
``tests/helpers.py``.  Four rules keep the split honest:

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
* every top-level function, class and constant of a ``src/repro`` module,
  and every non-dunder method of those classes, is named by code the
  simulator runs (:func:`unused_symbols`).  Package ``__init__``
  re-exports, ``__all__`` entries, strings and a definition's own body
  are not uses; the names perfbench's tracer wraps are.  A symbol only
  tests call is deleted, or moves to ``tests/oracles`` (a form production
  is checked against) or ``tests/helpers.py`` (a test tool).
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

TESTS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_ROOT.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ORACLES_ROOT = TESTS_ROOT / "oracles"
#: Directories whose top-level scripts run the package besides
#: ``repro.cli`` (``perfbench/tests`` is a subdirectory, so not globbed).
ENTRY_SCRIPTS = ("examples", "benchmarks", "perfbench")
#: Documents whose ``python`` blocks ``tests/test_docs.py`` executes.
DOCS = (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md")


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


def _imported_modules(tree: ast.AST, modules: Dict[str, Path]) -> Set[str]:
    """Package modules that ``tree`` imports, at any depth of the file.

    ``from package import submodule`` counts as importing the submodule.
    """
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
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


# -- symbol-level reachability ------------------------------------------------

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class _Definition:
    """A package symbol: what it is called and what using it reaches."""

    label: str
    name: str
    body: Tuple[ast.AST, ...]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constant_names(node: ast.stmt) -> Optional[List[str]]:
    """Names a top-level assignment to plain names defines; ``None`` for
    any other statement (``TABLE[key] = f`` is a registration, not a
    definition)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return None
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        if not all(isinstance(element, ast.Name) for element in elements):
            return None
        names.extend(element.id for element in elements)
    return names


def _without_docstring(body: List[ast.stmt]) -> List[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _module_symbols(
    label: str, tree: ast.Module, defines: bool
) -> Tuple[List[_Definition], List[ast.AST], List[ast.AST]]:
    """``(definitions, module-level statements, decorated definitions)``.

    A class's body -- bases, decorators, class-level statements and its
    dunders -- is reached with the class; each other method is its own
    definition.  Imports and docstrings are not statements that use names.
    ``defines=False`` (a package ``__init__``) defines nothing.
    """
    definitions: List[_Definition] = []
    statements: List[ast.AST] = []
    decorated: List[ast.AST] = []
    for node in _without_docstring(tree.body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if defines and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions.append(_Definition(f"{label} {node.name}", node.name, (node,)))
            if node.decorator_list:
                decorated.append(node)
        elif defines and isinstance(node, ast.ClassDef):
            body: List[ast.AST] = [*node.decorator_list, *node.bases, *node.keywords]
            for member in _without_docstring(node.body):
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not _is_dunder(member.name):
                    definitions.append(
                        _Definition(
                            f"{label} {node.name}.{member.name}", member.name, (member,)
                        )
                    )
                    if member.decorator_list:
                        decorated.append(member)
                else:
                    body.append(member)
            definitions.append(_Definition(f"{label} {node.name}", node.name, tuple(body)))
        elif defines and _constant_names(node) is not None:
            definitions.extend(
                _Definition(f"{label} {name}", name, (node.value,) if node.value else ())
                for name in _constant_names(node)
                if not _is_dunder(name)
            )
        else:
            statements.append(node)
    return definitions, statements, decorated


def _names_in(nodes: Iterable[ast.AST]) -> Set[str]:
    """``Name``/``Attribute`` names in ``nodes``; strings are not names."""
    used: Set[str] = set()
    for node in nodes:
        used |= _names_used(node)
    return used


def unused_symbols(
    package_root: Path, entry_sources: Iterable[str], boundary_names: Iterable[str]
) -> List[str]:
    """Package symbols that nothing the simulator runs names.

    Reached code starts from the ``entry_sources`` (whole files or doc
    blocks), every module-level statement, every function a package
    decorator registers and the ``boundary_names``; it then follows the
    body of each used definition.  Matching is by bare name, so a name
    used anywhere reached keeps every symbol of that name: the scan never
    flags live code, at the price of missing some dead code.
    """
    definitions: List[_Definition] = []
    roots: List[ast.AST] = []
    decorated: List[ast.AST] = []
    for path in sorted(package_root.rglob("*.py")):
        label = str(path.relative_to(package_root.parent))
        found, statements, registered = _module_symbols(
            label, _parse(path), defines=path.name != "__init__.py"
        )
        definitions += found
        roots += statements
        decorated += registered
    defined = {definition.name for definition in definitions}
    used = _names_in(roots) | set(boundary_names)
    for node in decorated:
        decorators = _names_in(
            decorator.func if isinstance(decorator, ast.Call) else decorator
            for decorator in node.decorator_list
        )
        if decorators & defined:
            used.add(node.name)
    for source in entry_sources:
        used |= _names_used(ast.parse(source))
    pending = list(definitions)
    while True:
        reached = [definition for definition in pending if definition.name in used]
        if not reached:
            break
        pending = [definition for definition in pending if definition.name not in used]
        for definition in reached:
            used |= _names_in(definition.body)
    return sorted(definition.label for definition in pending)


def _entry_sources() -> List[str]:
    sources = [
        path.read_text()
        for directory in ENTRY_SCRIPTS
        for path in sorted((REPO_ROOT / directory).glob("*.py"))
    ]
    for doc in DOCS:
        sources += _PYTHON_BLOCK.findall(doc.read_text())
    return sources


def _perfbench_boundary_names() -> Set[str]:
    """Names perfbench's tracer looks up: they must exist even if unused."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    boundaries = (*tracer.BOUNDARIES, tracer.PLAN_CACHE_FACTORY)
    return {name for boundary in boundaries for name in boundary.attribute.split(".")}


def test_every_package_symbol_is_run_by_the_simulator():
    unused = unused_symbols(PACKAGE_ROOT, _entry_sources(), _perfbench_boundary_names())
    assert unused == [], (
        f"{len(unused)} symbols nothing but tests uses (delete them, or move "
        "them under tests/):\n" + "\n".join(unused)
    )


# -- the symbol guard on planted packages --------------------------------------

_MODULE = """
LIMIT = 3


def used():
    return 1


def unused():
    return used()


class Thing:
    def __init__(self):
        self.value = LIMIT_IN_INIT

    def kept(self):
        return 0

    def dropped(self):
        return 1
"""

_CASES = {
    "unused function, method and constant are flagged": (
        {"mod.py": _MODULE.replace("LIMIT_IN_INIT", "0")},
        "from pkg.mod import Thing, used\nThing().kept()\nused()\n",
        (),
        ["LIMIT", "Thing.dropped", "unused"],
    ),
    "a dunder of a used class reaches its body": (
        {"mod.py": _MODULE.replace("LIMIT_IN_INIT", "LIMIT")},
        "from pkg.mod import Thing, used\nThing().kept()\nused()\n",
        (),
        ["Thing.dropped", "unused"],
    ),
    "__all__ is not a use": (
        {"mod.py": '__all__ = ["helper"]\n\n\ndef helper():\n    pass\n'},
        "import pkg.mod\n",
        (),
        ["helper"],
    ),
    "a package re-export is not a use": (
        {
            "__init__.py": "from pkg.mod import helper\n",
            "mod.py": "def helper():\n    pass\n",
        },
        "import pkg\n",
        (),
        ["helper"],
    ),
    "a docstring or string mention is not a use": (
        {"mod.py": '"""Call helper() first."""\n\n\ndef helper():\n    pass\n'},
        '"""See helper."""\nname = "helper"\n',
        (),
        ["helper"],
    ),
    "a definition's own body is not a use": (
        {"mod.py": "def walk(n):\n    return walk(n - 1) if n else 0\n"},
        "import pkg.mod\n",
        (),
        ["walk"],
    ),
    "a decorator registration is a use": (
        {
            "mod.py": textwrap.dedent(
                """
                _REGISTRY = {}


                def register(name):
                    def wrap(fn):
                        _REGISTRY[name] = fn
                        return fn

                    return wrap


                @register("plugin")
                def plugin():
                    pass
                """
            )
        },
        "import pkg.mod\n",
        (),
        [],
    ),
    "a module-level registration is a use": (
        {"mod.py": "def factory():\n    pass\n\n\nTABLE = {}\nTABLE['a'] = factory\n"},
        "import pkg.mod\n",
        (),
        [],
    ),
    "a perfbench boundary name is a use": (
        {"mod.py": "class Store:\n    def mark_pending(self):\n        pass\n"},
        "from pkg.mod import Store\n",
        ("Store", "mark_pending"),
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_symbol_guard_on_a_planted_package(tmp_path, case):
    files, entry, boundaries, expected = _CASES[case]
    package = tmp_path / "pkg"
    package.mkdir()
    for name, text in files.items():
        (package / name).write_text(text)
    flagged = unused_symbols(package, [entry], boundaries)
    assert [label.split(" ", 1)[1] for label in flagged] == expected
