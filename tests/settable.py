"""Settable parameters of ``src/repro``: every default some run overrides.

A defaulted parameter is a setting, and every setting is a configuration
the tests must cover.  This static check lists the defaulted parameters
of the module-level functions and of the methods of module-level classes
under ``src/repro``, and the calls made anywhere under ``src/``,
``benchmarks/``, ``examples/`` and ``perfbench/``.  A parameter no call
there sets is flagged: it is a constant that only tests vary.

How a call is matched and what it sets:

* a call matches every function of the called name: ``f(...)`` and
  ``obj.f(...)`` match each ``f``, and ``C(...)`` matches
  ``C.__init__`` (``super().__init__(...)`` names no class and matches
  nothing);
* it sets each parameter it passes by keyword, and each parameter it
  fills by position (a method's ``self``/``cls`` is skipped; ``*args``
  sets every positional parameter from its place on);
* ``functools.partial(f, ...)`` is a call of ``f`` with the remaining
  arguments;
* a ``**`` argument forwards, and so sets, every parameter.

Dataclass fields and CLI flags are out of scope: neither is a function
parameter.  A flagged parameter that callers do set -- through a
variable holding a class, say -- is named in the allowlist
(``tests/settable_allowlist.txt``) with its reason; an entry without a
reason, or naming a parameter that is not flagged, fails the guard too.
Run it as::

    python tests/settable.py      # or: make settable

It prints each flagged parameter as ``path:line function(param=default)``
and exits non-zero when anything is flagged.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

TESTS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_ROOT.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ALLOWLIST = TESTS_ROOT / "settable_allowlist.txt"
#: Trees whose calls count as setting a parameter.
CALLER_ROOTS = tuple(REPO_ROOT / name for name in ("src", "benchmarks", "examples", "perfbench"))

#: ``(path relative to the package's parent, qualified function name)``.
Key = Tuple[str, str]


@dataclass(frozen=True)
class Parameter:
    """One defaulted parameter of a package function."""

    path: str  # relative to the package's parent, e.g. "repro/cli.py"
    qualname: str  # e.g. "Network.__init__"
    line: int
    name: str
    default: str  # the default's source text

    @property
    def key(self) -> Key:
        return (self.path, self.qualname)

    def describe(self) -> str:
        return f"{self.path}:{self.line} {self.qualname}({self.name}={self.default})"


@dataclass(frozen=True)
class Signature:
    """What a call needs to know of a function: its name, positional
    parameters (``self``/``cls`` dropped for a method) and defaults."""

    key: Key
    positional: Tuple[str, ...]
    defaulted: Tuple[Parameter, ...]

    @property
    def call_name(self) -> str:
        return self.key[1].rpartition(".")[2]


def _is_static(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def _signature(node: ast.FunctionDef, qualname: str, path: str, method: bool) -> Signature:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = [
        (arg, default)
        for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults)
    ]
    defaulted += [
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    if method and not _is_static(node):
        positional = positional[1:]
    return Signature(
        (path, qualname),
        tuple(positional),
        tuple(
            Parameter(path, qualname, default.lineno, name, ast.unparse(default))
            for name, default in defaulted
        ),
    )


def package_signatures(package_root: Path = PACKAGE_ROOT) -> List[Signature]:
    """Every module-level function and method of a module-level class."""
    found = []
    for file in sorted(package_root.rglob("*.py")):
        path = file.relative_to(package_root.parent).as_posix()
        for node in ast.parse(file.read_text(), filename=str(file)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(_signature(node, node.name, path, method=False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{node.name}.{item.name}"
                        found.append(_signature(item, qualname, path, method=True))
    return found


# -- what the callers set --------------------------------------------------------

#: A call reduced to what matching needs: the called name, the number of
#: positional arguments before any ``*args``, whether there is a
#: ``*args``, the keywords passed and whether a ``**`` argument forwards
#: the rest.
Call = Tuple[str, int, bool, Tuple[str, ...], bool]


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _reduce(name: str, args: Sequence[ast.expr], keywords: Sequence[ast.keyword]) -> Call:
    starred = next((i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)), None)
    n_positional = len(args) if starred is None else starred
    names = tuple(k.arg for k in keywords if k.arg is not None)
    forwards = any(k.arg is None for k in keywords)
    return (name, n_positional, starred is not None, names, forwards)


def calls_in(source: str, filename: str = "<source>") -> Iterator[Call]:
    """Every call in ``source``; ``partial(f, ...)`` also yields a call of ``f``."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node.func)
        yield _reduce(name, node.args, node.keywords)
        if name == "partial" and node.args and not isinstance(node.args[0], ast.Starred):
            yield _reduce(_called_name(node.args[0]), node.args[1:], node.keywords)


def caller_calls(roots: Iterable[Path] = CALLER_ROOTS) -> List[Call]:
    """Every call made in the ``.py`` files under ``roots``."""
    found = []
    for root in roots:
        for file in sorted(root.rglob("*.py")):
            found.extend(calls_in(file.read_text(), filename=str(file)))
    return found


def set_parameters(signatures: Sequence[Signature], calls: Iterable[Call]) -> Set[Tuple[Key, str]]:
    """``(function key, parameter)`` of every parameter some call sets."""
    by_name: Dict[str, List[Signature]] = {}
    for signature in signatures:
        name = signature.call_name
        if name == "__init__":  # called by its class's name
            name = signature.key[1].partition(".")[0]
        by_name.setdefault(name, []).append(signature)
    found = set()
    for name, n_positional, starred, keywords, forwards in calls:
        for signature in by_name.get(name, ()):
            names = {p.name for p in signature.defaulted}
            if forwards:
                hit = names
            else:
                filled = signature.positional if starred else signature.positional[:n_positional]
                hit = names & (set(filled) | set(keywords))
            found.update((signature.key, param) for param in hit)
    return found


# -- the guard --------------------------------------------------------------------


def load_allowlist(text: str) -> Dict[Tuple[Key, str], str]:
    """``{((path, qualname), param): reason}`` from the allowlist text.

    One line per function: ``path qualname(param, param): reason``.
    Blank lines and ``#`` comments are skipped; a missing reason is kept
    as ``""`` so :func:`check` can report it.
    """
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, _, reason = line.partition(":")
        path, _, call = target.strip().partition(" ")
        qualname, _, params = call.partition("(")
        for param in params.rstrip(") ").split(","):
            entries[((path, qualname.strip()), param.strip())] = reason.strip()
    return entries


def check(
    signatures: Sequence[Signature],
    calls: Iterable[Call],
    allowlist: Dict[Tuple[Key, str], str],
) -> Tuple[List[Parameter], List[str]]:
    """``(flagged parameters, allowlist problems)``.

    A defaulted parameter is flagged when no call sets it and the
    allowlist does not name it.  An allowlist entry is a problem when it
    gives no reason, or when its parameter is set or does not exist.
    """
    set_by_callers = set_parameters(signatures, calls)
    unset = [
        param
        for signature in signatures
        for param in signature.defaulted
        if (param.key, param.name) not in set_by_callers
    ]
    flagged = [p for p in unset if (p.key, p.name) not in allowlist]
    unset_names = {(p.key, p.name) for p in unset}
    problems = []
    for ((path, qualname), param), reason in sorted(allowlist.items()):
        where = f"{path} {qualname}({param})"
        if not reason:
            problems.append(f"{where}: allowlisted without a reason")
        if ((path, qualname), param) not in unset_names:
            problems.append(f"{where}: allowlisted but set by a caller or not defaulted")
    return flagged, problems


def main() -> int:
    signatures = package_signatures()
    flagged, problems = check(signatures, caller_calls(), load_allowlist(ALLOWLIST.read_text()))
    for param in flagged:
        print(param.describe())
    for problem in problems:
        print(problem)
    total = sum(len(signature.defaulted) for signature in signatures)
    print(
        f"{total} defaulted parameters, {len(flagged)} flagged, "
        f"{len(problems)} allowlist problems",
        file=sys.stderr,
    )
    return 1 if flagged or problems else 0


if __name__ == "__main__":
    sys.exit(main())
