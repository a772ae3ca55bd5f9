"""The execution-reachability guard (``tests/reachability.py``).

Every function and method under ``src/repro`` is one a run of the
simulator executes, or one the allowlist names with its reason.  The
slow test runs the guard itself (``make reachability``); the others pin
its rules on a planted package, where what runs is known exactly.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from reachability import (
    ALLOWLIST,
    PACKAGE_ROOT,
    REPO_ROOT,
    CallRecorder,
    Function,
    check,
    load_allowlist,
    package_functions,
)

_MODULE = textwrap.dedent(
    """
    import os
    import signal


    def deco(fn):
        return fn


    class Live:
        def can_join(self):
            return True

        def never(self):
            return 0

        @property
        def size(self):
            return 1

        class Inner:
            def method(self):
                return 2


    def can_join():
        return False


    @deco
    def decorated():
        return 3


    def outer():
        def inner_called():
            return 4

        def inner_never():
            return 5

        return inner_called()


    if True:
        def conditional():
            return 6


    def in_a_thread():
        return 7


    def in_a_worker(path):
        with open(path, "w") as out:
            out.write("ran")


    def in_a_killed_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _in_process(target, *args):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork")
    worker = multiprocessing.get_context("fork").Process(target=target, args=args)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()


def _in_a_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()


#: case -> (entry run under the recorder, {qualname: flagged?}).  Matching
#: by bare name would keep ``can_join`` alive (``Live.can_join`` is named
#: and called); matching by execution tells them apart.
_CASES = {
    "a dead namesake of a live method is flagged": (
        lambda mod, tmp: mod.Live().can_join(),
        {"Live.can_join": False, "can_join": True},
    ),
    "an uncalled method of a used class is flagged": (
        lambda mod, tmp: mod.Live().can_join(),
        {"Live.never": True},
    ),
    "a property runs when read": (
        lambda mod, tmp: mod.Live().size,
        {"Live.size": False},
    ),
    "a nested class's method is matched": (
        lambda mod, tmp: mod.Live.Inner().method(),
        {"Live.Inner.method": False},
    ),
    "a decorated function is matched at its decorator line": (
        lambda mod, tmp: mod.decorated(),
        {"decorated": False},
    ),
    "an uncalled nested function is flagged": (
        lambda mod, tmp: mod.outer(),
        {
            "outer": False,
            "outer.<locals>.inner_called": False,
            "outer.<locals>.inner_never": True,
        },
    ),
    "a conditional definition is matched": (
        lambda mod, tmp: mod.conditional(),
        {"conditional": False},
    ),
    "a function only a thread runs is recorded": (
        lambda mod, tmp: _in_a_thread(mod.in_a_thread),
        {"in_a_thread": False},
    ),
    "a function only a forked worker runs is recorded": (
        lambda mod, tmp: _in_process(mod.in_a_worker, str(tmp / "ran")),
        {"in_a_worker": False},
    ),
    "a SIGKILLed worker records nothing": (
        lambda mod, tmp: _in_process(mod.in_a_killed_worker),
        {"in_a_killed_worker": True},
    ),
}


@pytest.fixture
def planted(tmp_path, monkeypatch):
    """The package ``planted``, its one module ``mod`` being ``_MODULE``."""
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package
    for name in ("planted.mod", "planted"):
        sys.modules.pop(name, None)


def _run_and_check(package, tmp_path, allowlist, entry):
    """Run ``entry(module, tmp_path)`` under the recorder; ``(flagged
    qualnames, allowlist problems)``."""
    records = tmp_path / "records"
    records.mkdir()
    recorder = CallRecorder(package, records)
    module = importlib.import_module("planted.mod")
    recorder.start()
    try:
        entry(module, tmp_path)
    finally:
        recorder.stop()
    flagged, problems = check(package_functions(package), recorder.sites(), allowlist)
    return [function.qualname for function in flagged], problems


@pytest.mark.parametrize("case", sorted(_CASES))
def test_the_guard_on_a_planted_package(planted, tmp_path, case):
    entry, expected = _CASES[case]
    flagged, problems = _run_and_check(planted, tmp_path, {}, entry)
    assert {name: name in flagged for name in expected} == expected
    assert problems == []


def test_allowlisted_functions_with_a_reason_pass(planted, tmp_path):
    allowlist = {
        (function.path, function.qualname): "kept for a stated reason"
        for function in package_functions(planted)
        if function.qualname != "Live.can_join"
    }
    outcome = _run_and_check(
        planted, tmp_path, allowlist, lambda mod, tmp: mod.Live().can_join()
    )
    assert outcome == ([], [])


@pytest.mark.parametrize(
    "entry, problem",
    [
        (("planted/mod.py", "can_join", ""), "allowlisted without a reason"),
        (("planted/mod.py", "Live.can_join", "stale"), "allowlisted but executed"),
        (("planted/mod.py", "deleted_helper", "stale"), "allowlisted but no longer defined"),
    ],
    ids=["no reason", "executed", "gone"],
)
def test_a_bad_allowlist_entry_fails(planted, tmp_path, entry, problem):
    path, qualname, reason = entry
    _, problems = _run_and_check(
        planted, tmp_path, {(path, qualname): reason}, lambda mod, tmp: mod.Live().can_join()
    )
    assert f"{path} {qualname}: {problem}" in problems


def test_a_flagged_function_prints_as_path_line_name_and_length():
    function = Function("repro/mimo/dof.py", "can_join", 64, 3)
    assert function.describe() == "repro/mimo/dof.py:64 can_join (3 lines)"


def test_the_allowlist_format():
    text = (
        "# comment\n"
        "\n"
        "repro/a.py Outer.method: why it stays\n"
        "repro/b.py helper:\n"
    )
    assert load_allowlist(text) == {
        ("repro/a.py", "Outer.method"): "why it stays",
        ("repro/b.py", "helper"): "",
    }


def test_every_committed_allowlist_entry_names_a_function_and_a_reason():
    defined = {(f.path, f.qualname) for f in package_functions(PACKAGE_ROOT)}
    for (path, qualname), reason in load_allowlist(ALLOWLIST.read_text()).items():
        assert reason, f"{path} {qualname}: no reason given"
        assert (path, qualname) in defined, f"{path} {qualname}: not defined"


@pytest.mark.slow
def test_every_package_function_is_executed_or_allowlisted():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tests" / "reachability.py")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        "functions no run executes (delete them, move them under tests/, or "
        "allowlist them with a reason):\n" + result.stdout + result.stderr[-2000:]
    )
