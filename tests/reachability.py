"""Execution reachability of ``src/repro``: every function a run enters.

The guard runs two entry sets under a stdlib ``sys.setprofile`` hook and
records every ``src/repro`` code object that is entered:

* the *happy* set -- ``repro all --quick``; a sweep of every scenario
  family with every registered protocol variant under
  ``--validation full``; ``--fidelity auto`` and ``full``; a cached sweep,
  its ``--resume`` and ``results``; a 500-station sweep; a 2-worker sweep;
  ``validate-fidelity``; every example; and the README/ARCHITECTURE
  ``python`` blocks;
* the *adversity* set -- a sweep whose worker is SIGKILLed; a sweep
  interrupted with SIGINT and then resumed; a ``--fault-trace`` with a
  loss and a fade episode; a malformed trace; inputs refused up front; a
  NaN channel the numerical guards absorb; a fade episode on a link no
  plan has read yet (its channel response is computed by the fault
  kernels); and ``repro replay`` of a traced cell that broke an
  invariant, by its key, after its trace file is deleted.

Worker processes are followed: a forked worker records what it entered
and writes it out when it exits cleanly.  A worker that is SIGKILLed
writes nothing; the workers that survive cover its paths.

Every function or method under ``src/repro`` that no entry runs must be
listed in the allowlist (``tests/reachability_allowlist.txt``) with its
reason; an allowlist entry without a reason, or for a function that is
now executed or no longer exists, fails the guard too.  Run it as::

    PYTHONPATH=src python tests/reachability.py      # or: make reachability

It prints each flagged function as ``path:line name (n lines)`` and
exits non-zero when anything is flagged.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import multiprocessing.process
import os
import re
import runpy
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

TESTS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = TESTS_ROOT.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ALLOWLIST = TESTS_ROOT / "reachability_allowlist.txt"
#: Documents whose ``python`` blocks ``tests/test_docs.py`` executes.
DOCS = (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md")
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: ``(path relative to the package's parent, first line)`` of a function:
#: the first line is its first decorator's, as on the code object.
Site = Tuple[str, int]


# -- what the package defines --------------------------------------------------


@dataclass(frozen=True)
class Function:
    """A function or method defined under the package."""

    path: str  # relative to the package's parent, e.g. "repro/cli.py"
    qualname: str  # as on the code object, e.g. "Outer.method.<locals>.inner"
    first_line: int
    n_lines: int

    @property
    def site(self) -> Site:
        return (self.path, self.first_line)

    def describe(self) -> str:
        return f"{self.path}:{self.first_line} {self.qualname} ({self.n_lines} lines)"


def _walk_functions(
    body: Iterable[ast.stmt], prefix: str, path: str
) -> Iterator[Function]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield Function(path, qualname, first, node.end_lineno - first + 1)
            yield from _walk_functions(node.body, f"{qualname}.<locals>.", path)
        elif isinstance(node, ast.ClassDef):
            yield from _walk_functions(node.body, f"{prefix}{node.name}.", path)
        else:
            # Definitions nested in if/try/with/for blocks keep the prefix.
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _walk_functions(getattr(node, field, ()), prefix, path)


def package_functions(package_root: Path = PACKAGE_ROOT) -> List[Function]:
    """Every function and method (nested ones included) under the package."""
    found = []
    for file in sorted(package_root.rglob("*.py")):
        path = file.relative_to(package_root.parent).as_posix()
        tree = ast.parse(file.read_text(), filename=str(file))
        found.extend(_walk_functions(tree.body, "", path))
    return found


# -- recording what runs ---------------------------------------------------------


class CallRecorder:
    """Record the code objects entered under ``package_root``, forks included.

    ``start`` installs the profile hook on this thread and on threads
    started later; a process forked afterwards inherits the hook, starts
    from an empty record, and writes what it entered to ``out_dir`` when
    its ``multiprocessing`` bootstrap returns.  :meth:`sites` merges this
    process's record with every worker's.
    """

    def __init__(self, package_root: Path, out_dir: Path) -> None:
        self._prefix = str(package_root.resolve()) + os.sep
        self._root = package_root.resolve().parent
        self._out_dir = out_dir
        self._codes: Set[object] = set()
        self._owner = os.getpid()
        self._recording = False

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self._codes.add(frame.f_code)

    def _local_sites(self) -> Set[Site]:
        return {
            (Path(code.co_filename).relative_to(self._root).as_posix(), code.co_firstlineno)
            for code in list(self._codes)
            if code.co_filename.startswith(self._prefix)
        }

    def _dump(self) -> None:
        out = self._out_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        out.write_text(json.dumps(sorted(self._local_sites())))

    def _after_fork(self) -> None:
        if self._recording:
            self._codes = set()

    def start(self) -> None:
        recorder = self
        bootstrap = multiprocessing.process.BaseProcess._bootstrap

        def recording_bootstrap(process, *args, **kwargs):
            try:
                return bootstrap(process, *args, **kwargs)
            finally:
                if os.getpid() != recorder._owner:
                    recorder._dump()

        self._bootstrap = bootstrap
        multiprocessing.process.BaseProcess._bootstrap = recording_bootstrap
        self._recording = True
        os.register_at_fork(after_in_child=self._after_fork)
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        multiprocessing.process.BaseProcess._bootstrap = self._bootstrap
        self._recording = False

    def sites(self) -> Set[Site]:
        sites = self._local_sites()
        for record in self._out_dir.glob("worker-*.json"):
            sites.update((path, line) for path, line in json.loads(record.read_text()))
        return sites


# -- the guard --------------------------------------------------------------------


def load_allowlist(text: str) -> Dict[Tuple[str, str], str]:
    """``{(path, qualname): reason}`` from ``path qualname: reason`` lines.

    Blank lines and ``#`` comments are skipped; a missing reason is kept
    as ``""`` so :func:`check` can report it.
    """
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, _, reason = line.partition(":")
        path, _, qualname = target.strip().partition(" ")
        entries[(path, qualname.strip())] = reason.strip()
    return entries


def check(
    functions: List[Function],
    executed: Set[Site],
    allowlist: Dict[Tuple[str, str], str],
) -> Tuple[List[Function], List[str]]:
    """``(flagged functions, allowlist problems)``.

    A function is flagged when no entry executed it and the allowlist
    does not name it.  An allowlist entry is a problem when it gives no
    reason, or when every function it names is executed or none exists.
    """
    unreached = [f for f in functions if f.site not in executed]
    flagged = [f for f in unreached if (f.path, f.qualname) not in allowlist]
    unreached_names = {(f.path, f.qualname) for f in unreached}
    defined = {(f.path, f.qualname) for f in functions}
    problems = []
    for (path, qualname), reason in sorted(allowlist.items()):
        if not reason:
            problems.append(f"{path} {qualname}: allowlisted without a reason")
        if (path, qualname) not in defined:
            problems.append(f"{path} {qualname}: allowlisted but no longer defined")
        elif (path, qualname) not in unreached_names:
            problems.append(f"{path} {qualname}: allowlisted but executed")
    return flagged, problems


# -- the entry sets --------------------------------------------------------------

#: Every registered protocol variant, plus each non-default recovery policy.
PROTOCOLS = "802.11n,beamforming,csma,n+,n+[recovery=fast-retransmit],n+[recovery=erasure]"
#: One scenario of each family: the paper's testbeds, and the dense LAN
#: saturated, bursty and faulty.
SCENARIO_FAMILIES = (
    "two-pair",
    "three-pair",
    "heterogeneous-ap",
    "dense-lan-20",
    "dense-lan-20-bursty",
    "dense-lan-20-faulty",
)
#: One run, 20 ms simulated: enough for every code path, cheap to profile.
SHORT = ["--runs", "1", "--duration-ms", "20"]


def _cli(*argv: str, expect: int = 0) -> None:
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != expect:
        raise AssertionError(f"repro {' '.join(argv)} exited {code}, expected {expect}")


@contextlib.contextmanager
def _patched(owner, name: str, value) -> Iterator[None]:
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _happy_set(tmp: Path) -> List[Tuple[str, Callable[[], None]]]:
    cache = str(tmp / "happy-store")
    entries = [
        ("all --quick", lambda: _cli("all", "--quick", "--trials", "20", *SHORT)),
        ("scenarios", lambda: _cli("scenarios")),
        ("protocols", lambda: _cli("protocols")),
    ]
    for scenario in SCENARIO_FAMILIES:
        entries.append(
            (
                f"sweep {scenario}",
                lambda s=scenario: _cli(
                    "sweep", "--scenario", s, "--protocols", PROTOCOLS,
                    "--validation", "full", *SHORT,
                ),
            )
        )
    for fidelity in ("auto", "full"):
        entries.append(
            (
                f"sweep --fidelity {fidelity}",
                lambda f=fidelity: _cli(
                    "sweep", "--scenario", "dense-lan-20-bursty", "--protocols",
                    "802.11n,n+", "--fidelity", f, *SHORT,
                ),
            )
        )
    cached = ["sweep", "--scenario", "three-pair", "--cache-dir", cache, *SHORT]
    entries += [
        ("cached sweep", lambda: _cli(*cached)),
        ("cached sweep --resume", lambda: _cli(*cached, "--resume")),
        ("results", lambda: _cli("results", "--cache-dir", cache)),
        (
            "500-station sweep",
            lambda: _cli(
                "sweep", "--scenario", "dense-lan-500-bursty", "--protocols", "n+",
                "--runs", "1", "--duration-ms", "5",
            ),
        ),
        ("2-worker sweep", _two_worker_sweep),
        ("validate-fidelity", lambda: _cli("validate-fidelity", "--links", "4", *SHORT)),
    ]
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        entries.append((f"example {example.name}", lambda e=example: _run_example(e)))
    entries.append(("docs python blocks", _run_doc_blocks))
    return entries


@contextlib.contextmanager
def _environ(name: str, value: str) -> Iterator[None]:
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def _two_worker_sweep() -> None:
    """``--workers 0`` sizes the pool from ``REPRO_WORKERS``: 2 here."""
    with _environ("REPRO_WORKERS", "2"):
        _cli("sweep", "--scenario", "three-pair", "--workers", "0",
             "--runs", "2", "--duration-ms", "20")


def _run_example(path: Path) -> None:
    with _environ("REPRO_QUICK", "1"), contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")


def _run_doc_blocks() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for doc in DOCS:
            for source in _PYTHON_BLOCK.findall(doc.read_text()):
                exec(compile(source, f"<{doc.name} python block>", "exec"), {})


def _killed_worker(tmp: Path) -> None:
    """A sweep whose first ``build_network`` caller (process-wide, via a
    marker file) SIGKILLs its worker: the task is re-queued and succeeds."""
    from repro.sim import sweep
    from repro.sim.runner import SimulationConfig, build_network

    marker = tmp / "killed.marker"

    def building(scenario, run_seed, config):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return build_network(scenario, run_seed, config)
        os.kill(os.getpid(), signal.SIGKILL)

    with _patched(sweep, "build_network", building):
        result = sweep.run_sweep(
            "three-pair",
            ["802.11n", "n+"],
            n_runs=2,
            seed=4,
            config=SimulationConfig(duration_us=10_000.0, n_subcarriers=8),
            workers=2,
            cache_dir=tmp / "killed-store",
        )
    assert result.worker_deaths == 1 and not result.failures, result


def _interrupted_then_resumed(tmp: Path) -> None:
    from repro.sim import sweep

    done = sweep._Recorder._done

    def done_then_interrupt(recorder, cell, metrics):
        done(recorder, cell, metrics)
        os.kill(os.getpid(), signal.SIGINT)

    argv = ["sweep", "--scenario", "three-pair", "--workers", "2",
            "--cache-dir", str(tmp / "interrupted-store"),
            "--runs", "2", "--duration-ms", "20"]
    with _patched(sweep._Recorder, "_done", done_then_interrupt):
        try:
            _cli(*argv)
        except KeyboardInterrupt:
            pass
        else:
            raise AssertionError("the sweep finished before the interrupt")
    _cli(*argv, "--resume")


#: A tagged trace: a network-wide loss and a fade on link 0 -> 1.
_TRACE = [
    {"type": "loss", "start_us": 0, "duration_us": 5000, "loss_rate": 0.5},
    {"type": "fade", "start_us": 2000, "duration_us": 4000, "tx_id": 0, "rx_id": 1,
     "depth_db": 20.0},
]


def _fault_traces(tmp: Path) -> None:
    trace = tmp / "trace.json"
    trace.write_text(json.dumps(_TRACE))
    bad_trace = tmp / "bad.json"
    bad_trace.write_text(json.dumps([{**_TRACE[0], "duration_us": -5, "loss_rate": 2.0}]))
    _cli("sweep", "--scenario", "three-pair", "--protocols", "n+",
         "--fault-trace", str(trace), *SHORT)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _cli("sweep", "--scenario", "three-pair", "--fault-trace", str(bad_trace), *SHORT)
    except SystemExit:
        pass
    else:
        raise AssertionError("a malformed fault trace was accepted")


def _failed_cell_replayed(tmp: Path) -> None:
    """A traced faulty-scenario cell that breaks an (injected) invariant
    under ``--validation full``: the store marks it failed, ``results``
    lists it, and ``replay`` re-executes it by its key after its trace
    file is deleted, its fault schedule re-derived and its trace's
    episodes read from the manifest."""
    from repro.sim import invariants
    from repro.sim.store import ResultsStore

    @invariants.invariant("injected-violation")
    def _violated(suite, loop):
        suite.fail("injected-violation", loop, links=["injected"], detail="injected")

    store = tmp / "crash-store"
    trace = tmp / "crash-trace.json"
    trace.write_text(json.dumps(_TRACE))
    try:
        _cli("sweep", "--scenario", "dense-lan-20-faulty", "--protocols", "n+",
             "--validation", "full", "--fault-trace", str(trace),
             "--cache-dir", str(store), *SHORT, expect=1)
        _cli("results", "--cache-dir", str(store))
        trace.unlink()
        with ResultsStore(store) as results:
            (failed,) = results.query(status="failed")
        _cli("replay", "--cache-dir", str(store), failed.key[:12])
    finally:
        del invariants._REGISTRY["injected-violation"]


def _bad_input() -> None:
    """Inputs refused before anything runs: each error lists what exists."""
    for argv in (
        ["sweep", "--protocols", "no-such-protocol"],
        ["sweep", "--fault-profile", "no-such-profile"],
    ):
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                _cli(*argv, *SHORT)
        except SystemExit:
            continue
        raise AssertionError(f"repro {' '.join(argv)} was accepted")


def _poisoned_channel() -> None:
    """A NaN channel on one link: the numerical guards zero it and flag the
    member, and the planners quarantine the link instead of raising.  On
    link 0 -> 1 (c1 -> AP1, the ongoing reception a joiner must protect)
    AP1's announced decoding subspace degrades and n+ declines the join."""
    import numpy as np

    from repro.sim import sweep
    from repro.sim.runner import build_network

    def poisoned(tx, rx):
        def build(scenario, run_seed, config):
            network = build_network(scenario, run_seed, config)
            nan = np.full_like(network.channels.channel(tx, rx), np.nan)
            network.channels.update_links([(tx, rx, nan, network.channels.snr_db(tx, rx))])
            return network

        return build

    # AP2 -> c2 (the last pair's first receiver), then c1 -> AP1.
    for tx, rx in [(2, 3), (0, 1)]:
        with _patched(sweep, "build_network", poisoned(tx, rx)):
            _cli("sweep", "--scenario", "heterogeneous-ap", "--protocols", "beamforming,n+",
                 *SHORT)


def _fade_on_unread_link(tmp: Path) -> None:
    """A fade episode on a link no plan has read yet: the fault kernels
    compute its channel response first, then snapshot, scale and restore
    it."""
    from repro.sim.runner import SimulationConfig, build_network, run_simulation
    from repro.sim.scenarios import scenario_factory

    scenario = scenario_factory("three-pair")()
    # Two receivers: no stream is ever sent between them.
    rx_a, rx_b = (pair.receivers[0].node_id for pair in scenario.pairs[:2])
    trace = tmp / "unread-fade.json"
    trace.write_text(json.dumps([{"type": "fade", "start_us": 0.0, "duration_us": 2_000.0,
                                  "tx_id": rx_a, "rx_id": rx_b, "depth_db": 20.0}]))
    config = SimulationConfig(duration_us=5_000.0, fault_trace=str(trace))
    network = build_network(scenario, 0, config)
    group, slot, _ = network.channels.lookup(rx_a, rx_b)
    assert slot not in network.channels._responses[group]
    run_simulation(scenario, "n+", seed=0, config=config, network=network)
    assert slot in network.channels._responses[group]


def _adversity_set(tmp: Path) -> List[Tuple[str, Callable[[], None]]]:
    return [
        ("SIGKILLed worker", lambda: _killed_worker(tmp)),
        ("SIGINT, then --resume", lambda: _interrupted_then_resumed(tmp)),
        ("--fault-trace, and a malformed one", lambda: _fault_traces(tmp)),
        ("failed cell, results, replay", lambda: _failed_cell_replayed(tmp)),
        ("bad input", _bad_input),
        ("non-finite channel", _poisoned_channel),
        ("fade on a never-read link", lambda: _fade_on_unread_link(tmp)),
    ]


def executed_sites(verbose: bool = False) -> Set[Site]:
    """Run both entry sets under the recorder; the sites they entered."""
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tmp = Path(scratch)
        records = tmp / "records"
        records.mkdir()
        recorder = CallRecorder(PACKAGE_ROOT, records)
        entries = _happy_set(tmp) + _adversity_set(tmp)
        recorder.start()
        try:
            for name, entry in entries:
                start = time.perf_counter()
                entry()
                if verbose:
                    print(f"  {time.perf_counter() - start:5.1f} s  {name}", file=sys.stderr)
        finally:
            recorder.stop()
        return recorder.sites()


def main() -> int:
    start = time.perf_counter()
    executed = executed_sites(verbose="-v" in sys.argv[1:])
    functions = package_functions()
    flagged, problems = check(functions, executed, load_allowlist(ALLOWLIST.read_text()))
    for function in flagged:
        print(function.describe())
    for problem in problems:
        print(problem)
    print(
        f"{len(functions)} functions, {len(functions) - len(flagged)} executed or "
        f"allowlisted, {len(flagged)} flagged, {len(problems)} allowlist problems "
        f"({time.perf_counter() - start:.1f} s)",
        file=sys.stderr,
    )
    return 1 if flagged or problems else 0


if __name__ == "__main__":
    sys.exit(main())
