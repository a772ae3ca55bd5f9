"""Parallel experiment orchestration: sweep grids of (placement, protocol).

The paper's headline figures are Monte-Carlo sweeps -- many random node
placements, each simulated under several MAC protocols.  Each entry of
the ``n_runs x n_protocols`` grid is a :class:`Cell`, and this module
computes the grid

* **in parallel**, fanning *run-level tasks* out over supervised worker
  processes -- one task per placement, covering every protocol that
  missed the cache, so each run's network is drawn exactly **once** and
  shared by all protocols simulated on it.  Only when more workers than
  uncached runs are available does a run's cells split into chunks
  (each still sharing one draw), trading a few extra draws for full
  concurrency;
* **incrementally**, memoising every cell in a durable on-disk results
  store (:class:`~repro.sim.store.ResultsStore`, WAL-mode SQLite) keyed
  by ``(scenario, protocol, run seed, resolved run spec)`` so repeated
  figure invocations only recompute what actually changed, and a repeat
  of a finished sweep only reads the store; and
* **durably**: with a cache directory, every sweep records a *manifest*
  (grid, digests, seeds, run spec) up front and tracks each cell through
  ``pending -> running -> done/failed``, so a sweep killed mid-run --
  SIGINT, SIGTERM, OOM, reboot -- checkpoints (or is trivially
  reconstructible from committed cell states) and a re-invocation with
  ``resume=True`` completes exactly the unfinished cells.

One failure rule holds for every task: it is re-run only when its worker
dies (SIGKILL, the OOM killer), and then at most
:data:`~repro.sim.supervisor.MAX_REQUEUES` times.  A task that raises
fails its cells on the first attempt, since its replay would raise
again.  A hung worker holds its cells until the sweep is interrupted;
with a cache directory the interrupt checkpoints them, and a resume
re-runs them.

A sweep runs in three stages.  The **plan** stage resolves the config
once into a :class:`~repro.sim.spec.RunSpec`, lays out the grid as
cells, replays store hits and cuts the misses into tasks (lists of cells
sharing one run).  The **execute** stage consumes one stream of task
events --
:class:`~repro.sim.supervisor.WorkerSupervisor`'s for several workers,
:func:`~repro.sim.supervisor.in_process_events` for one.  The **record**
stage turns those events into store writes, :class:`FailedCell` records
and crash capsules.  Only the plan stage's modules are imported with this
one; the supervisor, the capsules and the round loop
(:mod:`repro.sim.runner`) are imported by the stages that use them, so a
sweep whose every cell is stored -- a replay -- never loads them.

All of this is possible because every cell is a pure function of its
coordinates: run ``r`` draws placements/channels from ``seed + 1000 * r``
and each protocol simulation runs with its own seeded RNG streams
(including the channel-estimation stream, see
:meth:`~repro.sim.network.Network.reseed_estimation_noise`).  A parallel
sweep is therefore **byte-identical** to a serial one for a fixed seed,
a resumed sweep is byte-identical to an uninterrupted one -- the test
suite asserts both -- and cached cells are interchangeable with freshly
computed ones.  Caching stays **cell-level** (per protocol) even though
work ships run-level: a task recomputes only the protocols whose cells
actually missed.

Typical use::

    from repro.sim.sweep import run_sweep

    result = run_sweep(
        "three-pair", ["802.11n", "n+"], n_runs=50,
        seed=0, workers=4, cache_dir=".sweep-cache",
    )
    result.results["n+"][0].total_throughput_mbps()

    # After an interruption (Ctrl-C, kill, crash): same call + resume=True
    run_sweep("three-pair", ["802.11n", "n+"], n_runs=50,
              seed=0, workers=4, cache_dir=".sweep-cache", resume=True)

A sweep's scenario is a registered name
(:func:`repro.sim.scenarios.register_scenario`): the name keys the
cache, the manifest and the crash capsules, and every worker builds the
scenario from it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import signal
import threading
import traceback as _traceback
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.channel.testbed import default_testbed
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.variants import ProtocolLike, ProtocolSpec, resolve_protocol
from repro.sim.faults import FaultSchedule
from repro.sim.metrics import NetworkMetrics
from repro.sim.scenarios import Scenario, scenario_factory
from repro.sim.spec import RunSpec, SimulationConfig, mac_seed, placement_seed
from repro.sim.store import ResultsStore

if TYPE_CHECKING:
    from repro.sim.network import Network

__all__ = [
    "Cell",
    "FailedCell",
    "SweepResult",
    "ResultsStore",
    "run_sweep",
    "config_digest",
    "scenario_digest",
    "sweep_manifest_digest",
    "default_workers",
]

#: Bump when the simulation's numeric behaviour changes in a way that
#: should invalidate previously cached sweep results.  The version is
#: part of every cell key, so cells written under an older schema are
#: *missed* (and recomputed), never replayed.
#: 2: channel estimates measured once per simulation (every metric moved).
#: 3: the grouped (v3) channel-draw contract; ``channel_draws`` keyed.
#: 4: the fault layer (retransmission accounting at the partial-delivery
#:    boundary moved every metric); fault parameters keyed.
#: 5: the two-fidelity PHY layer; ``fidelity``/``fidelity_band_db`` keyed.
#: 6: protocol variants; the protocol coordinate is the spec-canonical
#:    ``name[param=value,...]``, and metrics carry ``recovered_bits``.
#: 7: numerical hardening: degenerate cells that crashed under v6 now
#:    complete (quarantining the link), and metrics carry
#:    ``quarantined_rounds``.
#:    Still 7 after the key payload became the resolved
#:    :class:`~repro.sim.spec.RunSpec` (hinted values resolved, the
#:    fault trace keyed by content, ``validation`` left out, the scenario
#:    hints out of the structure digest): metrics are bit-identical, and
#:    the changed payload already misses every cell keyed the old way.
#: 8: the grouped contract's at-bins DFT is one BLAS matmul instead of an
#:    einsum, so grouped channels differ from v7's at the ulp level (v2
#:    ``"batched"`` channels are bit-identical).
CACHE_SCHEMA_VERSION = 8


# The run layer -- the round loop of repro.sim.runner and everything it
# imports -- loads only when a cell is simulated, so a sweep whose cells
# are all stored never imports it.  These two functions are the sweep's
# doors into it, and stay module-level names that the cells call through:
# tests replace ``build_network`` to crash chosen runs, and perfbench's
# tracer wraps ``run_simulation`` as its ``runner`` layer.


def build_network(
    scenario: Scenario, run_seed: int, config: Union[SimulationConfig, RunSpec]
) -> Network:
    """Draw one run's network: :func:`repro.sim.runner.build_network`."""
    from repro.sim import runner

    return runner.build_network(scenario, run_seed, config)


def run_simulation(scenario: Scenario, protocol: ProtocolLike, **kwargs) -> NetworkMetrics:
    """Simulate one cell: :func:`repro.sim.runner.run_simulation`."""
    from repro.sim import runner

    return runner.run_simulation(scenario, protocol, **kwargs)


def _digest(payload) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_digest(run_spec: RunSpec) -> str:
    """Stable hex digest of a resolved run, recorded with every stored cell.

    Covers the key payload plus ``validation``, so the store row records
    the full resolved run even though the cell key leaves the
    result-neutral validation mode out.
    """
    return _digest({**run_spec.key_payload, "validation": run_spec.validation})


def scenario_digest(scenario: Scenario) -> str:
    """Stable hex digest of a scenario's *structure*.

    Covers stations (ids, antenna counts, names), traffic pairs
    (endpoints, streams per receiver) and the testbed (candidate
    locations, the full link budget and the hardware impairment
    profile).  Mixed into every cache key next to the registry name, so
    editing a scenario's definition -- a different antenna mix, a
    reshaped floor, a changed hardware profile -- invalidates its cached
    cells automatically instead of replaying stale results under the old
    name.  The scenario's *hints* (packet rate, draw contract, fault
    profile, fidelity) are not structure: they reach the key resolved,
    through the :class:`~repro.sim.spec.RunSpec` key payload.

    Scenarios without a testbed factory are simulated on
    :func:`~repro.channel.testbed.default_testbed`, so that *effective*
    testbed is digested for them: an edit to the default floor or to the
    :class:`~repro.channel.hardware.HardwareProfile` defaults changes the
    digest and misses the cache, instead of silently replaying cells
    simulated under the old defaults.
    """
    testbed = scenario.make_testbed()
    if testbed is None:
        # The testbed the simulation will actually run on (see
        # repro.sim.network.Network), not the `None` placeholder.
        testbed = default_testbed()
    return _digest(
        {
            "stations": [
                (s.node_id, s.n_antennas, s.name) for s in scenario.stations
            ],
            "pairs": [
                (
                    p.transmitter.node_id,
                    [r.node_id for r in p.receivers],
                    list(p.streams_per_receiver),
                )
                for p in scenario.pairs
            ],
            "testbed": {
                "locations": [list(xy) for xy in testbed.locations],
                "tx_power_dbm": testbed.tx_power_dbm,
                "noise_floor_dbm": testbed.noise_floor_dbm,
                "path_loss_exponent": testbed.path_loss_exponent,
                "reference_loss_db": testbed.reference_loss_db,
                "shadowing_sigma_db": testbed.shadowing_sigma_db,
                "los_probability": testbed.los_probability,
                "n_taps": testbed.n_taps,
                "snr_range_db": [testbed.min_snr_db, testbed.max_snr_db],
                "hardware": dataclasses.asdict(testbed.hardware),
            },
        }
    )


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a protocol simulated on one run's placement.

    A cell is a pure function of these coordinates, which is what lets
    the grid be computed in any order, in any process, or replayed from
    the store.  The seed scheme lives here and nowhere else: run ``r`` of
    a sweep with base seed ``seed`` draws its placement and channels from
    :func:`~repro.sim.spec.placement_seed` (see :meth:`grid`), and its
    MAC simulation runs from :func:`~repro.sim.spec.mac_seed` of that
    run seed.  ``scenario_key`` is the scenario's registered name,
    ``fingerprint`` its :func:`scenario_digest`
    (``None`` without a results store) and ``run_spec`` the sweep's
    resolved :class:`~repro.sim.spec.RunSpec`.
    """

    scenario_key: str
    fingerprint: Optional[str]
    spec: ProtocolSpec
    run: int
    run_seed: int
    run_spec: RunSpec

    @classmethod
    def grid(
        cls,
        scenario_key: str,
        fingerprint: Optional[str],
        specs: Sequence[ProtocolSpec],
        n_runs: int,
        seed: int,
        run_spec: RunSpec,
    ) -> List[List["Cell"]]:
        """A sweep's cells: one list per run, in protocol order."""
        rows = []
        for run in range(n_runs):
            run_seed = placement_seed(seed, run)
            rows.append(
                [
                    cls(scenario_key, fingerprint, spec, run, run_seed, run_spec)
                    for spec in specs
                ]
            )
        return rows

    @cached_property
    def key(self) -> str:
        """The cell's cache key (computed once).

        Hashes the resolved run spec's
        :attr:`~repro.sim.spec.RunSpec.key_payload` (resolved values,
        not spellings), the scenario's structural fingerprint next to its
        registry name, and the spec-canonical protocol coordinate, so a
        bare name and its default-parameter spec share a key while any
        non-default parameter changes it.  The module-global
        :data:`CACHE_SCHEMA_VERSION` is part of the payload, so cells
        written under an older schema are missed, never replayed.
        """
        return _digest(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "scenario": self.scenario_key,
                "scenario_fingerprint": self.fingerprint,
                "protocol": self.spec.key,
                "run_seed": self.run_seed,
                "run_spec": self.run_spec.key_payload,
            }
        )

    @cached_property
    def row(self) -> dict:
        """The coordinates stored with the cell's results-store row."""
        return {
            "scenario": self.scenario_key,
            "scenario_fingerprint": self.fingerprint,
            "protocol": self.spec.key,
            "run": self.run,
            "run_seed": self.run_seed,
            "config_digest": config_digest(self.run_spec),
        }

    def fault_schedule(self, scenario: Scenario) -> Optional[FaultSchedule]:
        """The fault episodes this cell's simulation injects."""
        from repro.sim.runner import build_fault_schedule

        return build_fault_schedule(scenario, self.run_spec, mac_seed(self.run_seed))

    def simulate(
        self,
        scenario: Scenario,
        network: Optional[Network] = None,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> NetworkMetrics:
        """Simulate the cell.

        ``network`` is the run's draw, shared by the cells of one run;
        ``None`` draws it from the run seed.  ``fault_schedule``
        overrides the schedule the run spec resolves to (a crash-capsule
        replay passes the recorded one).
        """
        if network is None:
            network = build_network(scenario, self.run_seed, self.run_spec)
        return run_simulation(
            scenario,
            self.spec,
            seed=mac_seed(self.run_seed),
            config=self.run_spec,
            network=network,
            fault_schedule=fault_schedule,
        )


def sweep_manifest_digest(manifest: dict) -> str:
    """Stable hex digest identifying one sweep's full grid.

    The manifest covers everything that defines the sweep -- scenario
    key and structural fingerprint, the ordered protocol specs, run
    count, base seed, resolved run spec -- so two invocations with the
    same digest are by construction computing the same cells, which is
    what makes ``resume=True`` safe to assert against.
    """
    return _digest(manifest)


def default_workers() -> int:
    """Worker count used when ``workers`` is not given.

    Honors the ``REPRO_WORKERS`` environment variable first (the
    operator's explicit ceiling, e.g. for a shared box or a CI
    container), then the scheduler affinity mask
    (``os.sched_getaffinity`` -- the cores this process may actually
    use, which on a CPU-limited container is less than the machine's
    core count), then the raw CPU count as a last resort.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None and override.strip():
        try:
            return max(1, int(override))
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {override!r}"
            ) from None
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class FailedCell:
    """One sweep cell that could not be computed (see :func:`run_sweep`).

    Records the cell coordinates and the exception string, so a long
    sweep reports *which* cells are missing and why instead of aborting
    on the first crash.
    ``capsule_path`` points at the replayable crash capsule written next
    to the results store (``python -m repro.cli replay <path>`` re-runs
    the exact cell); ``None`` when the sweep ran without a cache
    directory.  ``traceback`` carries the full Python traceback of the
    crash -- inside a simulation or before it, in the scenario factory or
    the network draw -- captured in-worker for parallel sweeps; it is
    ``None`` only when no exception was raised: a task whose worker died
    on every try.
    """

    protocol: str
    run: int
    run_seed: int
    error: str
    capsule_path: Optional[str] = None
    traceback: Optional[str] = None


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    Attributes
    ----------
    results:
        ``{protocol: [metrics of run 0, run 1, ...]}``, keyed by each
        protocol spec's canonical string.  A cell whose computation
        failed (see ``failures``) is ``None``.
    cache_hits, cache_misses:
        How many cells came from the cache vs were simulated.  A repeated
        invocation with an unchanged grid reports all hits.
    workers:
        Worker processes used for the simulated cells (1 = in-process).
    failures:
        The cells that failed, as
        :class:`FailedCell` records (empty for a clean sweep; always
        empty under ``strict=True``, which raises instead).
    worker_deaths:
        Workers that died holding a task (SIGKILL, the OOM killer) and
        were replaced, their cells re-run.  ``0`` on a healthy machine.
    sweep_id:
        Manifest digest recorded in the results store (``None`` when
        run without a cache directory).
    """

    results: Dict[str, List[Optional[NetworkMetrics]]] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    failures: List[FailedCell] = field(default_factory=list)
    worker_deaths: int = 0
    sweep_id: Optional[str] = None

    def totals_mbps(self, protocol: ProtocolLike) -> List[float]:
        """Per-run total network throughput of one protocol.

        ``protocol`` is a protocol string (the grid key, such as ``"n+"``
        or ``"n+[recovery=erasure]"``, or any other spelling of it) or a
        :class:`~repro.mac.variants.ProtocolSpec`.  Failed
        cells (``None`` in the grid) are skipped, so aggregates stay
        computable on a partially-failed sweep.
        """
        if not (isinstance(protocol, str) and protocol in self.results):
            protocol = resolve_protocol(protocol).key
        return [
            m.total_throughput_mbps() for m in self.results[protocol] if m is not None
        ]

    def link_names(self) -> List[str]:
        """The traffic-pair names of the swept scenario, in metric order."""
        for runs in self.results.values():
            for metrics in runs:
                if metrics is not None:
                    return list(metrics.links)
        return []


def _simulate_run(cells: List[Cell]) -> List[Tuple]:
    """Worker entry point: simulate the cells of one run.

    Tasks ship run-level so the placement's network is drawn exactly once
    (one :func:`~repro.sim.runner.build_network` call) and shared by all
    the cells that missed the cache.  Byte-identical to per-cell
    computation either way, because every :meth:`Cell.simulate` reseeds
    its own RNG streams.

    Returns one outcome per cell: ``("ok", metrics)`` for a completed
    cell, ``("error", error, traceback, event_ring)`` for a crashed one
    -- a crash in one protocol's simulation never fails the run's other
    cells.  Failures *before* any simulation (the scenario factory or
    the network draw) still raise and fail the whole task, because every
    cell of the run genuinely shares that cause.
    """
    scenario = scenario_factory(cells[0].scenario_key)()
    network = build_network(scenario, cells[0].run_seed, cells[0].run_spec)
    outcomes = []
    for cell in cells:
        try:
            metrics = cell.simulate(scenario, network)
        except Exception as exc:
            # Isolate the crash to this protocol's cell: the run's other
            # protocols are independent simulations off the same network
            # draw, and failing them too would write capsules that do
            # not reproduce.  The traceback and event ring travel as
            # plain picklable data so parallel workers ship them too.
            outcomes.append(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    _traceback.format_exc(),
                    getattr(exc, "_repro_event_ring", None),
                )
            )
        else:
            outcomes.append(("ok", metrics))
    return outcomes


# -- plan --------------------------------------------------------------------


@dataclass
class _SweepPlan:
    """What the plan stage decided: the grid's cells, hits and tasks.

    A task is a list of cells that missed the cache and share one run,
    so one network draw.  ``store`` is the open results store the run
    records into: ``None`` without a cache directory, and for a replay,
    which has nothing to record.
    """

    factory: Callable[[], Scenario]
    config: SimulationConfig
    cells: List[List[Cell]]
    cache_dir: Optional[Union[str, Path]] = None
    store: Optional[ResultsStore] = None
    sweep_id: Optional[str] = None
    grid: Dict[str, List[Optional[NetworkMetrics]]] = field(default_factory=dict)
    tasks: List[List[Cell]] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    n_workers: int = 1


def _resolve_specs(protocols: Sequence[ProtocolLike]) -> List[ProtocolSpec]:
    """Resolve every protocol entry up front, refusing duplicates.

    An unknown name or ill-typed parameter raises here -- with the
    protocol listing -- instead of dying inside a worker as a
    :class:`FailedCell`.
    """
    specs = [resolve_protocol(p) for p in protocols]
    if not specs:
        raise ConfigurationError("need at least one protocol to sweep")
    keys = [spec.key for spec in specs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigurationError(f"duplicate protocol {key!r} in the sweep grid")
    return specs


def _plan_sweep(
    scenario: str,
    protocols: Sequence[ProtocolLike],
    n_runs: int,
    seed: int,
    config: Optional[SimulationConfig],
    workers: Optional[int],
    cache_dir: Optional[Union[str, Path]],
    resume: bool,
) -> _SweepPlan:
    """The plan stage: resolve the run once, lay out the cells, replay hits.

    Everything that can be refused is refused here, before any worker
    spawns: an unknown scenario, protocol or run parameter, an
    unreadable fault trace, a resume without a checkpoint.
    """
    factory = scenario_factory(scenario)
    specs = _resolve_specs(protocols)
    if n_runs < 1:
        raise ConfigurationError("need at least one run to sweep")
    if resume and cache_dir is None:
        raise ConfigurationError(
            "resume=True needs a cache_dir; the results store there holds "
            "the checkpoint to resume"
        )
    config = config or SimulationConfig()
    instance = factory()
    run_spec = RunSpec.resolve(instance, config)
    # Tie keys to the scenario's structure, not just its name, so an
    # edited scenario definition cannot replay stale cells.
    fingerprint = scenario_digest(instance) if cache_dir is not None else None
    plan = _SweepPlan(
        factory=factory,
        config=config,
        cells=Cell.grid(scenario, fingerprint, specs, n_runs, seed, run_spec),
        cache_dir=cache_dir,
    )
    if cache_dir is not None:
        plan.store = ResultsStore(cache_dir)
    try:
        _scan_grid(plan)
        if plan.store is not None:
            _begin_sweep(plan, resume, seed)
        if plan.tasks:
            _chunk_tasks(plan, default_workers() if workers is None else workers)
    except BaseException:
        # A refusal after the open (a resume with nothing to resume, a bad
        # REPRO_WORKERS) must not leave the store's connection, and its
        # -wal/-shm files, open until a garbage collection.
        if plan.store is not None:
            plan.store.close()
        raise
    return plan


def _begin_sweep(plan: _SweepPlan, resume: bool, seed: int) -> None:
    """Record the sweep's manifest and every cell's row in the store.

    The full grid is recorded up front: every cell exists as a row
    before any work starts, so an interruption at *any* point leaves a
    store that knows exactly what remains.

    A replay -- every cell a hit, under a manifest already recorded
    ``done`` -- records nothing and drops the store from the plan.
    """
    first = plan.cells[0][0]
    manifest = {
        "schema": CACHE_SCHEMA_VERSION,
        "scenario": first.scenario_key,
        "scenario_fingerprint": first.fingerprint,
        "protocols": [cell.spec.key for cell in plan.cells[0]],
        "n_runs": len(plan.cells),
        "seed": seed,
        "run_spec": first.run_spec.key_payload,
    }
    plan.sweep_id = sweep_manifest_digest(manifest)
    recorded = plan.store.get_sweep(plan.sweep_id)
    if resume and recorded is None:
        raise ConfigurationError(
            f"nothing to resume: no checkpoint for this sweep manifest "
            f"(sweep_id {plan.sweep_id[:12]}...) in {plan.cache_dir}; run without "
            "resume=True to start it, or check that scenario/protocols/"
            "n_runs/seed/config match the interrupted invocation exactly"
        )
    if not plan.tasks and recorded is not None and recorded.status == "done":
        plan.store.close()
        plan.store = None
        return
    plan.store.begin_sweep(
        plan.sweep_id,
        manifest,
        cells=[(cell.key, cell.row) for run in plan.cells for cell in run],
    )


def _scan_grid(plan: _SweepPlan) -> None:
    """Fill the grid from the store and list the missed cells as tasks.

    One pending task per run lists the cells that missed, in sweep
    order; the store is read in one batched prefetch rather than a
    query per cell.
    """
    cached = {}
    if plan.store is not None:
        cached = plan.store.load_many([cell.key for run in plan.cells for cell in run])
    plan.grid = {cell.spec.key: [None] * len(plan.cells) for cell in plan.cells[0]}
    for run in plan.cells:
        missing = []
        for cell in run:
            metrics = cached.get(cell.key) if cached else None
            if metrics is None:
                missing.append(cell)
            else:
                plan.grid[cell.spec.key][cell.run] = metrics
                plan.hits += 1
        if missing:
            plan.tasks.append(missing)
            plan.misses += len(missing)


def _chunk_tasks(plan: _SweepPlan, workers: int) -> None:
    """Split run tasks so that ``workers`` processes stay busy.

    A run's cells are chunked only when there are more workers than
    uncached runs; every chunk still shares one network draw, so the
    build count only grows as far as the concurrency actually used.
    """
    n_requested = max(1, int(workers))
    per_task = max(1, -(-plan.misses // n_requested))  # ceil division
    plan.tasks = [
        cells[start : start + per_task]
        for cells in plan.tasks
        for start in range(0, len(cells), per_task)
    ]
    plan.n_workers = min(n_requested, len(plan.tasks))


# -- execute -----------------------------------------------------------------


def _execute(plan: _SweepPlan, recorder: "_Recorder") -> None:
    """The execute stage: drive the tasks, feeding every event to ``recorder``.

    Several workers run under a
    :class:`~repro.sim.supervisor.WorkerSupervisor`, one in process
    through :func:`~repro.sim.supervisor.in_process_events`: the same
    event stream.  Closing the stream tears a worker pool down.  The round
    loop and the grid's agent classes are imported first, before a pool
    forks, so every worker inherits them instead of importing them itself.
    """
    from repro.sim import runner  # noqa: F401
    from repro.sim.supervisor import WorkerSupervisor, in_process_events

    for cell in plan.cells[0]:
        cell.spec.agent_class
    if plan.n_workers > 1:
        events = WorkerSupervisor(_simulate_run, plan.tasks, plan.n_workers).events()
    else:
        events = in_process_events(_simulate_run, plan.tasks)
    try:
        for event in events:
            recorder.record(event)
    finally:
        events.close()


# -- record ------------------------------------------------------------------


class _Recorder:
    """The record stage: task events become store rows, failures, capsules.

    Finished cells are stored as soon as their task completes, so an
    interrupted or partially failed sweep keeps every finished cell.
    Capsules are written parent-side (workers ship the error and its
    traceback as plain data) next to the results store -- so only with a
    cache directory.
    """

    def __init__(self, plan: _SweepPlan, strict: bool):
        self.plan = plan
        self.strict = strict
        self.failures: List[FailedCell] = []
        self.worker_deaths = 0

    def record(self, event: object) -> None:
        """Mirror one task event into the grid and the store.

        ``TaskRequeued`` needs no bookkeeping: the cells stay
        ``running`` until they settle, and the executor owns re-queues.
        """
        from repro.sim.supervisor import TaskAssigned, TaskDone, TaskFailed, WorkerDeath

        plan = self.plan
        if isinstance(event, TaskAssigned):
            if plan.store is not None:
                plan.store.mark_running([cell.key for cell in plan.tasks[event.task_id]])
        elif isinstance(event, TaskDone):
            for cell, outcome in zip(plan.tasks[event.task_id], event.result):
                if outcome[0] == "ok":
                    self._done(cell, outcome[1])
                else:
                    _, error, error_tb, ring = outcome
                    self._fail([cell], error, error_tb, ring)
        elif isinstance(event, TaskFailed):
            self._fail(plan.tasks[event.task_id], event.error, event.traceback)
        elif isinstance(event, WorkerDeath):
            self.worker_deaths += 1

    def _done(self, cell: Cell, metrics: NetworkMetrics) -> None:
        plan = self.plan
        plan.grid[cell.spec.key][cell.run] = metrics
        if plan.store is not None:
            plan.store.store(cell.key, metrics, describe=cell.row)

    def _fail(
        self,
        cells: List[Cell],
        error: str,
        traceback_text: Optional[str] = None,
        ring: Optional[List[dict]] = None,
    ) -> None:
        if self.strict:
            raise SimulationError(
                f"sweep cell failed (protocols {[c.spec.key for c in cells]}, "
                f"run {cells[0].run}, run_seed {cells[0].run_seed}): {error}"
            )
        from repro.sim.capsule import CAPSULE_DIRNAME, build_capsule, write_capsule

        plan = self.plan
        for cell in cells:
            capsule_path = None
            if plan.cache_dir is not None:
                try:
                    capsule = build_capsule(
                        cell, plan.factory(), plan.config, error,
                        traceback_text=traceback_text, events=ring,
                    )
                    capsule_path = str(
                        write_capsule(capsule, Path(plan.cache_dir) / CAPSULE_DIRNAME)
                    )
                except Exception:
                    # A capsule is a debugging aid; failing to write one
                    # must never cost the sweep its failure record.
                    capsule_path = None
            self.failures.append(
                FailedCell(
                    protocol=cell.spec.key, run=cell.run, run_seed=cell.run_seed,
                    error=error, capsule_path=capsule_path, traceback=traceback_text,
                )
            )
            if plan.store is not None:
                plan.store.mark_failed(
                    cell.key, error, cell.row,
                    capsule_path=capsule_path, traceback=traceback_text,
                )


class _InterruptRequested(KeyboardInterrupt):
    """Raised by the sweep's signal handlers to unwind to the checkpoint."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


@contextlib.contextmanager
def _checkpoint_on_interrupt(
    plan: _SweepPlan, install_handlers: bool
) -> Iterator[None]:
    """Checkpoint the sweep if the body is interrupted, then re-raise.

    With ``install_handlers`` (main thread only), SIGINT/SIGTERM unwind
    the body as :class:`_InterruptRequested`.  Any ``KeyboardInterrupt``
    checkpoints running cells back to ``pending`` (finished ones are
    already stored) and marks the manifest ``interrupted``; then the
    signal's behaviour proceeds.
    """
    previous = {}

    def _handler(signum, frame):
        raise _InterruptRequested(signum)

    def _restore() -> None:
        while previous:
            signal.signal(*previous.popitem())

    if install_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _handler)
    try:
        yield
    except KeyboardInterrupt as exc:
        if plan.store is not None:
            plan.store.checkpoint_sweep(plan.sweep_id, status="interrupted")
        _restore()
        if getattr(exc, "signum", None) == signal.SIGTERM:
            # Re-deliver so the process dies with the genuine SIGTERM
            # disposition (exit status included), not an exception.
            os.kill(os.getpid(), signal.SIGTERM)
        raise KeyboardInterrupt from None
    finally:
        _restore()


def run_sweep(
    scenario: str,
    protocols: Sequence[ProtocolLike],
    n_runs: int,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    workers: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    strict: bool = False,
    resume: bool = False,
) -> SweepResult:
    """Sweep ``n_runs`` placements x ``protocols`` -- parallel, cached, durable.

    Every cell is a :class:`Cell`, a pure function of its coordinates,
    so the result is byte-identical to simulating the cells one by one
    in process -- regardless of worker count, cell execution order,
    whether cells were replayed from the cache, or whether the sweep was
    interrupted and resumed.
    Re-queued tasks cannot perturb results either: every cell is a pure
    function of its seeds, so a replay recomputes the identical metrics.

    Parameters
    ----------
    scenario:
        A registered scenario name
        (:func:`repro.sim.scenarios.register_scenario`), which also keys
        the cache; anything else raises
        :class:`~repro.exceptions.ConfigurationError` listing the
        registered scenarios.
    protocols:
        Protocols to compare on every placement: bare names, parameterised
        strings (``"n+[recovery=erasure]"``) or
        :class:`~repro.mac.variants.ProtocolSpec` objects, freely mixed --
        so a grid can range over protocol *parameters*, e.g.
        ``[f"n+[retry_cap={c}]" for c in (1, 3, 7)]``.  Every entry is
        resolved and validated *before* any worker is spawned; an unknown
        name or unknown/ill-typed parameter raises
        :class:`~repro.exceptions.ConfigurationError` listing the
        variants and their parameters.  The result grid is
        keyed by each spec's canonical string
        (:attr:`~repro.mac.variants.ProtocolSpec.key` -- the bare name
        for default parameters).
    n_runs:
        Number of random placements.
    seed:
        Base seed; run ``r`` uses placement seed ``seed + 1000 * r`` (see
        :func:`repro.sim.spec.placement_seed`).
    config:
        Simulation parameters, resolved once against the scenario's
        hints into a :class:`~repro.sim.spec.RunSpec` whose key payload
        is part of every cell's cache key.
    workers:
        Worker processes for the uncached run-level tasks (see the
        module docstring).  ``1`` (default) simulates in process;
        ``None`` uses :func:`default_workers` (the ``REPRO_WORKERS``
        override, else the usable cores).  Worker processes must be able
        to import :mod:`repro`; each builds the scenario from its name.
    cache_dir:
        Directory of the durable on-disk results store; ``None`` disables
        caching (and checkpointing).  Entries are invalidated by any
        change to the scenario name/structure, protocol, seed or resolved
        run parameters (validation excepted: it never changes results).
    strict:
        ``False`` (default): a failed cell is recorded in
        :attr:`SweepResult.failures` (its grid cell stays ``None``) and
        the sweep completes -- one pathological placement
        cannot abort an hours-long sweep.  ``True`` restores
        raise-on-failure (:class:`~repro.exceptions.SimulationError`).
    resume:
        ``True`` requires a ``cache_dir`` holding a
        checkpoint for this exact manifest -- same scenario structure,
        protocols, ``n_runs``, ``seed`` and resolved run spec -- and
        completes the cells that are not ``done`` yet.  Raises
        :class:`~repro.exceptions.ConfigurationError` when no such
        manifest was ever recorded (a typo'd grid resumes nothing).
        The result is byte-identical to running the sweep uninterrupted.

    Durability
    ----------
    With a cache directory, the sweep records its manifest up front and
    drives every cell through ``pending -> running -> done/failed`` in
    the store.  SIGINT/SIGTERM are caught (main thread only): in-flight
    completed results are flushed, running cells are checkpointed back
    to ``pending``, the manifest is marked ``interrupted``, and the
    signal's default behaviour then proceeds (KeyboardInterrupt /
    termination).  ``resume=True`` -- or ``repro sweep --resume`` --
    picks the sweep up exactly where it stopped.  A sweep that wrote
    closes with the checkpoint ``synchronous=NORMAL`` syncs to disk.  A
    *replay* -- every cell ``done`` and this manifest recorded ``done``
    -- only reads the store, so it syncs nothing and leaves the
    manifest's ``updated_at`` (its last write) as it was; any other
    sweep records its manifest.

    Returns
    -------
    SweepResult
        Metrics grid plus cache-hit, failed-cell and worker-death
        accounting.
    """
    plan = _plan_sweep(
        scenario, protocols, n_runs, seed, config, workers, cache_dir, resume
    )
    recorder = _Recorder(plan, strict)
    install_handlers = bool(
        plan.store is not None
        and plan.tasks
        and threading.current_thread() is threading.main_thread()
    )
    try:
        with _checkpoint_on_interrupt(plan, install_handlers):
            if plan.tasks:
                _execute(plan, recorder)
            if plan.store is not None:
                plan.store.finish_sweep(plan.sweep_id)
    finally:
        if plan.store is not None:
            plan.store.close()
    return SweepResult(
        results={protocol: list(column) for protocol, column in plan.grid.items()},
        cache_hits=plan.hits,
        cache_misses=plan.misses,
        workers=plan.n_workers,
        failures=recorder.failures,
        worker_deaths=recorder.worker_deaths,
        sweep_id=plan.sweep_id,
    )
