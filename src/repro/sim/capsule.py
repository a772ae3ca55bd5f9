"""Replayable crash capsules for failed sweep cells.

When a simulation inside a sweep dies -- an unexpected exception out of
the protocol code, or an :class:`~repro.exceptions.InvariantViolation`
from the runtime invariant layer -- the error string alone is rarely
enough to debug it: the interesting state is the exact (scenario, seed,
config, fault schedule) coordinate that produced it.  A *crash capsule*
is a small JSON file capturing exactly that coordinate, written next to
the results store when a cell fails:

* the scenario registry key and its structural fingerprint,
* the protocol spec (key plus fully-resolved parameters),
* the run index, run seed and full simulation config,
* the materialised fault schedule (type-tagged episodes, via
  :meth:`~repro.sim.faults.FaultSchedule.to_jsonable`),
* schema versions (capsule, cache-key, store layout) and a best-effort
  git revision,
* the error type/message/traceback and the tail of the simulation's
  per-round event ring buffer (the last transmission rounds before the
  crash, when the failure happened in-process).

Because every coordinate the simulator seeds from is recorded,
:func:`replay_capsule` re-executes the *identical* cell -- same
placement, same channel draws, same MAC streams, same fault episodes --
under ``validation="full"``, and reports whether the original exception
reproduced.  ``python -m repro.cli replay <capsule.json>`` wraps this.

Capsules are written by the sweep parent process
(:func:`repro.sim.sweep.run_sweep`); parallel workers ship the error,
its traceback and (for a crash inside a simulation) the event ring over
their pipes as plain data.  Only a cell whose worker died on every try
has no traceback -- the replay still reconstructs the failure locally.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError

__all__ = [
    "CAPSULE_SCHEMA_VERSION",
    "CAPSULE_DIRNAME",
    "CrashCapsule",
    "ReplayOutcome",
    "build_capsule",
    "write_capsule",
    "load_capsule",
    "replay_capsule",
]

#: Version of the capsule file format.  Bump on any change to the field
#: set below; a capsule newer than this build understands is refused.
CAPSULE_SCHEMA_VERSION = 1

#: Subdirectory of the cache directory where sweeps drop capsules.
CAPSULE_DIRNAME = "capsules"


@dataclass(frozen=True)
class CrashCapsule:
    """Everything needed to re-execute one failed sweep cell exactly."""

    scenario: str
    scenario_fingerprint: Optional[str]
    protocol: str
    protocol_params: Dict[str, Any]
    run: int
    run_seed: int
    config: Dict[str, Any]
    fault_schedule: Optional[List[dict]]
    error_type: str
    error_message: str
    traceback: Optional[str] = None
    events: List[dict] = field(default_factory=list)
    versions: Dict[str, Any] = field(default_factory=dict)
    schema: int = CAPSULE_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ReplayOutcome:
    """What happened when a capsule was re-executed.

    ``reproduced`` is the headline: the replay raised the same exception
    type with the same message.  A replay that completes cleanly (or
    raises something else -- e.g. an invariant checker firing *before*
    the originally recorded crash point) sets it ``False`` and records
    what actually happened.
    """

    reproduced: bool
    expected_type: str
    expected_message: str
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback: Optional[str] = None
    fingerprint_matched: bool = True
    metrics: Optional[Any] = None  # NetworkMetrics when the replay completed


def _git_revision() -> Optional[str]:
    """Best-effort revision of the source tree, ``None`` off a checkout.

    A branch ref is a loose file under ``.git/refs`` until ``git gc`` or
    ``git pack-refs`` moves it into ``.git/packed-refs``.
    """
    root = Path(__file__).resolve()
    for parent in root.parents:
        git = parent / ".git"
        if not (git / "HEAD").is_file():
            continue
        try:
            ref = (git / "HEAD").read_text().strip()
            if not ref.startswith("ref: "):
                return ref
            ref = ref[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                sha, _, name = line.partition(" ")
                if name == ref:
                    return sha
        except OSError:
            pass
        return None
    return None


def _versions() -> Dict[str, Any]:
    # Imported lazily: sweep imports this module for capsule writing.
    from repro.sim.store import STORE_SCHEMA_VERSION
    from repro.sim.sweep import CACHE_SCHEMA_VERSION

    return {
        "capsule_schema": CAPSULE_SCHEMA_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "store_schema": STORE_SCHEMA_VERSION,
        "git": _git_revision(),
    }


def _split_error(error: str) -> tuple:
    """Split the sweep's ``"TypeName: message"`` error strings."""
    head, sep, tail = error.partition(": ")
    if sep and head and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", head):
        return head, tail
    return "Exception", error


def build_capsule(
    cell,
    scenario,
    config,
    error: str,
    traceback_text: Optional[str] = None,
    events: Optional[List[dict]] = None,
) -> CrashCapsule:
    """Assemble a capsule for one failed cell.

    ``cell`` is the failed :class:`~repro.sim.sweep.Cell`; its resolved
    run spec materialises the fault schedule the failing run saw on
    ``scenario`` (the constructed scenario object), so a traced cell
    does not read its trace file again.  ``config`` is the sweep's
    :class:`~repro.sim.spec.SimulationConfig`, recorded as given;
    ``error`` is the sweep's ``"TypeName: message"`` string.
    ``traceback_text`` is ``None`` only for a cell whose worker died on
    every try; ``events`` exist only for a crash inside a simulation.
    """
    schedule = cell.fault_schedule(scenario)
    error_type, error_message = _split_error(error)
    return CrashCapsule(
        scenario=cell.scenario_key,
        scenario_fingerprint=cell.fingerprint,
        protocol=cell.spec.key,
        protocol_params=cell.spec.resolved_params(),
        run=cell.run,
        run_seed=cell.run_seed,
        config=dataclasses.asdict(config),
        fault_schedule=schedule.to_jsonable() if schedule is not None else None,
        error_type=error_type,
        error_message=error_message,
        traceback=traceback_text,
        events=list(events or []),
        versions=_versions(),
    )


def _capsule_stem(capsule: CrashCapsule) -> str:
    raw = f"{capsule.scenario}--{capsule.protocol}--run{capsule.run}--seed{capsule.run_seed}"
    return re.sub(r"[^A-Za-z0-9._-]+", "-", raw)


def write_capsule(capsule: CrashCapsule, directory: Union[str, Path]) -> Path:
    """Write ``capsule`` atomically under ``directory``; returns the path.

    The filename is derived from the cell coordinate, so re-failing the
    same cell overwrites its previous capsule (latest failure wins).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{_capsule_stem(capsule)}.json"
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(capsule.to_dict(), indent=2, sort_keys=True))
    os.replace(tmp, path)
    return path


def load_capsule(path: Union[str, Path]) -> CrashCapsule:
    """Parse a capsule file, with clean errors for anything unreadable."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read capsule {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"capsule {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"capsule {path} is not a JSON object")
    schema = data.get("schema")
    if not isinstance(schema, int):
        raise ConfigurationError(f"capsule {path} has no integer 'schema' field")
    if schema > CAPSULE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"capsule {path} uses schema {schema}, newer than this build's "
            f"{CAPSULE_SCHEMA_VERSION}; upgrade the library to replay it"
        )
    known = {f.name for f in dataclasses.fields(CrashCapsule)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"capsule {path} has unknown fields {sorted(unknown)!r}"
        )
    try:
        return CrashCapsule(**data)
    except TypeError as exc:
        raise ConfigurationError(f"capsule {path} is incomplete: {exc}") from exc


def replay_capsule(
    capsule: Union[CrashCapsule, str, Path],
    validation: str = "full",
) -> ReplayOutcome:
    """Re-execute a capsule's cell and report whether the crash reproduced.

    The cell is rebuilt as the :class:`~repro.sim.sweep.Cell` the sweep
    simulated -- same scenario factory, run seed and protocol spec, so
    :meth:`~repro.sim.sweep.Cell.simulate` draws the same network and MAC
    streams -- except that ``config.validation`` is forced to
    ``validation`` (default ``"full"``) so the invariant layer narrates
    the failure as early as possible.  The recorded fault schedule is
    replayed verbatim rather than re-derived, so capsules stay faithful
    even if episode generation changes -- and a traced cell replays even
    after its trace file is gone.
    """
    from repro.mac.variants import parse_protocol
    from repro.sim.faults import FaultSchedule
    from repro.sim.scenarios import scenario_factory
    from repro.sim.spec import RunSpec, SimulationConfig
    from repro.sim.sweep import Cell, scenario_digest

    if not isinstance(capsule, CrashCapsule):
        capsule = load_capsule(capsule)

    scenario = scenario_factory(capsule.scenario)()
    fingerprint_matched = (
        capsule.scenario_fingerprint is None
        or scenario_digest(scenario) == capsule.scenario_fingerprint
    )
    try:
        config = SimulationConfig(**capsule.config)
    except TypeError as exc:
        raise ConfigurationError(
            f"capsule config does not match this build's SimulationConfig: {exc}"
        ) from exc
    # The recorded schedule already holds the trace's episodes, so the
    # trace file itself is not re-read.
    run_spec = RunSpec.resolve(
        scenario,
        dataclasses.replace(config, validation=validation, fault_trace=None),
    )
    cell = Cell(
        scenario_key=capsule.scenario,
        fingerprint=capsule.scenario_fingerprint,
        spec=parse_protocol(capsule.protocol),
        run=capsule.run,
        run_seed=capsule.run_seed,
        run_spec=run_spec,
    )
    schedule = (
        FaultSchedule.from_jsonable(capsule.fault_schedule)
        if capsule.fault_schedule
        else None
    )
    try:
        metrics = cell.simulate(scenario, fault_schedule=schedule)
    except Exception as exc:  # the point of a replay is to observe this
        import traceback as _traceback

        error_type = type(exc).__name__
        error_message = str(exc)
        return ReplayOutcome(
            reproduced=(
                error_type == capsule.error_type
                and error_message == capsule.error_message
            ),
            expected_type=capsule.error_type,
            expected_message=capsule.error_message,
            error_type=error_type,
            error_message=error_message,
            traceback=_traceback.format_exc(),
            fingerprint_matched=fingerprint_matched,
        )
    return ReplayOutcome(
        reproduced=False,
        expected_type=capsule.error_type,
        expected_message=capsule.error_message,
        fingerprint_matched=fingerprint_matched,
        metrics=metrics,
    )
