"""Outside-in span tracer for the ``repro sweep`` benchmark.

The tracer never edits the program: it replaces the public functions at
each layer boundary with timing wrappers, patching every name *where the
caller looks it up* (``repro.sim.runner.resolve_contention``, not
``repro.mac.csma.resolve_contention``; class methods on the class that
defines them).  :meth:`Tracer.uninstall` puts the originals back.

Every wrapped call records one span -- boundary, start, end, parent span
and the sweep cell it ran for -- in flat arrays kept in memory and written
out once, at the end (:meth:`Tracer.write_spans`).  A layer's self time
is the time of its spans minus the time of the spans nested inside them,
so the layers' self times plus the untraced remainder add up to the
traced wall time exactly.

Besides spans the tracer reads the counters the program already keeps
(``PlanCache.hits/misses``, ``FidelityEngine.escalations/memo_hits``) and
the metrics every simulated cell returns, for the per-layer ratios.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Reported layers, outermost first.  ``import`` is timed by the caller
#: (:meth:`Tracer.record_span`); every other layer owns the boundaries
#: listed in :data:`BOUNDARIES`.
LAYERS = (
    "import",
    "sweep",
    "store",
    "construction",
    "runner",
    "traffic",
    "contention",
    "planning",
    "delivery",
    "fidelity",
    "faults",
)


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module.attribute`` (``Class.method`` allowed)."""

    layer: str
    module: str
    attribute: str

    @property
    def label(self) -> str:
        return f"{self.layer}:{self.attribute}"


def _boundaries(layer: str, module: str, *attributes: str) -> Tuple[Boundary, ...]:
    return tuple(Boundary(layer, module, attribute) for attribute in attributes)


#: The layer boundaries, each named where its caller looks it up.
BOUNDARIES: Tuple[Boundary, ...] = (
    *_boundaries("sweep", "repro.cli", "run_sweep"),
    *_boundaries(
        "store",
        "repro.sim.store",
        "ResultsStore.load_many",
        "ResultsStore.store",
        "ResultsStore.mark_running",
        "ResultsStore.mark_pending",
        "ResultsStore.mark_failed",
        "ResultsStore.begin_sweep",
        "ResultsStore.finish_sweep",
    ),
    *_boundaries("construction", "repro.sim.network", "Network.__init__"),
    *_boundaries("runner", "repro.sim.sweep", "run_simulation"),
    *_boundaries(
        "traffic",
        "repro.sim.traffic",
        "TrafficStateArrays.refill_due",
        "TrafficStateArrays.refill",
        "TrafficStateArrays.next_traffic_time_us",
    ),
    *_boundaries("contention", "repro.sim.runner", "resolve_contention"),
    *_boundaries("planning", "repro.mac.dot11n", "Dot11nMac.plan_initial"),
    *_boundaries("planning", "repro.mac.beamforming", "BeamformingMac.plan_initial"),
    *_boundaries("planning", "repro.mac.nplus", "NPlusMac.plan_join"),
    *_boundaries(
        "delivery",
        "repro.sim.runner",
        "receiver_stream_snrs",
        "packet_delivery_probability",
    ),
    *_boundaries("fidelity", "repro.sim.fidelity", "FidelityEngine.override_verdict"),
    *_boundaries(
        "faults",
        "repro.sim.faults",
        "FaultInjector.advance",
        "FaultInjector.loss_rate",
        "FaultInjector.draw_loss",
        "FaultInjector.draw_erasure",
        "FaultInjector.agent_active",
        "FaultInjector.next_boundary_us",
    ),
)

#: Factory the runner calls once per simulation; wrapped (without a span)
#: so the tracer can read every per-simulation plan cache's hit counters.
PLAN_CACHE_FACTORY = Boundary("planning", "repro.sim.runner", "PlanCache")


class BoundaryError(LookupError):
    """A wrapped name no longer exists -- the program was refactored."""


def resolve(boundary: Boundary) -> Tuple[object, str, Callable]:
    """``(owner, name, current value)`` of a boundary, or :class:`BoundaryError`.

    A method must be defined by the named class itself: wrapping an
    inherited attribute would silently time the parent's code under the
    child's name (and double-count a call that passes through both).
    """
    try:
        owner: object = importlib.import_module(boundary.module)
    except ImportError as exc:
        raise BoundaryError(
            f"layer {boundary.layer!r}: cannot import {boundary.module}: {exc}"
        ) from exc
    *path, name = boundary.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    namespace = vars(owner) if owner is not None else {}
    if name not in namespace or not callable(namespace[name]):
        raise BoundaryError(
            f"layer {boundary.layer!r}: {boundary.module}.{boundary.attribute} "
            "does not exist any more; update perfbench/tracer.py BOUNDARIES"
        )
    return owner, name, namespace[name]


class Tracer:
    """Span recorder plus the per-cell counters the layer ratios need."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.label_layer: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.cells: List[str] = []
        self.counters: Dict[str, float] = {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "join_calls": 0,
            "join_successes": 0,
            "escalations": 0,
            "fidelity_memo_hits": 0,
            "collisions": 0,
            "transmissions": 0,
            "delivered_bits": 0,
            "attempted_bits": 0,
        }
        self._stack = [-1]
        self._cell = -1
        self._plan_caches: List[object] = []
        self._engines: Dict[int, object] = {}
        self._installed: List[Tuple[object, str, Callable]] = []

    # -- recording -------------------------------------------------------

    def _label_id(self, label: str, layer: str) -> int:
        self.labels.append(label)
        self.label_layer.append(layer)
        return len(self.labels) - 1

    def record_span(self, label: str, layer: str, start: float, end: float) -> None:
        """Record a span timed by the caller (the ``import`` layer)."""
        self.start.append(start)
        self.end.append(end)
        self.name.append(self._label_id(label, layer))
        self.parent.append(self._stack[-1])
        self.cell.append(self._cell)

    def _wrap(self, fn: Callable, label_id: int, before=None, after=None) -> Callable:
        start_a, end_a, name_a = self.start, self.end, self.name
        parent_a, cell_a, stack = self.parent, self.cell, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(start_a)
            name_a.append(label_id)
            parent_a.append(stack[-1])
            cell_a.append(tracer._cell)
            end_a.append(0.0)
            stack.append(index)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__perfbench_layer__ = tracer.label_layer[label_id]
        return wrapper

    # -- per-boundary hooks ---------------------------------------------

    def _enter_cell(self, args, kwargs) -> None:
        protocol = args[1] if len(args) > 1 else kwargs.get("protocol")
        self.cells.append(f"{kwargs.get('seed', '?')}/{getattr(protocol, 'key', protocol)}")
        self._cell = len(self.cells) - 1

    def _leave_cell(self, args, metrics) -> None:
        counters = self.counters
        for cache in self._plan_caches:
            counters["plan_cache_hits"] += cache.hits
            counters["plan_cache_misses"] += cache.misses
        for engine in self._engines.values():
            counters["escalations"] += engine.escalations
            counters["fidelity_memo_hits"] += engine.memo_hits
        self._plan_caches.clear()
        self._engines.clear()
        for link in metrics.links.values():
            counters["collisions"] += link.collisions
            counters["transmissions"] += link.transmissions
            counters["delivered_bits"] += link.delivered_bits
            counters["attempted_bits"] += link.attempted_bits
        self._cell = -1

    def _joined(self, args, streams) -> None:
        self.counters["join_calls"] += 1
        if streams:
            self.counters["join_successes"] += 1

    def _seen_engine(self, args, kwargs) -> None:
        self._engines.setdefault(id(args[0]), args[0])

    # -- install / uninstall --------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every boundary; raises :class:`BoundaryError` before patching
        anything if one of them is gone."""
        resolved = [(b, *resolve(b)) for b in BOUNDARIES]
        factory_owner, factory_name, factory = resolve(PLAN_CACHE_FACTORY)
        hooks = {
            "runner:run_simulation": (self._enter_cell, self._leave_cell),
            "planning:NPlusMac.plan_join": (None, self._joined),
            "fidelity:FidelityEngine.override_verdict": (self._seen_engine, None),
        }
        for boundary, owner, name, original in resolved:
            before, after = hooks.get(boundary.label, (None, None))
            label_id = self._label_id(boundary.label, boundary.layer)
            self._patch(owner, name, self._wrap(original, label_id, before, after))
        plan_caches = self._plan_caches

        def counting_plan_cache(*args, **kwargs):
            cache = factory(*args, **kwargs)
            plan_caches.append(cache)
            return cache

        self._patch(factory_owner, factory_name, counting_plan_cache)
        return self

    def _patch(self, owner: object, name: str, value: Callable) -> None:
        self._installed.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reporting --------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` over every recorded span."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        layer_of = np.array(
            [LAYERS.index(layer) for layer in self.label_layer], dtype=np.int64
        )
        span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.int64)
        seconds = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        return {
            layer: (float(seconds[i]), int(calls[i])) for i, layer in enumerate(LAYERS)
        }

    def ratios(self) -> Dict[str, float]:
        """The per-layer ratios of the counters gathered while tracing."""
        c = self.counters

        def ratio(numerator: float, denominator: float) -> float:
            return float(numerator) / denominator if denominator else 0.0

        return {
            "contention.collision_ratio": ratio(c["collisions"], c["transmissions"]),
            "planning.plan_cache_hit_ratio": ratio(
                c["plan_cache_hits"], c["plan_cache_hits"] + c["plan_cache_misses"]
            ),
            "planning.join_success_ratio": ratio(c["join_successes"], c["join_calls"]),
            "delivery.delivered_bit_ratio": ratio(
                c["delivered_bits"], c["attempted_bits"]
            ),
            "fidelity.escalations": float(c["escalations"]),
            "fidelity.memo_hit_ratio": ratio(c["fidelity_memo_hits"], c["escalations"]),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV (times in seconds, parent = row index)."""
        with gzip.open(path, "wt", newline="", compresslevel=3) as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "boundary", "start_s", "end_s", "parent", "cell"])
            labels, cells = self.labels, self.cells
            for index, (start, end, name, parent, cell) in enumerate(
                zip(self.start, self.end, self.name, self.parent, self.cell)
            ):
                writer.writerow(
                    [
                        index,
                        labels[name],
                        f"{start:.7f}",
                        f"{end:.7f}",
                        parent,
                        cells[cell] if cell >= 0 else "",
                    ]
                )


def layer_report(tracer: Tracer, wall_s: float, sweeps: int = 1) -> Dict[str, float]:
    """``<layer>.self_s/.calls/.share`` for every layer plus the ratios.

    ``wall_s`` is the traced wall time of ``sweeps`` identical sweeps (and
    the one import before them).  ``self_s``, ``calls`` and
    ``fidelity.escalations`` are per sweep -- the import's are of the one
    import -- so they do not grow with the number of sweeps traced; the
    shares and ratios are of the totals.
    """
    report: Dict[str, float] = {}
    traced = 0.0
    for layer, (seconds, calls) in tracer.self_times().items():
        per = 1 if layer == "import" else sweeps
        report[f"{layer}.self_s"] = seconds / per
        report[f"{layer}.calls"] = calls / per
        report[f"{layer}.share"] = seconds / wall_s if wall_s > 0 else 0.0
        traced += seconds
    report.update(tracer.ratios())
    report["fidelity.escalations"] /= sweeps
    report["trace.untraced_share"] = max(0.0, 1.0 - traced / wall_s) if wall_s else 0.0
    return report
