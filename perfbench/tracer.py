"""Outside-in tracer: spans around the program's public layer entry points.

The tracer never edits the program.  :func:`instrumented` swaps a
timing wrapper in for each public function listed in :data:`PATCHES`
for the length of one traced run and restores the originals after, so
an untraced run executes exactly the program's own code.

Two kinds of node are recorded, both with a name, a start, an end, a
parent and a group (the run or service epoch they belong to):

* a **span** is one call of a coarse entry point (``grouping.plan``,
  ``reduce.materialize``, ``service.checkpoint``...);
* an **aggregate** stands for every call of a per-session entry point
  (``generator``, ``store.write``, ``grouping.sort``...) made under one
  parent in one group.  It keeps the call count and the summed busy
  time instead of one record per call, so a trace stays O(layers x
  groups) rather than O(sessions).

Nodes are kept in memory and written once, at exit
(:meth:`Tracer.dump`).  A node's self time is its busy time minus the
part its children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

SPAN = "span"
AGGREGATE = "aggregate"


@dataclass
class Node:
    """One span, or the aggregate of one entry point's calls under a parent."""

    id: int
    name: str
    kind: str
    parent: Optional[int]
    group: str
    start: float
    end: float
    busy: float = 0.0
    calls: int = 0


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(nodes: Iterable[Node]) -> Dict[int, float]:
    """Each node's busy time minus the part of it its children cover.

    Span children cover the union of their intervals, clipped to the
    parent's.  Aggregate children cover their summed busy time: their
    calls are made one at a time inside the parent's calls, so they
    never overlap each other or a sibling span.
    """
    nodes = list(nodes)
    by_id = {node.id: node for node in nodes}
    spans: Dict[int, List[Tuple[float, float]]] = {}
    aggregated: Dict[int, float] = {}
    for node in nodes:
        parent = by_id.get(node.parent) if node.parent is not None else None
        if parent is None:
            continue
        if node.kind == SPAN:
            start = max(node.start, parent.start)
            end = min(node.end, parent.end)
            if end > start:
                spans.setdefault(parent.id, []).append((start, end))
        else:
            aggregated[parent.id] = aggregated.get(parent.id, 0.0) + node.busy
    return {
        node.id: node.busy
        - _covered(spans.get(node.id, []))
        - aggregated.get(node.id, 0.0)
        for node in nodes
    }


class Tracer:
    """Records nested spans and aggregates against an injectable clock.

    Calls must nest (one thread): every :meth:`enter` is closed by the
    matching :meth:`exit` before its parent's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.nodes: List[Node] = []
        #: Per-layer counts measured at the same boundaries as the spans.
        self.counters: Dict[str, float] = {}
        #: The run or service epoch new nodes belong to.
        self.group = "run-0"
        self._aggregates: Dict[Tuple[str, Optional[int], str], Node] = {}
        self._stack: List[Tuple[Node, float]] = []

    def enter(self, name: str, kind: str = SPAN) -> Tuple[Node, float]:
        """Open a call of ``name`` under the innermost open node."""
        parent = self._stack[-1][0].id if self._stack else None
        now = self.clock()
        if kind == AGGREGATE:
            key = (name, parent, self.group)
            node = self._aggregates.get(key)
            if node is None:
                node = Node(len(self.nodes), name, kind, parent, self.group, now, now)
                self.nodes.append(node)
                self._aggregates[key] = node
        else:
            node = Node(len(self.nodes), name, kind, parent, self.group, now, now)
            self.nodes.append(node)
        frame = (node, now)
        self._stack.append(frame)
        return frame

    def exit(self, frame: Tuple[Node, float]) -> None:
        """Close the innermost open call (which must be ``frame``)."""
        now = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0].name} closed out of order")
        node, start = frame
        node.busy += now - start
        node.calls += 1
        node.end = now

    @contextmanager
    def span(self, name: str, kind: str = SPAN) -> Iterator[Node]:
        """Time the ``with`` body as one call of ``name``."""
        frame = self.enter(name, kind)
        try:
            yield frame[0]
        finally:
            self.exit(frame)

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key``."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        """Raise counter ``key`` to ``value`` if it is lower."""
        if value > self.counters.get(key, value - 1):
            self.counters[key] = value

    def busy(self, name: str) -> float:
        """Summed busy seconds of every node named ``name``."""
        return sum(node.busy for node in self.nodes if node.name == name)

    def calls(self, name: str) -> int:
        """Calls made to ``name``."""
        return sum(node.calls for node in self.nodes if node.name == name)

    def self_time(self, name: str) -> float:
        """Summed self seconds of every node named ``name``."""
        selfs = self_times(self.nodes)
        return sum(selfs[node.id] for node in self.nodes if node.name == name)

    def dump(self, path: Path) -> None:
        """Write every node, its self time and the counters as JSON."""
        selfs = self_times(self.nodes)
        payload = {
            "nodes": [
                dict(asdict(node), self=selfs[node.id]) for node in self.nodes
            ],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def metered_call(tracer: Tracer, name: str, kind: str, fn, after=None):
    """``fn`` timed as a call of ``name``; ``after(args, result)`` runs untimed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, kind)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def metered_returns(tracer: Tracer, name: str, fn, each=None):
    """``fn`` with the iterator it returns metered by :func:`metered_iter`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return metered_iter(tracer, name, fn(*args, **kwargs), each)

    return wrapper


def metered_iter(tracer: Tracer, name: str, iterable, each=None):
    """Yield from ``iterable``, timing every ``next`` as a call of ``name``.

    ``each(item)`` runs untimed for every item.  Closing the wrapper
    closes the wrapped iterator, so its own cleanup still runs.
    """
    iterator = iter(iterable)
    try:
        while True:
            frame = tracer.enter(name, AGGREGATE)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            if each is not None:
                each(item)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# The program's public layer entry points
# ----------------------------------------------------------------------

#: Nodes for time the benchmark spends on its own account inside a run.
BENCH_NODES = ("bench.feed", "bench.result_bytes")

#: ``(module, attribute, how, node name)`` for every wrapped entry point.
#: ``how`` is "span" (one node per call), "call" (aggregate of calls) or
#: "iter" (aggregate of ``next`` calls on the returned iterator).
PATCHES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.trace.generator", "TraceGenerator.iter_sessions", "iter", "generator"),
    ("repro.trace.store", "StoreReader.iter_sessions", "iter", "store.read"),
    ("repro.trace.store", "StoreWriter.append", "call", "store.write"),
    ("repro.sim.grouping", "ExtentTaskRef.read_raw", "call", "store.extent"),
    ("repro.sim.grouping", "ExtentTaskRef.read_columns", "call", "store.extent"),
    ("repro.sim.grouping", "ExtentTaskRef.materialize", "call", "store.extent"),
    ("repro.sim.grouping", "ExternalGrouping.plan", "span", "grouping.plan"),
    ("repro.sim.grouping", "MemoryGrouping.plan", "span", "grouping.plan"),
    ("repro.trace.store", "ExternalSessionSorter.add", "call", "grouping.sort"),
    ("repro.trace.store", "ExternalSessionSorter.finish", "iter", "grouping.merge"),
    ("repro.sim.backends", "SerialBackend.iter_outputs", "iter", "backends.wait"),
    (
        "repro.sim.backends",
        "ExecutionBackend.iter_outputs_multi",
        "iter",
        "backends.wait",
    ),
    ("repro.sim.backends", "ProcessPoolBackend.iter_outputs", "iter", "backends.wait"),
    (
        "repro.sim.backends",
        "ProcessPoolBackend.iter_outputs_multi",
        "iter",
        "backends.wait",
    ),
    ("repro.sim.backends", "run_ref", "call", "kernel"),
    ("repro.sim.backends", "run_ref_multi", "call", "kernel"),
    ("repro.sim.reduce", "StreamingReducer.add", "call", "reduce.fold"),
    ("repro.sim.reduce", "StreamingReducer.result", "span", "reduce.materialize"),
    ("repro.sim.reduce", "load_user_deltas", "span", "reduce.spill_read"),
    ("repro.sim.service", "SimulationService.ingest", "call", "service.ingest"),
    ("repro.sim.service", "SimulationService.flush", "span", "service.flush"),
    ("repro.sim.service", "ServiceCheckpoint.save", "span", "service.checkpoint"),
)


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    """Untimed per-call counters, keyed by node name."""
    from repro.trace.store import RECORD_SIZE

    def plan_stats(_args, plan) -> None:
        stats = plan.stats()
        tracer.count("grouping.plans")
        tracer.count("grouping.tasks", stats.tasks)
        tracer.count("grouping.runs_spilled", stats.runs_spilled)
        tracer.maximum("grouping.peak_buffered", stats.peak_buffered_sessions)
        if stats.cache_hit:
            tracer.count("grouping.cache_hits")

    def extent_bytes(args, _result) -> None:
        tracer.count("store.extent_bytes", args[0].count * RECORD_SIZE)

    def block(item) -> None:
        _start, outputs = item
        tracer.count("backends.blocks")
        tracer.count("kernel.tasks", len(outputs))
        # Labelled "computed": the bytes a process boundary would carry,
        # measured by re-pickling what arrived, whatever the backend.
        with tracer.span("bench.result_bytes", AGGREGATE):
            tracer.count("backends.result_bytes_computed", len(pickle.dumps(outputs)))

    def checkpoint_bytes(_args, path) -> None:
        tracer.count("service.checkpoint_bytes", Path(path).stat().st_size)
        # The service checkpoints once per closed epoch, last thing:
        # later nodes belong to the next epoch.
        tracer.count("service.checkpoints")
        tracer.group = f"epoch-{int(tracer.counters['service.checkpoints'])}"

    def item(name: str):
        return lambda _item: tracer.count(f"{name}.items")

    return {
        "grouping.plan": plan_stats,
        "store.extent": extent_bytes,
        "backends.wait": block,
        "service.checkpoint": checkpoint_bytes,
        "generator": item("generator"),
        "store.read": item("store.read"),
    }


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in :data:`PATCHES` for the ``with`` body."""
    hooks = _hooks(tracer)
    saved = []
    try:
        for module_name, attribute, how, name in PATCHES:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            hook = hooks.get(name)
            if how == "iter":
                wrapper = metered_returns(tracer, name, original, hook)
            else:
                kind = SPAN if how == "span" else AGGREGATE
                wrapper = metered_call(tracer, name, kind, original, hook)
            setattr(owner, leaf, wrapper)
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
