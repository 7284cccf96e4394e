"""Per-layer timing wrappers, installed from outside the program.

A traced child process calls :func:`install`, which rebinds each
:data:`TARGETS` callable where the program looks it up: the class
attribute for methods, and every ``repro.*`` module global or
module-level dict entry that holds a plain function (``from x import
f`` copies and registries such as ``PARTITION_STRATEGIES``). Untraced
runs never call it, so the program they measure is the program as it
ships.

Each wrapper records, per target, the number of calls, the total time
and the *self* time: a call's time minus the time of wrapped calls
nested inside it on the same thread. Generator functions, including
the ones behind ``@contextmanager``, are timed over every resumption
of their whole iteration; the time a caller spends between resumptions
belongs to the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from bench.spec import Metric


@dataclass(frozen=True)
class Target:
    """One public callable timed in traced runs."""

    #: Metric prefix: ``<package>.<qualname>`` below ``repro``.
    name: str
    module: str
    qualname: str
    #: Sum the generator's yielded value as ``<name>.wait_ms_per_call``.
    yielded_wait: bool = False
    #: Sum ``len(result.rows)`` as ``<name>.rows_per_call``.
    result_rows: bool = False


TARGETS: tuple[Target, ...] = (
    # HTTP edge and service facade.
    Target("serve.ServeHandler.do_POST", "repro.serve.server",
           "ServeHandler.do_POST"),
    Target("serve.GraphService.query", "repro.serve.service",
           "GraphService.query"),
    Target("serve.GraphService.mutate", "repro.serve.service",
           "GraphService.mutate"),
    Target("serve.AdmissionController.admit", "repro.serve.admission",
           "AdmissionController.admit", yielded_wait=True),
    Target("serve.QueryCache.get", "repro.serve.cache", "QueryCache.get"),
    Target("serve.QueryCache.put", "repro.serve.cache", "QueryCache.put"),
    # Request telemetry the service records on every request.
    Target("obs.SlowLog.record", "repro.obs.slowlog", "SlowLog.record"),
    Target("obs.SLOMonitor.record", "repro.obs.slo", "SLOMonitor.record"),
    Target("obs.TraceStore.ingest", "repro.obs.retention",
           "TraceStore.ingest"),
    Target("obs.TraceStore.maintain", "repro.obs.retention",
           "TraceStore.maintain"),
    # Database and query executor.
    Target("graphdb.GraphDatabase.query", "repro.graphdb.database",
           "GraphDatabase.query"),
    Target("graphdb.GraphDatabase.transaction", "repro.graphdb.database",
           "GraphDatabase.transaction"),
    Target("graphdb.GraphDatabase.set_vertex_property",
           "repro.graphdb.database", "GraphDatabase.set_vertex_property"),
    Target("query.reorder_for_selectivity", "repro.query.profiler",
           "reorder_for_selectivity"),
    Target("query.parse", "repro.query.parser", "parse"),
    Target("query.run_query", "repro.query.executor", "run_query",
           result_rows=True),
    Target("analysis.check_query", "repro.analysis.query_check",
           "check_query"),
    # Analytics kernels.
    Target("workloads.run_computation", "repro.workloads.runner",
           "run_computation"),
    Target("algorithms.connected_components", "repro.algorithms.components",
           "connected_components"),
    Target("algorithms.bfs_order", "repro.algorithms.traversal",
           "bfs_order"),
    Target("algorithms.pagerank", "repro.algorithms.pagerank", "pagerank"),
    Target("algorithms.approximate_betweenness",
           "repro.algorithms.centrality", "approximate_betweenness"),
    Target("graphs.CSRGraph.from_graph", "repro.graphs.csr",
           "CSRGraph.from_graph"),
    Target("algorithms.triangle_count", "repro.algorithms.aggregation",
           "triangle_count"),
    Target("algorithms.average_clustering", "repro.algorithms.aggregation",
           "average_clustering"),
    Target("algorithms.partition_graph", "repro.algorithms.partitioning",
           "partition_graph"),
    Target("algorithms.edge_cut", "repro.algorithms.partitioning",
           "edge_cut"),
    Target("algorithms.balance", "repro.algorithms.partitioning",
           "balance"),
    # Simulated distributed runtime.
    Target("dist.Partitioner.shard", "repro.dist.partitioned",
           "Partitioner.shard"),
    Target("dist.Worker.run_superstep", "repro.dist.worker",
           "Worker.run_superstep"),
    Target("dist.Worker.deliver", "repro.dist.worker", "Worker.deliver"),
    Target("dist.Worker.checkpoint_state", "repro.dist.worker",
           "Worker.checkpoint_state"),
    Target("dist.InMemoryCheckpointStore.save", "repro.dist.checkpoint",
           "InMemoryCheckpointStore.save"),
)

#: Per-layer metrics that are not a target's ms_per_call/calls_per_op.
DERIVED: tuple[Metric, ...] = (
    Metric("serve.wire.ms_per_call", "ms/call", "lower"),
    Metric("serve.AdmissionController.admit.wait_ms_per_call", "ms/call",
           "lower"),
    Metric("serve.cache.hit_ratio", "ratio", "higher"),
    Metric("serve.cache.reused_put_ratio", "ratio", "higher"),
    Metric("query.run_query.rows_per_call", "rows/call", "lower"),
    Metric("dist.other.ms_per_job", "ms/job", "lower"),
    Metric("dist.checkpoint_kb_per_job", "KB/job", "lower"),
    Metric("dist.routed_messages_per_job", "msgs/job", "lower"),
    Metric("dist.combined_messages_per_job", "msgs/job", "higher"),
    Metric("dist.supersteps_per_job", "steps/job", "lower"),
)


def per_layer_metrics() -> tuple[Metric, ...]:
    """Every per-layer metric, in report order."""
    timed = []
    for target in TARGETS:
        timed.append(Metric(f"{target.name}.ms_per_call", "ms/call",
                            "lower"))
        timed.append(Metric(f"{target.name}.calls_per_op", "calls/op",
                            "lower"))
    return tuple(timed) + DERIVED


# -- recording ------------------------------------------------------------

CALLS, SELF_NS, TOTAL_NS, EXTRA = range(4)


class Recorder:
    """Per-target call counts and times, shared by every thread.

    ``slots[name]`` is ``[calls, self_ns, total_ns, extra]``; ``extra``
    sums the target's yielded wait (ms) or result rows.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.slots: dict[str, list[float]] = {}

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> list[int]:
        """Open a timed interval; returns its frame [start, child_ns]."""
        frame = [self._clock(), 0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list[int]) -> tuple[int, int]:
        """Close the innermost interval; returns (elapsed, self) ns and
        charges the elapsed time to the enclosing interval's
        children."""
        elapsed = self._clock() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        return elapsed, elapsed - frame[1]

    def add(self, name: str, self_ns: int, total_ns: int,
            extra: float = 0.0) -> None:
        with self._lock:
            slot = self.slots.setdefault(name, [0, 0, 0, 0.0])
            slot[CALLS] += 1
            slot[SELF_NS] += self_ns
            slot[TOTAL_NS] += total_ns
            slot[EXTRA] += extra

    def snapshot(self) -> dict[str, list[float]]:
        with self._lock:
            return {name: list(slot) for name, slot in self.slots.items()}


def delta(after: dict[str, list[float]],
          before: dict[str, list[float]]) -> dict[str, list[float]]:
    """Per-target ``after - before`` (targets absent before start at 0)."""
    zero = [0, 0, 0, 0.0]
    return {name: [a - b for a, b in zip(slot, before.get(name, zero))]
            for name, slot in after.items()}


def _wrap_function(fn: Callable, target: Target,
                   recorder: Recorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = recorder.begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed, own = recorder.end(frame)
            rows = (len(result.rows)
                    if target.result_rows and result is not None else 0)
            recorder.add(target.name, own, elapsed, rows)

    return traced


def _wrap_generator(fn: Callable, target: Target,
                    recorder: Recorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return _drive(fn(*args, **kwargs), target, recorder)

    return traced


def _drive(gen: Iterator[Any], target: Target,
           recorder: Recorder) -> Iterator[Any]:
    """Forward every ``send``/``throw``/``close`` to ``gen``, timing
    each resumption; one completed iteration counts as one call."""
    own_ns = total_ns = 0
    waited = 0.0
    sent: Any = None
    thrown: BaseException | None = None
    while True:
        frame = recorder.begin()
        try:
            value = (gen.throw(thrown) if thrown is not None
                     else gen.send(sent))
        except BaseException as exc:  # the iteration ended, one way or another
            elapsed, own = recorder.end(frame)
            recorder.add(target.name, own_ns + own, total_ns + elapsed,
                         waited)
            if isinstance(exc, StopIteration):
                return exc.value
            raise
        elapsed, own = recorder.end(frame)
        own_ns += own
        total_ns += elapsed
        if target.yielded_wait:
            waited += float(value)
        try:
            sent = yield value
            thrown = None
        except GeneratorExit:
            frame = recorder.begin()
            try:
                gen.close()
            finally:
                elapsed, own = recorder.end(frame)
                recorder.add(target.name, own_ns + own,
                             total_ns + elapsed, waited)
            raise
        except BaseException as exc:  # forwarded into gen above
            thrown = exc


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(owner, attribute, raw object) for a target, where ``raw`` is
    what the owner's namespace holds (a staticmethod or classmethod
    object, not the function it binds)."""
    module = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    owner: Any = module
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


def _traced(raw: Any, target: Target, recorder: Recorder) -> Any:
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(_traced(raw.__func__, target, recorder))
    inner = getattr(raw, "__wrapped__", None)
    if inner is not None and inspect.isgeneratorfunction(inner):
        # A @contextmanager function: trace the generator behind it.
        wrapper = functools.wraps(raw)(contextlib.contextmanager(
            _wrap_generator(inner, target, recorder)))
    elif inspect.isgeneratorfunction(raw):
        wrapper = _wrap_generator(raw, target, recorder)
    else:
        wrapper = _wrap_function(raw, target, recorder)
    wrapper.__bench_target__ = target.name
    return wrapper


def _program_namespaces() -> list[tuple[str, dict[str, Any]]]:
    """(name, globals) of every loaded ``repro`` module."""
    return [(name, vars(module))
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _alias_sites(original: Any) -> list[tuple[Any, Any]]:
    """Every ``repro.*`` module global and module-level dict entry that
    holds ``original``, as (namespace, key) pairs."""
    sites = []
    for _, namespace in _program_namespaces():
        for key, value in list(namespace.items()):
            if value is original:
                sites.append((namespace, key))
            elif type(value) is dict:
                sites.extend((value, k) for k, v in value.items()
                             if v is original)
    return sites


def _rebind(owner: Any, attr: str, old: Any, new: Any) -> None:
    if inspect.ismodule(owner):
        for namespace, key in _alias_sites(old):
            namespace[key] = new
    else:
        setattr(owner, attr, new)


def install(recorder: Recorder) -> Callable[[], None]:
    """Rebind every target to a timing wrapper; returns the undo, which
    also reaches copies that modules imported while it was installed."""
    swaps = []
    for target in TARGETS:
        owner, attr, raw = _resolve(target)
        wrapper = _traced(raw, target, recorder)
        _rebind(owner, attr, raw, wrapper)
        swaps.append((owner, attr, raw, wrapper))

    def uninstall() -> None:
        for owner, attr, raw, wrapper in reversed(swaps):
            _rebind(owner, attr, wrapper, raw)

    return uninstall


def bindings() -> dict[str, Any]:
    """What each target's defining namespace holds right now."""
    return {target.name: _resolve(target)[2] for target in TARGETS}


def installed() -> list[str]:
    """Every ``repro.*`` module global, module-level dict entry and
    class attribute that holds a timing wrapper."""
    found = []
    for name, namespace in _program_namespaces():
        for key, value in list(namespace.items()):
            held = [value]
            if type(value) is dict:
                held += list(value.values())
            elif inspect.isclass(value):
                held += list(vars(value).values())
            if any(hasattr(getattr(obj, "__func__", obj), "__bench_target__")
                   for obj in held):
                found.append(f"{name}.{key}")
    return found


# -- per-layer metrics ------------------------------------------------------

def timed_metrics(calls: dict[str, list[float]],
                  ops: int) -> dict[str, float]:
    """``ms_per_call`` (self time) and ``calls_per_op`` for every
    target, plus the yielded-wait and result-row sums; 0 where a
    target was not called."""
    metrics: dict[str, float] = {}
    for target in TARGETS:
        slot = calls.get(target.name, [0, 0, 0, 0.0])
        n = slot[CALLS]
        metrics[f"{target.name}.ms_per_call"] = (
            slot[SELF_NS] / n / 1e6 if n else 0.0)
        metrics[f"{target.name}.calls_per_op"] = n / ops if ops else 0.0
        if target.yielded_wait:
            metrics[f"{target.name}.wait_ms_per_call"] = (
                slot[EXTRA] / n if n else 0.0)
        if target.result_rows:
            metrics[f"{target.name}.rows_per_call"] = (
                slot[EXTRA] / n if n else 0.0)
    return metrics


def self_ms_total(calls: dict[str, list[float]]) -> float:
    """Self time of every wrapped call, summed, in ms."""
    return sum(slot[SELF_NS] for slot in calls.values()) / 1e6


def total_ms(calls: dict[str, list[float]], name: str) -> float:
    slot = calls.get(name)
    return slot[TOTAL_NS] / 1e6 if slot else 0.0


def complete(partial: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in report order, 0 where a workload does
    not exercise the layer."""
    return {m.name: float(partial.get(m.name, 0.0))
            for m in per_layer_metrics()}
