"""A Pregel-style vertex-centric computation engine.

Distributed graph processing systems (Giraph, GraphX, Gelly) are the
academic workhorses of the paper's Table 12 (17 of 90 papers) and the
survey's least-adopted system class (14 users). Their shared programming
model is Pregel's bulk-synchronous "think like a vertex": per superstep,
every active vertex receives its messages, updates its value, sends
messages along edges, and may vote to halt.

This module implements that model faithfully on one machine:

* superstep barriers with message delivery at the next superstep;
* vote-to-halt semantics with reactivation on message receipt;
* combiners (associative message pre-aggregation);
* aggregators (global per-superstep reductions, Pregel-style);
* observability via :mod:`repro.obs`: one span per superstep carrying
  active-vertex / message counts (plus value snapshots on demand),
  consumed by :mod:`repro.dgps.debugger`; the legacy trace hook is a
  thin adapter over those span events.

The vertex-program host is written once, as :class:`VertexHost`: one
shard's vertices in graph order, their values, halted set, inbox and
out-edge lists, the only ``_enqueue`` (combine-on-insert) and
``_aggregate``, the active scan and the compute loop.
:class:`PregelEngine` is a one-shard host (every vertex on shard 0)
with the superstep loop, span listeners and metrics around it;
:class:`repro.dist.worker.Worker` is the same host for one shard of
many. Both start from :func:`initial_state`, so a vertex program cannot
tell which runtime it is on.

The classic algorithms expressed on top of it live in
:mod:`repro.dgps.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.graphs.adjacency import Graph, Vertex
from repro.obs import (
    Span,
    current_deadline,
    forced_span,
    get_registry,
    is_enabled,
    span,
)


class PregelError(ReproError):
    """A vertex program misbehaved or the run exceeded its budget."""


@dataclass
class VertexContext:
    """Everything a vertex program sees during one superstep."""

    vertex: Vertex
    value: Any
    superstep: int
    messages: list[Any]
    _engine: "VertexHost"
    _halted: bool = False
    _out_edges: list[tuple[Vertex, float]] = field(default_factory=list)

    def out_edges(self) -> list[tuple[Vertex, float]]:
        """(neighbor, weight) pairs for this vertex's out-edges."""
        return list(self._out_edges)

    def num_out_edges(self) -> int:
        return len(self._out_edges)

    def send(self, target: Vertex, message: Any) -> None:
        """Deliver a message to ``target`` at the next superstep."""
        self._engine._enqueue(target, message)

    def send_to_neighbors(self, message: Any) -> None:
        for neighbor, _ in self._out_edges:
            self._engine._enqueue(neighbor, message)

    def vote_to_halt(self) -> None:
        """Deactivate; the vertex reactivates if a message arrives."""
        self._halted = True

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a global aggregator for this superstep."""
        self._engine._aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """The aggregator's value from the *previous* superstep."""
        return self._engine._previous_aggregates.get(name)

    @property
    def num_vertices(self) -> int:
        return self._engine.num_vertices


#: A vertex program: mutates/returns the vertex value given its context.
VertexProgram = Callable[[VertexContext], Any]
#: A combiner folds two messages for the same target into one.
Combiner = Callable[[Any, Any], Any]
#: An aggregator reduce function plus an identity element.
Aggregator = tuple[Callable[[Any, Any], Any], Any]


@dataclass(frozen=True)
class SuperstepStats:
    """Observability record for one superstep."""

    superstep: int
    active_vertices: int
    messages_sent: int
    aggregates: dict[str, Any]


@dataclass
class PregelResult:
    """Final vertex values plus the execution trace."""

    values: dict[Vertex, Any]
    supersteps: int
    stats: list[SuperstepStats]

    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)


def initial_state(
    graph: Graph,
    initial_value: Callable[[Vertex], Any] | Any,
) -> tuple[dict[Vertex, Any], dict[Vertex, list[tuple[Vertex, float]]]]:
    """Initial vertex values and ``(neighbor, weight)`` out-edge lists,
    both in graph order: the one builder every runtime starts from.
    An undirected edge is listed at both ends, a self-loop once."""
    if callable(initial_value):
        values = {v: initial_value(v) for v in graph.vertices()}
    else:
        values = dict.fromkeys(graph.vertices(), initial_value)
    out_edges: dict[Vertex, list[tuple[Vertex, float]]] = {
        v: [] for v in values}
    for edge in graph.edges():
        out_edges[edge.u].append((edge.v, edge.weight))
        if not graph.directed and edge.u != edge.v:
            out_edges[edge.v].append((edge.u, edge.weight))
    return values, out_edges


class VertexHost:
    """Runs a vertex program over the vertices of one shard.

    ``assignment`` maps every vertex of the graph to its shard. A send
    to shard ``index`` lands in this host's next-superstep box, any
    other in that shard's remote box; either way the combiner folds
    messages for one target as they are inserted.
    """

    def __init__(
        self,
        index: int,
        vertices: tuple[Vertex, ...],
        assignment: dict[Vertex, int],
        program: VertexProgram,
        values: dict[Vertex, Any],
        out_edges: dict[Vertex, list[tuple[Vertex, float]]],
        combiner: Combiner | None,
        aggregators: dict[str, Aggregator],
        num_vertices: int,
    ):
        self.index = index
        self.vertices = vertices
        self._assignment = assignment
        self._program = program
        self._combiner = combiner
        self._aggregators = aggregators
        #: global vertex count — VertexContext.num_vertices reads this,
        #: so programs see the whole graph's size, not the shard's.
        self.num_vertices = num_vertices

        self.values = values
        self.halted: set[Vertex] = set()
        self._out_edges = out_edges
        # Between supersteps the next-superstep box *is* the inbox.
        self.inbox: dict[Vertex, list[Any]] = {}
        self._next_local = self.inbox
        self._remote: dict[int, dict[Vertex, list[Any]]] = {}
        self._previous_aggregates: dict[str, Any] = {}
        self._current_aggregates: dict[str, Any] = {}
        self._sent = 0
        self._remote_raw = 0

    # -- host surface used by VertexContext -----------------------------

    def _enqueue(self, target: Vertex, message: Any) -> None:
        try:
            dest = self._assignment[target]
        except KeyError:
            raise PregelError(
                f"message sent to unknown vertex {target!r}: "
                f"message targets must be vertices of the graph"
            ) from None
        self._sent += 1
        if dest == self.index:
            box = self._next_local
        else:
            self._remote_raw += 1
            box = self._remote.setdefault(dest, {})
        if self._combiner is not None and target in box:
            box[target] = [self._combiner(box[target][0], message)]
        else:
            box.setdefault(target, []).append(message)

    def _aggregate(self, name: str, value: Any) -> None:
        try:
            reduce_fn, identity = self._aggregators[name]
        except KeyError:
            raise PregelError(f"unknown aggregator {name!r}") from None
        current = self._current_aggregates.get(name, identity)
        self._current_aggregates[name] = reduce_fn(current, value)

    # -- superstep lifecycle ---------------------------------------------

    def active_vertices(self) -> list[Vertex]:
        """Vertices that will compute next superstep (host order)."""
        return [v for v in self.vertices
                if v not in self.halted or v in self.inbox]

    def has_active(self) -> bool:
        return any(v not in self.halted or v in self.inbox
                   for v in self.vertices)

    def _compute(self, superstep: int, active: list[Vertex]) -> None:
        """Run the program over ``active``, mutating values and the
        halted set in place. Afterwards ``_sent``, ``_remote_raw``,
        ``_remote`` and ``_current_aggregates`` hold this superstep's
        sends and aggregator partials, and local sends are the inbox."""
        self._current_aggregates = {}
        self._next_local = {}
        self._remote = {}
        self._sent = 0
        self._remote_raw = 0
        program, values, inbox, halted, out_edges = (
            self._program, self.values, self.inbox, self.halted,
            self._out_edges)
        for vertex in active:
            halted.discard(vertex)
            context = VertexContext(
                vertex=vertex,
                value=values[vertex],
                superstep=superstep,
                messages=inbox.get(vertex, []),
                _engine=self,
                _out_edges=out_edges[vertex],
            )
            new_value = program(context)
            if new_value is not None:
                values[vertex] = new_value
            else:
                values[vertex] = context.value
            if context._halted:
                halted.add(vertex)
        self.inbox = self._next_local


class PregelEngine(VertexHost):
    """Single-machine BSP executor for vertex programs: a one-shard
    :class:`VertexHost` with the superstep loop around it."""

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        initial_value: Callable[[Vertex], Any] | Any = None,
        combiner: Combiner | None = None,
        aggregators: dict[str, Aggregator] | None = None,
        max_supersteps: int = 100,
    ):
        values, out_edges = initial_state(graph, initial_value)
        vertices = tuple(values)
        super().__init__(
            0, vertices, dict.fromkeys(vertices, 0), program, values,
            out_edges, combiner, dict(aggregators or {}),
            graph.num_vertices())
        self._max_supersteps = max_supersteps
        self._span_listeners: list[Callable[[Span], None]] = []
        self._capture_values = False

    # -- public API ------------------------------------------------------

    def on_superstep_span(
        self, listener: Callable[[Span], None],
    ) -> None:
        """Register a listener for finished ``pregel.superstep`` spans.

        Each superstep closes one :class:`repro.obs.Span` carrying
        ``superstep``, ``active_vertices``, ``messages_sent`` and
        ``aggregates`` attributes (plus ``values``, a snapshot of every
        vertex value, when :meth:`capture_values` is on). Listeners
        receive the span immediately after it closes, even while global
        tracing is disabled.
        """
        self._span_listeners.append(listener)

    def capture_values(self, on: bool = True) -> None:
        """Attach a full vertex-value snapshot to each superstep span
        (the debugger's food; off by default because snapshots are
        O(vertices) per superstep)."""
        self._capture_values = on

    def set_trace_hook(
        self, hook: Callable[[int, dict[Vertex, Any]], None],
    ) -> None:
        """Legacy hook API, kept as a thin adapter over the
        :mod:`repro.obs` span events: ``hook(superstep, values)`` is
        called from each finished superstep span."""
        self.capture_values()
        self.on_superstep_span(
            lambda sp: hook(sp.attributes["superstep"],
                            sp.attributes["values"]))

    def _observing(self) -> bool:
        return bool(self._span_listeners) or self._capture_values

    def run(self) -> PregelResult:
        """Execute supersteps until every vertex halts with no messages
        in flight, or the budget is exhausted (then raises
        :class:`PregelError`)."""
        with span("pregel.run", vertices=self.num_vertices) as run_span:
            result = self._run_supersteps()
            run_span.set("supersteps", result.supersteps)
            run_span.set("messages", result.total_messages())
        if is_enabled():
            from repro.obs.memory import record_memory_gauges

            record_memory_gauges(prefix="pregel.mem")
        return result

    def _run_supersteps(self) -> PregelResult:
        stats: list[SuperstepStats] = []
        metrics = get_registry() if is_enabled() else None
        deadline = current_deadline()
        superstep = 0
        while True:
            # Superstep boundaries are the engine's cooperative yield
            # points: an expired request budget surfaces here rather
            # than interrupting a compute() mid-vertex.
            if deadline is not None:
                deadline.check(f"pregel.superstep:{superstep}")
            active = self.active_vertices()
            if not active:
                break
            if superstep >= self._max_supersteps:
                raise PregelError(
                    f"computation did not finish within "
                    f"{self._max_supersteps} supersteps")
            # Listeners (debugger, legacy trace hooks) need real span
            # objects even when global tracing is off; the plain gated
            # constructor keeps the no-listener path allocation-free.
            if self._observing():
                step_span = forced_span("pregel.superstep",
                                        superstep=superstep)
            else:
                step_span = span("pregel.superstep", superstep=superstep)
            with step_span:
                self._compute(superstep, active)
                aggregates = {
                    name: self._current_aggregates.get(name, identity)
                    for name, (_, identity) in self._aggregators.items()}
                stats.append(SuperstepStats(
                    superstep=superstep,
                    active_vertices=len(active),
                    messages_sent=self._sent,
                    aggregates=aggregates))
                step_span.set("active_vertices", len(active))
                step_span.set("messages_sent", self._sent)
                step_span.set("aggregates", dict(aggregates))
                if self._capture_values:
                    step_span.set("values", dict(self.values))
            for listener in self._span_listeners:
                listener(step_span)  # closed span, timing complete
            if metrics is not None:
                metrics.inc("pregel.supersteps")
                metrics.inc("pregel.messages_sent", self._sent)
                metrics.observe("pregel.superstep_ms",
                                step_span.duration_ms)
            self._previous_aggregates = dict(aggregates)
            superstep += 1
        return PregelResult(values=dict(self.values),
                            supersteps=superstep, stats=stats)


@dataclass(frozen=True)
class PregelSpec:
    """A complete vertex-program configuration, independent of the
    executor.

    Bundles everything :func:`run_pregel` takes besides the graph, so
    the same computation can be handed unchanged to the single-machine
    :class:`PregelEngine` or to the sharded runtime in
    :mod:`repro.dist` (``run_distributed_pregel(graph, spec, k=8)``).
    """

    program: VertexProgram
    initial_value: Callable[[Vertex], Any] | Any = None
    combiner: Combiner | None = None
    aggregators: dict[str, Aggregator] | None = None
    max_supersteps: int = 100

    def analyze(self, strict: bool = False):
        """Run :mod:`repro.analysis` over the program and spec values.

        Returns the :class:`~repro.analysis.AnalysisReport`; with
        ``strict=True``, error findings raise
        :class:`~repro.analysis.AnalysisError` instead of merely being
        reported (and findings are recorded as obs span events either
        way)."""
        from repro.analysis import analyze_spec

        return analyze_spec(self, strict=strict)

    def run(self, graph: Graph, strict: bool = False) -> PregelResult:
        """Execute on the single-machine engine (``strict=True``
        analyzes the spec first)."""
        if strict:
            self.analyze(strict=True)
        return run_pregel(
            graph, self.program, initial_value=self.initial_value,
            combiner=self.combiner, aggregators=self.aggregators,
            max_supersteps=self.max_supersteps)


def run_pregel(
    graph: Graph,
    program: VertexProgram,
    initial_value: Callable[[Vertex], Any] | Any = None,
    combiner: Combiner | None = None,
    aggregators: dict[str, Aggregator] | None = None,
    max_supersteps: int = 100,
    trace_hook: Callable[[int, dict[Vertex, Any]], None] | None = None,
    strict: bool = False,
) -> PregelResult:
    """One-shot convenience wrapper around :class:`PregelEngine`
    (``strict=True`` runs :mod:`repro.analysis` over the program
    first, raising on error findings)."""
    if strict:
        PregelSpec(program=program, initial_value=initial_value,
                   combiner=combiner, aggregators=aggregators,
                   max_supersteps=max_supersteps).analyze(strict=True)
    engine = PregelEngine(
        graph, program, initial_value=initial_value, combiner=combiner,
        aggregators=aggregators, max_supersteps=max_supersteps)
    if trace_hook is not None:
        engine.set_trace_hook(trace_hook)
    return engine.run()


def sum_aggregator() -> Aggregator:
    return (lambda a, b: a + b, 0)


def max_aggregator() -> Aggregator:
    return (lambda a, b: b if a is None or b > a else a, None)


def min_aggregator() -> Aggregator:
    return (lambda a, b: b if a is None or b < a else a, None)
