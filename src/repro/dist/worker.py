"""One shard's executor in the distributed runtime.

A :class:`Worker` is the single-machine engine's vertex-program host,
:class:`repro.dgps.pregel.VertexHost`, for one shard of many: the same
values, halted set, inbox, out-edges, ``_enqueue``, ``_aggregate``,
active scan and compute loop, so a vertex program cannot tell which
runtime it is on.

What differs is where messages go. A send to a local vertex lands in
the worker's own next-superstep inbox; a send to a remote vertex is
buffered per destination shard, with the combiner applied *at the
sender* — folding n messages for one remote target into one before
routing, which is the classic trick for cutting cross-shard traffic
(the ``messages_combined`` count is exactly the traffic saved). The
worker adds those routing counts, barrier delivery into its inbox,
checkpoint state and the ``dist.worker.superstep`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.dgps.pregel import VertexHost
from repro.graphs.adjacency import Vertex
from repro.obs import check_deadline, span


@dataclass
class WorkerStepResult:
    """What one worker hands the coordinator at the barrier."""

    worker: str
    superstep: int
    active_vertices: int
    messages_sent: int
    messages_local: int
    messages_routed: int
    messages_combined: int
    #: dest shard -> {target vertex -> [sender-combined messages]}
    remote: dict[int, dict[Vertex, list[Any]]] = field(default_factory=dict)
    #: aggregator partials, only for aggregators this worker touched
    aggregates: dict[str, Any] = field(default_factory=dict)


class Worker(VertexHost):
    """Executor for one shard of the graph."""

    def __init__(self, index: int, *args: Any, **kwargs: Any):
        super().__init__(index, *args, **kwargs)
        # A plain attribute: a property would build the string inside
        # every superstep span, a cached_property would write __dict__
        # and slow every attribute read on the send path.
        self.name = f"w{index}"

    def run_superstep(self, superstep: int,
                      previous_aggregates: dict[str, Any],
                      *, injected_delay_ms: float = 0.0,
                      ) -> WorkerStepResult:
        """Compute one local superstep; messages buffered, not routed.

        ``injected_delay_ms`` is a chaos-harness slow-worker fault: the
        latency is recorded on the worker's span (not slept), so skew
        tooling and reports see the straggler without the simulated
        runtime paying real wall-clock time.
        """
        with span("dist.worker.superstep", worker=self.name,
                  superstep=superstep,
                  shard_vertices=len(self.vertices)) as work_span:
            check_deadline(f"dist.worker.superstep:{self.name}"
                           f"@{superstep}")
            if injected_delay_ms:
                work_span.set("injected_delay_ms", injected_delay_ms)
            self._previous_aggregates = previous_aggregates
            active = self.active_vertices()
            # Local sends become the next inbox; remote partials arrive
            # there via deliver.
            self._compute(superstep, active)

            routed = sum(len(msgs) for buffer in self._remote.values()
                         for msgs in buffer.values())
            local = self._sent - self._remote_raw
            result = WorkerStepResult(
                worker=self.name,
                superstep=superstep,
                active_vertices=len(active),
                messages_sent=self._sent,
                messages_local=local,
                messages_routed=routed,
                messages_combined=self._remote_raw - routed,
                remote=self._remote,
                aggregates=dict(self._current_aggregates))
            work_span.set("active_vertices", len(active))
            work_span.set("messages_sent", self._sent)
            work_span.set("messages_routed", routed)
            work_span.set("messages_combined", result.messages_combined)
        return result

    def deliver(self, target: Vertex, messages: list[Any]) -> int:
        """Accept routed messages for a local vertex (next superstep).

        Between supersteps the host's next-superstep box is the inbox,
        so routed partials go through the host's ``_enqueue`` and a
        combiner folds them into the inbox entry like any local send:
        the receiving vertex sees a single combined message, as on the
        single-machine engine. (The send counts it bumps were read when
        the superstep closed.) Returns the number of messages accepted —
        the coordinator's barrier accounting compares the sum against
        what was routed to detect injected message loss/duplication.
        """
        for message in messages:
            self._enqueue(target, message)
        return len(messages)

    # -- durability -------------------------------------------------------

    def checkpoint_state(self) -> dict[str, Any]:
        """Everything recovery needs to rebuild this shard."""
        return {
            "values": dict(self.values),
            "halted": set(self.halted),
            "inbox": {v: list(msgs) for v, msgs in self.inbox.items()},
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Reset shard state from a checkpoint (respawn after a kill)."""
        self.values = dict(state["values"])
        self.halted = set(state["halted"])
        self.inbox = self._next_local = {
            v: list(msgs) for v, msgs in state["inbox"].items()}

    def __repr__(self) -> str:
        return (f"Worker({self.name}, vertices={len(self.vertices)}, "
                f"halted={len(self.halted)})")
