"""Seeded chaos harness: ``python -m repro.dist.chaos``.

*SoK: The Faults in our Graph Benchmarks* argues that graph-system
evaluations which never exercise failure paths systematically overstate
robustness; the source paper's §6.1 puts fault handling among the top
operational pain points. This harness makes failure a first-class
workload: from one seed it generates randomized fault schedules —
kills, flaky workers, barrier message loss/duplication, slow workers,
checkpoint corruption paired with a kill so the damaged file is the
*latest* at recovery time — runs each against the default workloads,
and asserts the recovered vertex values are **byte-identical** to the
fault-free run.

Every invocation also runs a directed *corrupted-latest probe*: corrupt
the newest checkpoint, kill a worker, and require recovery to fall back
to the previous checkpoint instead of crashing.

The report is obs-backed: recoveries, replayed supersteps, the
MTTR-style ``dist.recovery_ms`` histogram (p50/p95/p99), and fault
counters by type, all sourced from :mod:`repro.obs` counter deltas —
the same substrate every other report uses.

>>> from repro.dist.chaos import run_chaos
>>> report = run_chaos(seed=7, runs=5)    # doctest: +SKIP
>>> assert all(row["identical"] for row in report["runs"])  # doctest: +SKIP
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from typing import Any, Callable

from repro import obs
from repro.dgps.algorithms import connected_components_spec, pagerank_spec
from repro.dist.checkpoint import (
    CheckpointStore,
    InMemoryCheckpointStore,
    JsonCheckpointStore,
)
from repro.dist.coordinator import run_distributed_pregel
from repro.dist.faults import FaultPlan
from repro.dist.resilience import RetryPolicy
from repro.generators import gnm_random_graph
from repro.graphs.adjacency import Graph
from repro.obs.metrics import counter_deltas

#: fault classes the schedule generator samples from.
FAULT_KINDS = ("kill", "flaky", "drop", "duplicate", "slow", "corrupt")

#: obs counters the report treats as the source of truth.
COUNTERS = (
    "dist.recoveries",
    "dist.checkpoint_corrupt",
    "dist.faults.kill",
    "dist.faults.flaky",
    "dist.faults.drop",
    "dist.faults.duplicate",
    "dist.faults.slow",
    "dist.faults.corrupt",
)


def generate_schedule(rng: random.Random, supersteps: int, k: int,
                      max_faults: int = 3,
                      kinds: tuple[str, ...] = FAULT_KINDS) -> FaultPlan:
    """One randomized fault schedule for a run of ``supersteps``.

    Corruption faults are always paired with a kill at the same
    superstep, so the corrupted checkpoint is the *latest* one when
    recovery looks for it and the fallback path actually runs; they
    also never target checkpoint 0 (the recovery floor), which would
    make the run unrecoverable by construction rather than by chaos.
    """
    plan = FaultPlan()
    horizon = max(1, supersteps - 1)
    for _ in range(rng.randint(1, max_faults)):
        kind = rng.choice(kinds)
        worker = f"w{rng.randrange(k)}"
        superstep = rng.randint(0, horizon)
        if kind == "kill":
            plan.kill(worker, at_superstep=superstep)
        elif kind == "flaky":
            plan.flaky(worker, at_superstep=superstep,
                       attempts=rng.randint(2, 3))
        elif kind == "drop":
            plan.drop_messages(at_superstep=superstep,
                               count=rng.randint(1, 4))
        elif kind == "duplicate":
            plan.duplicate_messages(at_superstep=superstep,
                                    count=rng.randint(1, 4))
        elif kind == "slow":
            plan.slow(worker, at_superstep=superstep,
                      delay_ms=float(rng.randint(5, 50)))
        else:  # corrupt: damage the checkpoint that will be latest
            superstep = rng.randint(1, horizon)
            plan.corrupt_checkpoint(
                at_superstep=superstep,
                mode=rng.choice(("garble", "truncate")))
            plan.kill(worker, at_superstep=superstep)
    return plan


def _spec_for(algorithm: str, graph: Graph, supersteps: int):
    if algorithm == "pagerank":
        return pagerank_spec(graph, supersteps=supersteps)
    if algorithm == "components":
        return connected_components_spec(graph)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _counters() -> dict[str, float]:
    registry = obs.get_registry()
    return {name: registry.counter(name).value for name in COUNTERS}


def corrupted_latest_probe(
    vertices: int = 40,
    k: int = 3,
    seed: int = 0,
    fail_superstep: int = 3,
    store_factory: Callable[[], CheckpointStore] | None = None,
) -> dict[str, Any]:
    """Directed scenario: corrupt the latest checkpoint, then kill.

    The recovery supervisor must *fall back to the previous
    checkpoint* — restored_to == fail_superstep - 1 — and still finish
    byte-identical to the fault-free run. Raises ``AssertionError``
    otherwise; returns the probe summary.
    """
    graph = gnm_random_graph(vertices, 2 * vertices, directed=False,
                             seed=seed)
    spec = pagerank_spec(graph, supersteps=max(6, fail_superstep + 2))
    clean = run_distributed_pregel(graph, spec, k=k, seed=seed)
    plan = (FaultPlan()
            .corrupt_checkpoint(at_superstep=fail_superstep)
            .kill("w1", at_superstep=fail_superstep))
    store = store_factory() if store_factory else InMemoryCheckpointStore()
    faulted = run_distributed_pregel(
        graph, spec, k=k, seed=seed, fault_plan=plan,
        checkpoint_store=store)
    if repr(faulted.values) != repr(clean.values):
        raise AssertionError(
            "corrupted-latest probe diverged from the fault-free run")
    events = faulted.recovery_events
    if not events or events[0].restored_to != fail_superstep - 1:
        raise AssertionError(
            f"expected fallback to checkpoint {fail_superstep - 1}, "
            f"got events {[e.to_dict() for e in events]}")
    if not events[0].corrupt_skipped:
        raise AssertionError(
            "recovery did not report the corrupt checkpoint it skipped")
    return {
        "identical": True,
        "restored_to": events[0].restored_to,
        "corrupt_skipped": list(events[0].corrupt_skipped),
        "recoveries": faulted.recoveries,
    }


def run_chaos(
    seed: int = 7,
    runs: int = 5,
    vertices: int = 48,
    k: int = 3,
    algorithms: tuple[str, ...] = ("pagerank", "components"),
    pagerank_supersteps: int = 8,
    max_faults: int = 3,
    store: str = "memory",
    store_dir: str | None = None,
    retry_policy: RetryPolicy | None = None,
) -> dict[str, Any]:
    """The full sweep ``main`` prints: randomized schedules + probe.

    Each run derives its own RNG from ``(seed, run_index)``, generates
    a schedule with :func:`generate_schedule`, executes it, and
    compares against the fault-free values byte-for-byte. ``store``
    selects ``"memory"`` or ``"json"`` checkpointing (the latter also
    exercises atomic writes and on-disk corruption/fallback).
    """
    if store not in ("memory", "json"):
        raise ValueError(f"unknown store {store!r}")
    if store == "json" and store_dir is None:
        store_dir = tempfile.mkdtemp(prefix="repro-chaos-")

    def store_factory(tag: str) -> CheckpointStore:
        if store == "memory":
            return InMemoryCheckpointStore()
        return JsonCheckpointStore(f"{store_dir}/{tag}")

    report: dict[str, Any] = {
        "seed": seed, "k": k, "vertices": vertices, "store": store,
        "runs": [],
    }
    totals_before = _counters()
    recovery_hist = obs.get_registry().histogram("dist.recovery_ms")

    for index in range(runs):
        rng = random.Random(seed * 100003 + index)
        graph = gnm_random_graph(vertices, 2 * vertices, directed=False,
                                 seed=seed * 31 + index)
        algorithm = rng.choice(algorithms)
        spec = _spec_for(algorithm, graph, pagerank_supersteps)
        clean = run_distributed_pregel(graph, spec, k=k, seed=seed)
        plan = generate_schedule(rng, clean.supersteps, k,
                                 max_faults=max_faults)
        # Sparse checkpointing widens replay distances — recovery must
        # rewind further than the superstep the fault surfaced at.
        checkpoint_every = rng.randint(1, 3)
        before = _counters()
        faulted = run_distributed_pregel(
            graph, spec, k=k, seed=seed, fault_plan=plan,
            checkpoint_store=store_factory(f"run-{index:02d}"),
            checkpoint_every=checkpoint_every,
            retry_policy=retry_policy)
        deltas = counter_deltas(before, _counters())
        report["runs"].append({
            "run": index,
            "algorithm": algorithm,
            "checkpoint_every": checkpoint_every,
            "schedule": [str(fault) for fault in plan.faults],
            "supersteps": faulted.supersteps,
            "recoveries": faulted.recoveries,
            "replayed": faulted.replayed_supersteps(),
            "identical": repr(faulted.values) == repr(clean.values),
            "faults": {name.rsplit(".", 1)[-1]: int(value)
                       for name, value in deltas.items()
                       if name.startswith("dist.faults.")},
            "corrupt_skipped": int(
                deltas.get("dist.checkpoint_corrupt", 0)),
            "recovery_events": [event.to_dict()
                                for event in faulted.recovery_events],
        })

    report["probe"] = corrupted_latest_probe(
        vertices=min(vertices, 40), k=k, seed=seed,
        store_factory=(lambda: store_factory("probe"))
        if store == "json" else None)
    totals = counter_deltas(totals_before, _counters())
    report["totals"] = {name: int(totals.get(name, 0))
                        for name in COUNTERS}
    report["totals"]["replayed_supersteps"] = sum(
        row["replayed"] for row in report["runs"])
    summary = recovery_hist.summary()
    report["recovery_ms"] = {
        "count": summary.get("count", 0),
        "p50": summary.get("p50"),
        "p95": summary.get("p95"),
        "p99": summary.get("p99"),
    }
    report["all_identical"] = all(row["identical"]
                                  for row in report["runs"])
    return report


def _render(report: dict[str, Any]) -> str:
    lines = [
        f"repro.dist chaos report — seed={report['seed']} "
        f"k={report['k']} vertices={report['vertices']} "
        f"store={report['store']}",
        "",
        f"{'run':>3} {'algorithm':<11} {'steps':>5} {'ck.ev':>5} "
        f"{'recov':>5} {'replay':>6} {'ckpt.skip':>9}  "
        f"{'verdict':<9}  schedule",
    ]
    for row in report["runs"]:
        verdict = "identical" if row["identical"] else "DIVERGED"
        lines.append(
            f"{row['run']:>3} {row['algorithm']:<11} "
            f"{row['supersteps']:>5} {row['checkpoint_every']:>5} "
            f"{row['recoveries']:>5} "
            f"{row['replayed']:>6} {row['corrupt_skipped']:>9}  "
            f"{verdict:<9}  {', '.join(row['schedule'])}")
    probe = report["probe"]
    lines.append("")
    lines.append(
        f"corrupted-latest probe: fell back to checkpoint "
        f"{probe['restored_to']} (skipped corrupt "
        f"{probe['corrupt_skipped']}), "
        + ("identical" if probe["identical"] else "DIVERGED"))
    totals = report["totals"]
    fault_totals = ", ".join(
        f"{name.rsplit('.', 1)[-1]}={value}"
        for name, value in totals.items()
        if name.startswith("dist.faults.") and value) or "none"
    lines.append("")
    lines.append(
        f"totals: {totals['dist.recoveries']} recoveries, "
        f"{totals['replayed_supersteps']} replayed supersteps, "
        f"{totals['dist.checkpoint_corrupt']} corrupt checkpoint(s) "
        f"skipped; faults fired by type: {fault_totals}")
    recovery = report["recovery_ms"]
    if recovery["count"]:
        def fmt(value):
            return "—" if value is None else f"{value:.2f}"
        lines.append(
            f"MTTR (dist.recovery_ms over {recovery['count']} "
            f"recoveries): p50={fmt(recovery['p50'])} "
            f"p95={fmt(recovery['p95'])} p99={fmt(recovery['p99'])} ms")
    lines.append(
        "every number above is a repro.obs counter delta / histogram — "
        "the report doubles as a check that the resilience wiring is "
        "instrumented.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.chaos",
        description="Generate seeded randomized fault schedules, run "
                    "them against the default workloads, and assert "
                    "byte-identical recovery.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vertices", type=int, default=48)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--max-faults", type=int, default=3,
                        help="max faults per schedule (min 1)")
    parser.add_argument("--store", choices=["memory", "json"],
                        default="memory",
                        help="checkpoint store backing the runs")
    parser.add_argument("--store-dir", default=None,
                        help="directory for --store json "
                             "(default: a fresh temp dir)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        help="override the retry policy's attempt cap")
    parser.add_argument("--json", action="store_true",
                        help="emit the structured report as JSON")
    args = parser.parse_args(argv)

    policy = (RetryPolicy(max_attempts=args.max_attempts)
              if args.max_attempts else None)
    with obs.capture():
        report = run_chaos(
            seed=args.seed, runs=args.runs, vertices=args.vertices,
            k=args.k, max_faults=args.max_faults, store=args.store,
            store_dir=args.store_dir, retry_policy=policy)
    if args.json:
        print(json.dumps(report, indent=2, default=repr))
    else:
        print(_render(report))
    return 0 if report["all_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
