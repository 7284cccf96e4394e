"""The in-process workloads: one Table 9/11 computation per analytics
workload, and distributed PageRank jobs, on a seeded RMAT graph.

Each runs in this fresh process with no server, cache or HTTP. Calls
repeat for the run's seconds, and at least three times, so every
reported median rests on three calls or more. Results are kept and
checked after the timed loop: against networkx for the kernels, and
against the single-process ``repro.dgps`` engine for dist.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import time
from collections import Counter
from typing import Any, Callable

from bench import procs, trace
from bench.spec import ROOT, SETUP_LAUNCHES, Workload
from bench.stats import percentile

SCALE, SMOKE_SCALE, EDGE_FACTOR = 10, 8, 16
#: One RMAT structure for every run (1,024 V / 10,571 E at scale 10),
#: and one seed for the computations' own sampling. The run's seed only
#: relabels vertices, so each seed does the same work and the spread
#: across seeds is the machine's, while answers still change with it.
STRUCTURE_SEED = COMPUTATION_SEED = 1
SUPERSTEPS, SHARDS = 10, 4
MIN_CALLS = 3


def rmat_input(seed: int, smoke: bool):
    """``rmat_graph(spec, seed=STRUCTURE_SEED, directed=False)`` with
    its vertices relabelled by a seeded permutation. Vertices are
    inserted in structural order, so the runners' positional sampling
    picks the same structural vertices at every seed.

    The simple-edge filter of ``rmat_graph`` is repeated here so that
    the labelled graph is built straight from the edge list. Building
    the shipped graph first and copying it relabelled raised the
    workload process's peak RSS, a gated metric, from 53 to 64 MB at
    scale 10."""
    from repro.generators.rmat import RMATSpec, rmat_edge_list
    from repro.graphs.adjacency import Graph

    spec = RMATSpec(scale=SMOKE_SCALE if smoke else SCALE,
                    edge_factor=EDGE_FACTOR)
    sources, targets = rmat_edge_list(spec, seed=STRUCTURE_SEED)
    label = list(range(spec.num_vertices))
    random.Random(seed).shuffle(label)
    graph = Graph(directed=False)
    graph.add_vertices(label)
    seen: set[tuple[int, int]] = set()
    for u, v in zip(sources.tolist(), targets.tolist()):
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:  # simple: no loops, no repeats
            seen.add(key)
            graph.add_edge(label[u], label[v])
    return graph


def time_setup(kind: str, graph) -> float:
    """Seconds from launching :mod:`bench.ready` to its ``ready``."""
    body = json.dumps({"n": graph.num_vertices(),
                       "edges": [[e.u, e.v] for e in graph.edges()]})
    start = time.perf_counter()
    proc = subprocess.Popen(procs.python("-m", "bench.ready", kind),
                            cwd=ROOT, env=procs.child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        proc.stdin.write(body)
        proc.stdin.close()
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    finally:
        procs.stop(proc)
    return elapsed


def job_caller(workload: Workload, graph) -> Callable[[], Any]:
    """The operation the workload repeats, looked up through the
    package on every call so traced runs see the wrappers."""
    from repro import dgps, dist, workloads

    if workload.kind == "dist":
        def job():
            return dist.run_distributed_pregel(
                graph, dgps.algorithms.pagerank_spec(
                    graph, supersteps=SUPERSTEPS),
                k=SHARDS, partitioner="bfs", seed=COMPUTATION_SEED)
    else:
        def job():
            return workloads.run_computation(workload.computation, graph,
                                             seed=COMPUTATION_SEED)
    return job


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        smoke: bool) -> dict[str, Any]:
    import repro.algorithms  # noqa: F401 - loaded before timing
    import repro.dgps.algorithms  # noqa: F401

    graph = rmat_input(seed, smoke)
    setup = [time_setup(workload.kind, graph)
             for _ in range(1 if traced or smoke else SETUP_LAUNCHES)]
    job = job_caller(workload, graph)
    min_calls = 1 if smoke else MIN_CALLS

    recorder = trace.Recorder()
    uninstall = trace.install(recorder) if traced else None
    # Answers are tallied by fingerprint, not kept, so memory does not
    # grow with the number of calls a faster commit completes.
    answers: Counter[str] = Counter()
    first: Any = None
    times_ms: list[float] = []
    failed = 0
    start = time.perf_counter()
    try:
        while (time.perf_counter() - start < seconds
               or len(times_ms) < min_calls):
            t = time.perf_counter()
            try:
                result = job()
            except Exception as exc:  # counted, reported, run goes on
                failed += 1
                answers[f"raised {exc!r}"] += 1
                if failed > 100:
                    break
                continue
            times_ms.append((time.perf_counter() - t) * 1000.0)
            answers[fingerprint(result)] += 1
            if first is None:
                first = result
    finally:
        if uninstall is not None:
            uninstall()
    calls = recorder.snapshot()
    rss = procs.peak_rss_mb(os.getpid())  # before the oracle imports

    errors = [f"{len(answers)} different answers: "
              f"{sorted(answers.items())[:3]}"] if len(answers) > 1 else []
    if first is None:
        errors.append("no call completed")
    elif workload.kind == "dist":
        errors += check_dist(graph, first)
    else:
        errors += check_kernel(workload.computation, graph, first.summary)
    n = len(times_ms)
    edges = graph.num_edges()
    median_ms = statistics.median(times_ms) if times_ms else 0.0
    per_op_edges = edges * (SUPERSTEPS if workload.kind == "dist" else 1)
    out: dict[str, Any] = {
        "workload": workload.name,
        "traced": traced,
        "correct": not errors and n > 0,
        "attempted": n + failed,
        "failed": failed,
        "errors": errors,
        "samples": n,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            # Derived from op_p50_ms, not measured apart from it: one
            # sequential caller's rate at the median call. Calls over
            # elapsed time follow the mean, which the host's slow
            # bursts move more: across ten seeds it spread 0.07-0.13
            # where the median spread 0.02-0.09.
            "ops_per_s": 1000.0 / median_ms if median_ms else 0.0,
            "op_p50_ms": median_ms,
            "peak_rss_mb": rss,
        },
        "tail_ms": percentile(times_ms, workload.tail) if n else 0.0,
        "detail": {
            "graph": [graph.num_vertices(), edges],
            "edges_per_s": (per_op_edges / (median_ms / 1000.0)
                            if median_ms else 0.0),
        },
    }
    if traced and n:
        layer = trace.timed_metrics(calls, n)
        if workload.kind == "dist":
            # Counts are exact and equal for every job (one answer).
            layer.update({
                "dist.other.ms_per_job":
                    (sum(times_ms) - trace.self_ms_total(calls)) / n,
                "dist.checkpoint_kb_per_job": first.checkpoint_bytes / 1024,
                "dist.routed_messages_per_job": first.routed_messages(),
                "dist.combined_messages_per_job": first.combined_messages(),
                "dist.supersteps_per_job": first.supersteps,
            })
        out["per_layer"] = trace.complete(layer)
        out["attribution"] = {
            "measured_ms_per_op": sum(times_ms) / n,
            "layers_ms_per_op": (trace.self_ms_total(calls) / n
                                 + layer.get("dist.other.ms_per_job", 0.0)),
        }
    return out


def fingerprint(result: Any) -> str:
    """A compact, exact identity of one call's answer."""
    if hasattr(result, "summary"):
        return json.dumps(result.summary, sort_keys=True, default=repr)
    return json.dumps([hash(tuple(result.values.items())),
                       result.checkpoint_bytes, result.routed_messages(),
                       result.combined_messages(), result.supersteps])


# -- oracles ----------------------------------------------------------------

def _networkx(graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from((e.u, e.v) for e in graph.edges())
    return nx, g


def check_kernel(computation: str, graph,
                 got: dict[str, Any]) -> list[str]:
    """Errors where the summary ``got`` differs from networkx. The
    betweenness maximum and the partition have no independent oracle;
    for them the run only requires every call to answer the same."""
    errors: list[str] = []
    nx, g = _networkx(graph)
    if computation == "Finding Connected Components":
        components = list(nx.connected_components(g))
        want = {"components": len(components),
                "largest": max(len(c) for c in components)}
        if got != want:
            errors.append(f"components: {got} != networkx {want}")
    elif computation == "Breadth-first-search or variant":
        # The runner's sources: random.Random(seed).sample of three.
        sources = random.Random(COMPUTATION_SEED).sample(
            list(graph.vertices()), 3)
        reach = sum(len(nx.single_source_shortest_path_length(g, s))
                    for s in sources)
        want = {"bfs_runs": 3, "visited": reach}
        if got != want:
            errors.append(f"bfs: {got} != networkx {want}")
    elif computation == "Ranking & Centrality Scores":
        scores = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=1000)
        top = sorted(scores, key=lambda v: (-scores[v], repr(v)))[:3]
        if got["top_pagerank"] != top:
            errors.append(f"pagerank top-3: {got['top_pagerank']} != "
                          f"networkx {top}")
    elif computation == "Aggregations":
        triangles = sum(nx.triangles(g).values()) // 3
        clustering = nx.average_clustering(g)
        if got["triangles"] != triangles:
            errors.append(f"triangles: {got['triangles']} != networkx "
                          f"{triangles}")
        if abs(got["avg_clustering"] - clustering) > 0.5e-4 + 1e-12:
            errors.append(f"average clustering: {got['avg_clustering']} "
                          f"!= networkx {clustering:.6f} to 4 places")
    return errors


def check_dist(graph, result: Any) -> list[str]:
    """Errors where a job's values are not within 1e-9 of the
    single-process Pregel engine."""
    from repro.dgps.algorithms import pagerank_spec

    want = pagerank_spec(graph, supersteps=SUPERSTEPS).run(graph).values
    got = result.values
    if set(got) != set(want):
        return ["dist and dgps cover different vertices"]
    worst = max(abs(got[v] - want[v]) for v in want)
    if worst > 1e-9:
        return [f"dist differs from dgps by {worst:.3g} (> 1e-9)"]
    return []
