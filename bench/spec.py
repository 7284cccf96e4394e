"""What the benchmark runs and reports: workloads, metrics, locations.

Every workload reports the same end-to-end metrics, each over its own
*operation*: one HTTP request on the serve workloads, one
``run_computation`` call on the analytics workloads, one distributed
PageRank job on ``dist-pagerank``. ``BENCHMARK.json`` at the repository
root lists the same names with their bounds; a test keeps the two in
step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    """One seeded input set and the load driven through it."""

    name: str
    kind: str  # "serve", "kernel" or "dist"
    #: The tail percentile printed beside the median:
    #: :func:`bench.stats.tail_percentile` of the operations a 10 s run
    #: completed at the seed commit, 50 where it gave none above the
    #: median. Fixed here so that a faster commit, which completes more
    #: operations, is still compared on the same percentile.
    tail: int
    #: Table 9/11 computation name (kernel workloads).
    computation: str | None = None
    #: Share of requests that are writes (serve workloads).
    write_share: float = 0.0


#: Why each workload exists is recorded in BENCHMARK.json and
#: bench/README.md.
WORKLOADS: tuple[Workload, ...] = (
    Workload("serve-read", "serve", 95),
    Workload("serve-write", "serve", 95, write_share=0.3),
    Workload("analytics-components", "kernel", 95,
             computation="Finding Connected Components"),
    Workload("analytics-bfs", "kernel", 95,
             computation="Breadth-first-search or variant"),
    Workload("analytics-ranking", "kernel", 75,
             computation="Ranking & Centrality Scores"),
    Workload("analytics-aggregations", "kernel", 50,
             computation="Aggregations"),
    Workload("analytics-partitioning", "kernel", 95,
             computation="Graph Partitioning"),
    Workload("dist-pagerank", "dist", 50),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: ``setup_s`` is the median of this many launches in an untraced run
#: (one in traced and smoke runs). Over ten seeds the median of nine
#: spread 0.06-0.22 across runs where the median of three spread
#: 0.06-0.43: the host's slow phases often outlast a few launches.
SETUP_LAUNCHES = 9


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" or "lower"


#: End-to-end metrics, reported by every workload with tracing off and
#: gated by their bounds in BENCHMARK.json. The tail percentile is
#: printed beside them but not gated: on a shared two-vCPU host it
#: moved by up to 30% between runs of identical work.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("op_p50_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)


def load_benchmark_json() -> dict:
    """The committed ``BENCHMARK.json`` (bounds, units, workloads)."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)
