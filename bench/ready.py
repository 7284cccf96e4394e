"""``python -m bench.ready {kernel|dist} < graph.json``: the set-up
probe of the in-process workloads.

A fresh interpreter imports what the workload calls, reads the graph
from standard input (``{"n": ..., "edges": [[u, v], ...]}``), builds
it, and prints ``ready``. The caller times launch to ``ready``, the
in-process counterpart of a server that has booted and hosted its
graph.
"""

from __future__ import annotations

import json
import sys


def main(kind: str) -> None:
    from repro.graphs.adjacency import Graph

    if kind == "kernel":
        import repro.algorithms  # noqa: F401 - the runners import lazily
        import repro.workloads  # noqa: F401
    elif kind == "dist":
        import repro.dgps.algorithms  # noqa: F401
        import repro.dist  # noqa: F401
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    data = json.load(sys.stdin)
    graph = Graph(directed=False)
    graph.add_vertices(range(data["n"]))
    for u, v in data["edges"]:
        graph.add_edge(u, v)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
