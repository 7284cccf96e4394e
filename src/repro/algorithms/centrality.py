"""Centrality scores (Table 9 "Ranking & Centrality Scores").

Degree, closeness, betweenness (Brandes' algorithm, exact and sampled),
and harmonic centrality. Betweenness follows out-edges on directed graphs
and treats undirected graphs symmetrically. It runs Brandes
level-synchronously over a CSR snapshot with parallel edges collapsed:
a batch of sources shares one frontier array per BFS level, and path
counts and dependencies are scattered along the frontier's edges.
"""

from __future__ import annotations

import random

import numpy as np

from repro.graphs.adjacency import Vertex
from repro.graphs.csr import CSRGraph


def degree_centrality(graph) -> dict[Vertex, float]:
    """Degree / (n - 1); the standard normalization."""
    n = graph.num_vertices()
    if n <= 1:
        return {v: 0.0 for v in graph.vertices()}
    return {v: graph.degree(v) / (n - 1) for v in graph.vertices()}


def closeness_centrality(graph) -> dict[Vertex, float]:
    """Wasserman-Faust closeness: reachable-set-scaled inverse mean
    distance, 0 for isolated vertices."""
    from repro.algorithms.paths import bfs_distances

    n = graph.num_vertices()
    scores: dict[Vertex, float] = {}
    for vertex in graph.vertices():
        distances = bfs_distances(graph, vertex)
        reachable = len(distances) - 1
        if reachable <= 0:
            scores[vertex] = 0.0
            continue
        total = sum(distances.values())
        scores[vertex] = (reachable / total) * (reachable / (n - 1))
    return scores


def harmonic_centrality(graph) -> dict[Vertex, float]:
    """Sum of reciprocal distances to every other vertex."""
    from repro.algorithms.paths import bfs_distances

    scores: dict[Vertex, float] = {}
    for vertex in graph.vertices():
        distances = bfs_distances(graph, vertex)
        scores[vertex] = sum(
            1.0 / d for target, d in distances.items() if target != vertex)
    return scores


def betweenness_centrality(
    graph,
    normalized: bool = True,
    sources: list[Vertex] | None = None,
) -> dict[Vertex, float]:
    """Brandes' betweenness centrality (unweighted).

    ``sources`` restricts the accumulation to a subset of source vertices
    (the standard sampling approximation); scores are then scaled by
    ``n / len(sources)`` to stay comparable to the exact values.
    """
    # A parallel edge adds no second shortest path.
    csr = CSRGraph.from_graph(graph).collapsed()
    n = csr.num_vertices()
    if sources is None:
        pivots = np.arange(n)
        scale_up = 1.0
    else:
        pivots = np.array([csr.index(s) for s in sources], dtype=np.int64)
        if not len(pivots):
            raise ValueError("sources must be non-empty")
        scale_up = n / len(pivots)

    scores = np.zeros(n)
    # Each level's arrays hold at most batch * max(n, nnz) entries.
    batch = max(1, _BATCH_ENTRIES // max(n, len(csr.indices), 1))
    for first in range(0, len(pivots), batch):
        scores += _brandes_accumulate(csr, pivots[first:first + batch])

    scores *= scale_up
    if not graph.directed:
        scores /= 2.0
    if normalized and n > 2:
        denominator = (n - 1) * (n - 2)
        if not graph.directed:
            denominator /= 2.0
        scores /= denominator
    return dict(zip(csr.vertex_order, scores.tolist()))


#: Entry budget for one batch of Brandes sources (256 KiB per int64 array).
_BATCH_ENTRIES = 1 << 15


def _brandes_accumulate(csr: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Every vertex's dependency summed over a batch of sources, less their
    own. One BFS runs over one copy of the graph per source, vertex ``v``
    of copy ``b`` at ``b * n + v``. Only frontiers are stored; the
    backward pass re-expands them."""
    n = csr.num_vertices()
    roots = np.arange(len(sources)) * n + sources
    distance = np.full(len(sources) * n, -1, dtype=np.int64)
    sigma = np.zeros(len(sources) * n)
    slot = np.empty(len(sources) * n, dtype=np.int64)
    distance[roots], sigma[roots] = 0, 1.0
    levels = [roots]
    while True:
        parents, children = _expand(csr, levels[-1])
        unseen = distance[children] < 0
        if not unseen.any():
            break
        parents, children = parents[unseen], children[unseen]
        distance[children] = len(levels)
        np.add.at(sigma, children, sigma[parents])
        # One position per distinct child wins the scatter.
        ranks = np.arange(len(children))
        slot[children] = ranks
        levels.append(children[slot[children] == ranks])
    delta = np.zeros(len(sources) * n)
    for depth in range(len(levels) - 1, 0, -1):
        parents, children = _expand(csr, levels[depth - 1])
        on_path = distance[children] == depth
        parents, children = parents[on_path], children[on_path]
        np.add.at(delta, parents,
                  sigma[parents] / sigma[children] * (1 + delta[children]))
    delta[roots] = 0.0
    return delta.reshape(len(sources), n).sum(axis=0)


def _expand(csr: CSRGraph, frontier: np.ndarray):
    """Every (parent, child) pair along the frontier's rows."""
    vertex = frontier % csr.num_vertices()
    ends = csr.indptr[vertex + 1]
    counts = ends - csr.indptr[vertex]
    # Entry k of the expansion, in row j, sits at ends[j] - cumsum[j] + k.
    positions = np.repeat(ends - np.cumsum(counts), counts)
    positions += np.arange(len(positions))
    return (np.repeat(frontier, counts),
            np.repeat(frontier - vertex, counts) + csr.indices[positions])


def approximate_betweenness(
    graph,
    num_samples: int,
    seed: int = 0,
    normalized: bool = True,
) -> dict[Vertex, float]:
    """Sampled Brandes: accumulate from ``num_samples`` random sources."""
    vertices = list(graph.vertices())
    if num_samples >= len(vertices):
        return betweenness_centrality(graph, normalized=normalized)
    rng = random.Random(seed)
    sources = rng.sample(vertices, num_samples)
    return betweenness_centrality(graph, normalized=normalized,
                                  sources=sources)


def top_central(scores: dict[Vertex, float], k: int) -> list[Vertex]:
    """The k most central vertices, ties broken by repr."""
    return sorted(scores, key=lambda v: (-scores[v], repr(v)))[:k]
