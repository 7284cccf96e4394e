"""Compressed-sparse-row snapshot of a graph for numpy analytics.

Iterative whole-graph computations (PageRank, spectral clustering, label
propagation at scale) are much faster on flat arrays than on dict
adjacency. :class:`CSRGraph` freezes a :class:`~repro.graphs.adjacency.
Graph` into indptr/indices/weights arrays plus a vertex <-> index mapping.
Snapshots are built with array operations: one pass over the edges into
source/target/weight arrays, mirrored when undirected, then one sort.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import VertexNotFound
from repro.graphs.adjacency import Graph, Vertex


class CSRGraph:
    """Immutable CSR adjacency over integer vertex indices. Every row must
    be sorted by (target, weight), as the classmethods build it, so that
    parallel entries are adjacent for :meth:`collapsed`."""

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        vertex_order: Sequence[Vertex],
        directed: bool,
    ):
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if len(indices) != len(weights):
            raise ValueError("indices and weights must align")
        if len(indptr) != len(vertex_order) + 1:
            raise ValueError("indptr must have num_vertices + 1 entries")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.vertex_order = list(vertex_order)
        self.directed = directed
        self._index_of = {v: i for i, v in enumerate(self.vertex_order)}

    # -- construction --------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a graph. Undirected edges appear in both rows."""
        order = list(graph.vertices())
        index_of = {v: i for i, v in enumerate(order)}
        edges = list(graph.edges())
        sources = np.array([index_of[e.u] for e in edges], dtype=np.int64)
        targets = np.array([index_of[e.v] for e in edges], dtype=np.int64)
        weights = np.array([e.weight for e in edges], dtype=np.float64)
        if not graph.directed:
            sources, targets, weights = _mirrored(sources, targets, weights)
        return cls._from_arcs(sources, targets, weights, order,
                              graph.directed)

    @classmethod
    def from_edge_array(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        num_vertices: int,
        weights: np.ndarray | None = None,
        directed: bool = True,
    ) -> "CSRGraph":
        """Build directly from parallel source/target index arrays."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same shape")
        if sources.size and (min(sources.min(), targets.min()) < 0 or
                             max(sources.max(), targets.max()) >= num_vertices):
            raise ValueError("vertex indices must be in [0, num_vertices)")
        if weights is None:
            weights = np.ones(len(sources), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        if not directed:
            sources, targets, weights = _mirrored(sources, targets, weights)
        return cls._from_arcs(sources, targets, weights, range(num_vertices),
                              directed)

    @classmethod
    def _from_arcs(cls, sources, targets, weights, vertex_order,
                   directed) -> "CSRGraph":
        """CSR of the arcs, every row sorted by (target, weight). Indices
        must lie in ``range(len(vertex_order))``."""
        n = len(vertex_order)
        # One int64 key per (row, target) cell sorts like the pair.
        order = np.lexsort((weights, sources * n + targets))
        counts = np.bincount(sources, minlength=n)
        return cls(indptr=np.concatenate([[0], np.cumsum(counts)]),
                   indices=targets[order], weights=weights[order],
                   vertex_order=vertex_order, directed=directed)

    # -- access ----------------------------------------------------------

    def num_vertices(self) -> int:
        return len(self.vertex_order)

    def num_edges(self) -> int:
        """Stored rows; undirected edges count once."""
        nnz = len(self.indices)
        return nnz if self.directed else (nnz + self._num_loops()) // 2

    def _num_loops(self) -> int:
        return int(np.count_nonzero(self.indices == self.entry_rows()))

    def index(self, vertex: Vertex) -> int:
        try:
            return self._index_of[vertex]
        except KeyError:
            raise VertexNotFound(vertex) from None

    def vertex(self, index: int) -> Vertex:
        return self.vertex_order[index]

    def neighbors_of_index(self, index: int) -> np.ndarray:
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def weights_of_index(self, index: int) -> np.ndarray:
        return self.weights[self.indptr[index]:self.indptr[index + 1]]

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.num_vertices(), dtype=np.int64),
                         np.diff(self.indptr))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.num_vertices())

    def transpose(self) -> "CSRGraph":
        """The reverse graph (same object semantics for undirected)."""
        return CSRGraph._from_arcs(self.indices, self.entry_rows(),
                                   self.weights, self.vertex_order,
                                   self.directed)

    def collapsed(self) -> "CSRGraph":
        """One entry per (row, target) pair: the first of its parallel
        entries, which carries their smallest weight."""
        cells = self.entry_rows() * self.num_vertices() + self.indices
        first = np.diff(cells, prepend=-1) != 0
        kept_before = np.concatenate([[0], np.cumsum(first)])
        return CSRGraph(kept_before[self.indptr], self.indices[first],
                        self.weights[first], self.vertex_order, self.directed)

    def labels_to_vertices(self, values: Iterable) -> dict[Vertex, object]:
        """Zip an index-aligned result array back onto vertex ids."""
        return {self.vertex_order[i]: value
                for i, value in enumerate(values)}


def _mirrored(sources, targets, weights):
    """Add the reverse of every non-loop arc (undirected snapshots)."""
    keep = sources != targets
    return (np.concatenate([sources, targets[keep]]),
            np.concatenate([targets, sources[keep]]),
            np.concatenate([weights, weights[keep]]))
