"""Clustering -- the survey's most-used ML computation (Table 10a).

Three complementary algorithms:

* :func:`kmeans` -- Lloyd's algorithm with k-means++ seeding over feature
  vectors (clusters any embedding, including spectral ones).
* :func:`spectral_clustering` -- normalized-Laplacian eigenvectors plus
  k-means, the standard graph-cut relaxation.
* :func:`label_propagation_clustering` -- near-linear-time community-style
  clustering by iterative majority voting.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro.graphs.adjacency import Graph, Vertex
from repro.graphs.csr import CSRGraph


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ initialization.

    Returns ``(labels, centers)``. Empty clusters are reseeded from the
    farthest points.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_labels = distances.argmin(axis=1)
        for cluster in range(k):
            members = points[new_labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
            else:  # reseed an empty cluster at the farthest point
                farthest = distances.min(axis=1).argmax()
                centers[cluster] = points[farthest]
                new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def _kmeanspp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(points)
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(
            [((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = distances.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        probabilities = distances / total
        centers.append(points[rng.choice(n, p=probabilities)])
    return np.array(centers, dtype=np.float64)


def inertia(points: np.ndarray, labels: np.ndarray,
            centers: np.ndarray) -> float:
    """Within-cluster sum of squared distances."""
    return float(((points - centers[labels]) ** 2).sum())


def spectral_clustering(
    graph: Graph,
    k: int,
    seed: int = 0,
) -> dict[Vertex, int]:
    """Normalized spectral clustering (Ng-Jordan-Weiss).

    Uses the k smallest eigenvectors of the symmetric normalized
    Laplacian, row-normalized, then k-means. Works on the undirected view
    of the graph.
    """
    csr = CSRGraph.from_graph(
        graph.to_undirected() if graph.directed else graph)
    n = csr.num_vertices()
    if n == 0:
        return {}
    k = min(k, n)
    adjacency = np.zeros((n, n))
    adjacency[csr.entry_rows(), csr.indices] = csr.weights
    adjacency = np.maximum(adjacency, adjacency.T)
    degrees = adjacency.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    laplacian = np.eye(n) - inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    embedding = eigenvectors[:, :k]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    embedding = embedding / norms
    labels, _ = kmeans(embedding, k, seed=seed)
    return csr.labels_to_vertices(labels.tolist())


def label_propagation_clustering(
    graph: Graph,
    seed: int = 0,
    max_rounds: int = 50,
) -> dict[Vertex, int]:
    """Raghavan-style label propagation: every vertex adopts the majority
    label of its neighbors until stable. Returns dense cluster ids."""
    rng = random.Random(seed)
    labels: dict[Vertex, int] = {
        v: i for i, v in enumerate(graph.vertices())}
    vertices = list(graph.vertices())
    for _ in range(max_rounds):
        rng.shuffle(vertices)
        changed = 0
        for vertex in vertices:
            tallies = Counter(
                labels[n] for n in graph.neighbors(vertex))
            if not tallies:
                continue
            top = max(tallies.values())
            winners = sorted(
                label for label, count in tallies.items() if count == top)
            choice = rng.choice(winners)
            if choice != labels[vertex]:
                labels[vertex] = choice
                changed += 1
        if changed == 0:
            break
    return _densify(labels)


def _densify(labels: dict[Vertex, int]) -> dict[Vertex, int]:
    mapping: dict[int, int] = {}
    dense: dict[Vertex, int] = {}
    for vertex, label in labels.items():
        if label not in mapping:
            mapping[label] = len(mapping)
        dense[vertex] = mapping[label]
    return dense


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (O(n^2); for evaluation in tests)."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(points)
    unique = np.unique(labels)
    if n < 2 or len(unique) < 2:
        return 0.0
    distances = np.sqrt(
        ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    scores = []
    for i in range(n):
        same = labels == labels[i]
        same[i] = False
        a = distances[i, same].mean() if same.any() else 0.0
        b = min(
            distances[i, labels == other].mean()
            for other in unique if other != labels[i])
        denominator = max(a, b)
        scores.append((b - a) / denominator if denominator else 0.0)
    return float(np.mean(scores))
