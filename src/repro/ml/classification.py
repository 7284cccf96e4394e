"""Node classification on graphs (Table 10a).

Two approaches spanning the practice the survey reports:

* :func:`label_spreading` -- semi-supervised classification from a few
  labelled seeds by iterative neighborhood averaging (Zhu-Ghahramani
  label propagation with clamped seeds).
* :class:`FeatureClassifier` -- supervised one-vs-rest logistic
  regression over the structural node features of
  :mod:`repro.ml.features`.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.errors import VertexNotFound
from repro.graphs.adjacency import Graph, Vertex
from repro.graphs.csr import CSRGraph
from repro.ml.features import node_features, standardize
from repro.ml.regression import LinearModel, fit_logistic_newton

Label = Hashable


def label_spreading(
    graph: Graph,
    seeds: Mapping[Vertex, Label],
    max_iter: int = 100,
    tol: float = 1e-6,
) -> dict[Vertex, Label]:
    """Semi-supervised label propagation with clamped seed labels.

    Each unlabelled vertex's class distribution becomes the mean of its
    neighbors'; seeds stay fixed. Vertices unreachable from any seed keep
    no label (absent from the result).
    """
    if not seeds:
        raise ValueError("need at least one seed label")
    for vertex in seeds:
        if vertex not in graph:
            raise VertexNotFound(vertex)
    csr = CSRGraph.from_graph(
        graph.to_undirected() if graph.directed else graph)
    n = csr.num_vertices()
    classes = sorted(set(seeds.values()), key=repr)
    class_index = {label: i for i, label in enumerate(classes)}
    scores = np.zeros((n, len(classes)))
    clamp = np.zeros(n, dtype=bool)
    for vertex, label in seeds.items():
        i = csr.index(vertex)
        scores[i, class_index[label]] = 1.0
        clamp[i] = True

    rows, degrees = csr.entry_rows(), csr.out_degrees()[:, None]
    for _ in range(max_iter):
        # Each row's neighbour mean, summed in row order like ``mean``.
        new_scores = np.zeros_like(scores)
        np.add.at(new_scores, rows, scores[csr.indices])
        np.divide(new_scores, degrees, out=new_scores, where=degrees > 0)
        new_scores[clamp] = scores[clamp]
        delta = np.abs(new_scores - scores).max()
        scores = new_scores
        if delta < tol:
            break

    winners = scores.argmax(axis=1)
    return {csr.vertex(i): classes[winners[i]]
            for i in np.flatnonzero(scores.sum(axis=1) > 0)}


class FeatureClassifier:
    """One-vs-rest logistic regression over structural node features."""

    def __init__(self, features: tuple[str, ...] | None = None):
        self._feature_names = features
        self._models: dict[Label, LinearModel] = {}
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, graph: Graph, labels: Mapping[Vertex, Label],
            ) -> "FeatureClassifier":
        """Train on the labelled subset of the graph's vertices."""
        if not labels:
            raise ValueError("need at least one labelled vertex")
        kwargs = {}
        if self._feature_names is not None:
            kwargs["features"] = self._feature_names
        vertices, matrix = node_features(graph, **kwargs)
        self._mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std == 0] = 1.0
        self._std = std
        matrix = (matrix - self._mean) / self._std
        index_of = {v: i for i, v in enumerate(vertices)}
        labelled = [v for v in labels if v in index_of]
        if not labelled:
            raise VertexNotFound(next(iter(labels)))
        x = matrix[[index_of[v] for v in labelled]]
        classes = sorted(set(labels.values()), key=repr)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        self._models = {}
        for cls in classes:
            y = np.array([1.0 if labels[v] == cls else 0.0
                          for v in labelled])
            self._models[cls] = fit_logistic_newton(x, y)
        return self

    def predict(self, graph: Graph) -> dict[Vertex, Label]:
        """Predict a label for every vertex of the graph."""
        if not self._models:
            raise RuntimeError("classifier is not fitted")
        kwargs = {}
        if self._feature_names is not None:
            kwargs["features"] = self._feature_names
        vertices, matrix = node_features(graph, **kwargs)
        matrix = (matrix - self._mean) / self._std
        probabilities = {
            cls: model.predict_proba(matrix)
            for cls, model in self._models.items()
        }
        result: dict[Vertex, Label] = {}
        classes = list(self._models)
        stacked = np.vstack([probabilities[cls] for cls in classes])
        winners = stacked.argmax(axis=0)
        for i, vertex in enumerate(vertices):
            result[vertex] = classes[int(winners[i])]
        return result


def train_test_split_vertices(
    labels: Mapping[Vertex, Label],
    train_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[dict[Vertex, Label], dict[Vertex, Label]]:
    """Deterministic stratified-ish split of a labelled vertex set."""
    import random

    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = random.Random(seed)
    items = list(labels.items())
    rng.shuffle(items)
    cut = max(1, int(len(items) * train_fraction))
    return dict(items[:cut]), dict(items[cut:])


def classification_accuracy(
    truth: Mapping[Vertex, Label],
    predicted: Mapping[Vertex, Label],
) -> float:
    """Accuracy over the vertices present in both mappings."""
    shared = [v for v in truth if v in predicted]
    if not shared:
        return 0.0
    return sum(truth[v] == predicted[v] for v in shared) / len(shared)


def standardized_features(graph: Graph) -> tuple[list[Vertex], np.ndarray]:
    """Convenience: standardized structural features for external models."""
    vertices, matrix = node_features(graph)
    return vertices, standardize(matrix)
