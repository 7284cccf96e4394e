"""Cross-module property-based tests on core invariants."""

import random
from collections import deque
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    approximate_betweenness,
    average_clustering,
    betweenness_centrality,
    connected_components,
    core_numbers,
    exact_diameter,
    global_clustering,
    k_core,
    kruskal_mst,
    local_clustering_coefficient,
    mst_weight,
    pagerank,
    prim_mst,
    shortest_path,
    triangle_count,
    triangles_per_vertex,
)
from repro.algorithms import centrality, linalg
from repro.algorithms.linalg import adjacency_matrix
from repro.graphs import CSRGraph, Graph
from repro.ml import girvan_newman, label_spreading


def random_graph(pairs, directed=False, weights=None) -> Graph:
    g = Graph(directed=directed, multigraph=True)
    g.add_vertices(range(12))
    for index, (u, v) in enumerate(pairs):
        weight = weights[index] if weights else 1.0
        g.add_edge(u, v, weight=weight)
    return g


edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=50)


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_pagerank_is_a_distribution(pairs):
    g = random_graph(pairs, directed=True)
    scores = pagerank(g)
    assert abs(sum(scores.values()) - 1.0) < 1e-9
    assert all(score >= 0 for score in scores.values())


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_kruskal_equals_prim(pairs):
    weights = [((i * 37) % 11) + 1.0 for i in range(len(pairs))]
    g = random_graph(pairs, weights=weights)
    assert mst_weight(kruskal_mst(g)) == mst_weight(prim_mst(g))


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_mst_edge_count(pairs):
    g = random_graph(pairs)
    forest = kruskal_mst(g)
    components = len(connected_components(g))
    assert len(forest) == g.num_vertices() - components


@given(edge_lists, st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_k_cores_are_nested(pairs, k):
    g = random_graph(pairs)
    assert k_core(g, k + 1) <= k_core(g, k)


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_core_number_at_most_degree(pairs):
    g = random_graph(pairs)
    simple_degrees = {
        v: len({w for w in g.neighbors(v) if w != v})
        for v in g.vertices()
    }
    for vertex, core in core_numbers(g).items():
        assert core <= simple_degrees[vertex]


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_shortest_path_is_shortest(pairs):
    g = random_graph(pairs)
    path = shortest_path(g, 0, 11)
    if path is None:
        return
    # every edge on the path exists, and no shorter path via BFS depth
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b)
    from repro.algorithms import bfs_distances

    assert len(path) - 1 == bfs_distances(g, 0)[11]


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_triangle_count_invariant_under_duplication(pairs):
    """Parallel duplicates must not change the simple triangle count."""
    g = random_graph(pairs)
    doubled = random_graph(pairs + pairs)
    assert triangle_count(g) == triangle_count(doubled)


def pair_loop_clustering(g):
    """Reference: triangles and clustering by testing every neighbour pair."""
    neighbors = {v: set() for v in g.vertices()}
    for edge in g.edges():
        if edge.u != edge.v:
            neighbors[edge.u].add(edge.v)
            neighbors[edge.v].add(edge.u)
    links, local = {}, {}
    for v, adjacent in neighbors.items():
        ordered = list(adjacent)
        links[v] = sum(1 for i, a in enumerate(ordered)
                       for b in ordered[i + 1:] if b in neighbors[a])
        k = len(adjacent)
        local[v] = 2.0 * links[v] / (k * (k - 1)) if k >= 2 else 0.0
    triangles = sum(links.values()) // 3
    wedges = sum(len(a) * (len(a) - 1) // 2 for a in neighbors.values())
    return {
        "triangles": triangles,
        "per_vertex": links,
        "local": local,
        "average": sum(local[v] for v in g.vertices()) / len(local),
        "global": 3.0 * triangles / wedges if wedges else 0.0,
    }


@given(edge_lists, st.integers(0, 11), st.sets(st.integers(0, 11)),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_triangle_kernels_equal_the_pair_loop(pairs, hub, spokes, directed):
    """Exact agreement, floats included, on multigraphs with self-loops,
    parallel edges, isolated vertices and a hub."""
    g = random_graph(pairs + [(hub, s) for s in sorted(spokes)],
                     directed=directed)
    expected = pair_loop_clustering(g)
    assert triangle_count(g) == expected["triangles"]
    assert triangles_per_vertex(g) == expected["per_vertex"]
    assert {v: local_clustering_coefficient(g, v)
            for v in g.vertices()} == expected["local"]
    assert average_clustering(g) == expected["average"]
    assert global_clustering(g) == expected["global"]


@st.composite
def ranking_graphs(draw):
    """Multigraphs of at most 14 vertices in a drawn insertion order:
    parallel edges (tied and distinct weights), self-loops, dangling and
    isolated vertices, and a hub."""
    directed = draw(st.booleans())
    order = draw(st.permutations(range(draw(st.integers(1, 14)))))
    vertex = st.sampled_from(order)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    hub = draw(vertex)
    pairs += [(hub, spoke) for spoke in draw(st.lists(vertex, max_size=14))]
    weight = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                       st.floats(0.01, 100.0))
    g = Graph(directed=directed, multigraph=True)
    g.add_vertices(order)
    for u, v in pairs:
        g.add_edge(u, v, weight=draw(weight))
    return g


def reference_csr(graph):
    """The per-edge fill loop ``CSRGraph.from_graph`` used to run."""
    order = list(graph.vertices())
    index_of = {v: i for i, v in enumerate(order)}
    rows = [[] for _ in order]
    for edge in graph.edges():
        ui, vi = index_of[edge.u], index_of[edge.v]
        rows[ui].append((vi, edge.weight))
        if not graph.directed and ui != vi:
            rows[vi].append((ui, edge.weight))
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    weights = np.empty(int(indptr[-1]), dtype=np.float64)
    for i, row in enumerate(rows):
        row.sort()
        for offset, (j, w) in enumerate(row):
            indices[indptr[i] + offset] = j
            weights[indptr[i] + offset] = w
    return indptr, indices, weights, order


def reference_pagerank(graph, weighted=False, personalization=None,
                       damping=0.85, tol=1e-10, max_iter=200):
    """Power iteration with one ``np.add.at`` per row, as it used to run."""
    indptr, indices, weights, order = reference_csr(graph)
    n = len(order)
    teleport = np.full(n, 1.0 / n)
    if personalization is not None:
        teleport = np.zeros(n)
        for vertex, mass in personalization.items():
            teleport[order.index(vertex)] = mass
        teleport /= teleport.sum()
    out_weight = np.diff(indptr).astype(np.float64)
    if weighted:
        out_weight = np.array(
            [weights[indptr[i]:indptr[i + 1]].sum() for i in range(n)])
    dangling = out_weight == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new_rank = np.zeros(n)
        scale = np.divide(rank, out_weight, out=np.zeros(n), where=~dangling)
        for i in range(n):
            if dangling[i]:
                continue
            row = slice(indptr[i], indptr[i + 1])
            np.add.at(new_rank, indices[row],
                      scale[i] * weights[row] if weighted else scale[i])
        new_rank = (damping * (new_rank + rank[dangling].sum() * teleport)
                    + (1 - damping) * teleport)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            return dict(zip(order, rank))
    raise AssertionError("reference pagerank did not converge")


def reference_betweenness(graph, normalized=True, sources=None):
    """Dict-based Brandes, one dict operation per visited edge, as
    ``betweenness_centrality`` used to run."""
    vertices = list(graph.vertices())
    scores = {v: 0.0 for v in vertices}
    pivots = vertices if sources is None else list(sources)
    for source in pivots:
        stack, predecessors = [], {}
        sigma, distance = {source: 1.0}, {source: 0}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            stack.append(vertex)
            for neighbor in graph.out_neighbors(vertex):
                if neighbor not in distance:
                    distance[neighbor] = distance[vertex] + 1
                    queue.append(neighbor)
                if distance[neighbor] == distance[vertex] + 1:
                    sigma[neighbor] = sigma.get(neighbor, 0.0) + sigma[vertex]
                    predecessors.setdefault(neighbor, []).append(vertex)
        delta = {vertex: 0.0 for vertex in stack}
        while stack:
            vertex = stack.pop()
            for predecessor in predecessors.get(vertex, ()):
                delta[predecessor] += (
                    sigma[predecessor] / sigma[vertex]) * (1 + delta[vertex])
            if vertex != source:
                scores[vertex] += delta[vertex]
    n = len(vertices)
    for vertex in scores:
        scores[vertex] *= n / len(pivots)
        if not graph.directed:
            scores[vertex] /= 2.0
        if normalized and n > 2:
            denominator = (n - 1) * (n - 2)
            scores[vertex] /= denominator / (1 if graph.directed else 2.0)
    return scores


def reference_label_spreading(graph, seeds, max_iter=100, tol=1e-6):
    """Per-row neighbour means, as ``label_spreading`` used to run."""
    indptr, indices, _, order = reference_csr(
        graph.to_undirected() if graph.directed else graph)
    classes = sorted(set(seeds.values()), key=repr)
    scores = np.zeros((len(order), len(classes)))
    for vertex, label in seeds.items():
        scores[order.index(vertex), classes.index(label)] = 1.0
    clamp = scores.sum(axis=1) > 0
    for _ in range(max_iter):
        new_scores = np.zeros_like(scores)
        for i in range(len(order)):
            neighbors = indices[indptr[i]:indptr[i + 1]]
            if len(neighbors):
                new_scores[i] = scores[neighbors].mean(axis=0)
        new_scores[clamp] = scores[clamp]
        delta = np.abs(new_scores - scores).max()
        scores = new_scores
        if delta < tol:
            break
    return {order[i]: classes[int(row.argmax())]
            for i, row in enumerate(scores) if row.sum() > 0}


def reference_vxm(semiring, vector, matrix):
    """Semiring vector-matrix product one row at a time, as it used to
    run."""
    result = np.full(matrix.shape[0], semiring.zero)
    for i, x in enumerate(vector):
        if x != semiring.zero:
            row = slice(matrix.indptr[i], matrix.indptr[i + 1])
            cols = matrix.indices[row]
            result[cols] = semiring.add(
                result[cols], semiring.multiply(x, matrix.data[row]))
    return result


@given(ranking_graphs())
@settings(max_examples=150, deadline=None)
def test_csr_snapshot_equals_the_fill_loop(g):
    csr = CSRGraph.from_graph(g)
    indptr, indices, weights, order = reference_csr(g)
    for got, want in ((csr.indptr, indptr), (csr.indices, indices),
                      (csr.weights, weights)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert csr.vertex_order == order
    assert csr.num_edges() == g.num_edges()
    twice = csr.transpose().transpose()
    assert np.array_equal(twice.indptr, indptr)
    assert np.array_equal(twice.indices, indices)
    assert np.array_equal(twice.weights, weights)
    lightest = {}
    for i in range(len(order)):
        for j, w in zip(indices[indptr[i]:indptr[i + 1]],
                        weights[indptr[i]:indptr[i + 1]]):
            lightest[i, j] = min(w, lightest.get((i, j), w))
    matrix, _ = adjacency_matrix(g)
    assert matrix.nnz == len(lightest)
    assert {(i, j): matrix[i, j] for i, j in lightest} == lightest


@given(ranking_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_pagerank_equals_the_per_row_loop(g, data):
    vertices = list(g.vertices())
    masses = data.draw(st.dictionaries(
        st.sampled_from(vertices), st.floats(0.0, 5.0)))
    masses[data.draw(st.sampled_from(vertices))] = 1.0
    for kwargs in ({}, {"weighted": True}, {"personalization": masses}):
        got = pagerank(g, **kwargs)
        want = reference_pagerank(g, **kwargs)
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@given(ranking_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_betweenness_equals_dict_brandes(g, data):
    vertices = list(g.vertices())
    sources = data.draw(st.lists(st.sampled_from(vertices), min_size=1))
    k, seed = data.draw(st.integers(1, 14)), data.draw(st.integers(0, 99))
    sampled = (None if k >= len(vertices)
               else random.Random(seed).sample(vertices, k))
    # Small entry budgets split the sources over several batches.
    budget = data.draw(st.sampled_from([1, 40, 200, 1 << 15]))
    for normalized in (True, False):
        with patch.object(centrality, "_BATCH_ENTRIES", budget):
            exact = betweenness_centrality(g, normalized=normalized)
            subset = betweenness_centrality(g, normalized, sources=sources)
            approx = approximate_betweenness(g, k, seed, normalized)
        for got, want in (
                (exact, reference_betweenness(g, normalized=normalized)),
                (subset, reference_betweenness(g, normalized, sources)),
                (approx, reference_betweenness(g, normalized, sampled))):
            assert got == pytest.approx(want, rel=1e-12, abs=0)


@given(ranking_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_label_spreading_and_vxm_equal_the_per_row_loops(g, data):
    vertices = list(g.vertices())
    seeds = data.draw(st.dictionaries(
        st.sampled_from(vertices), st.sampled_from("abc"), min_size=1))
    assert label_spreading(g, seeds) == reference_label_spreading(g, seeds)
    matrix, _ = adjacency_matrix(g)
    vector = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 3.0, np.inf]),
        min_size=len(vertices), max_size=len(vertices))))
    for semiring in (linalg.PLUS_TIMES, linalg.MIN_PLUS, linalg.OR_AND):
        assert np.array_equal(semiring.vxm(vector, matrix),
                              reference_vxm(semiring, vector, matrix))


@pytest.mark.parametrize("nxg", [
    nx.karate_club_graph(),
    nx.planted_partition_graph(4, 8, 0.7, 0.08, seed=3),
    nx.planted_partition_graph(3, 10, 0.6, 0.05, seed=11),
], ids=["karate", "planted-4x8", "planted-3x10"])
def test_girvan_newman_matches_dict_brandes(nxg, monkeypatch):
    """Girvan-Newman removes the edge with the largest endpoint score sum,
    so drift in the last bits of betweenness could pick another edge."""
    g = Graph()
    g.add_vertices(nxg.nodes())
    for u, v in nxg.edges():
        g.add_edge(u, v)
    got = girvan_newman(g, target_communities=4)
    with monkeypatch.context() as patch:
        patch.setattr(centrality, "betweenness_centrality",
                      reference_betweenness)
        want = girvan_newman(g, target_communities=4)
    assert got == want


@given(edge_lists)
@settings(max_examples=30, deadline=None)
def test_diameter_bounded_by_vertices(pairs):
    g = random_graph(pairs)
    assert exact_diameter(g) <= g.num_vertices() - 1


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                max_size=30),
       st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_pregel_components_match_direct(pairs, seed):
    from repro.algorithms import component_labels
    from repro.dgps import pregel_connected_components

    g = random_graph(pairs, directed=bool(seed % 2))
    pregel = pregel_connected_components(g)
    direct = component_labels(g)
    pregel_groups = {}
    for vertex, label in pregel.items():
        pregel_groups.setdefault(label, frozenset())
        pregel_groups[label] = pregel_groups[label] | {vertex}
    direct_groups = {}
    for vertex, label in direct.items():
        direct_groups.setdefault(label, frozenset())
        direct_groups[label] = direct_groups[label] | {vertex}
    assert set(pregel_groups.values()) == set(direct_groups.values())


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                max_size=30))
@settings(max_examples=30, deadline=None)
def test_json_round_trip_property(pairs):
    import tempfile
    from pathlib import Path

    from repro.graphs.io_formats import load_json, save_json

    g = random_graph(pairs, directed=True)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.json"
        save_json(g, path)
        loaded = load_json(path)
    assert loaded.num_vertices() == g.num_vertices()
    assert loaded.num_edges() == g.num_edges()
    assert sorted((e.u, e.v) for e in loaded.edges()) == sorted(
        (e.u, e.v) for e in g.edges())


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1, max_size=25),
       st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_cleaner_is_idempotent(pairs, seed):
    from repro.workloads import standard_cleaning

    g = random_graph(pairs)
    once, _ = standard_cleaning(g)
    twice, report = standard_cleaning(once)
    assert report.total_removed() == 0
    assert twice.num_vertices() == once.num_vertices()
    assert twice.num_edges() == once.num_edges()


@given(st.lists(st.sampled_from(
    ["Person", "Company", "Order", None]), min_size=1, max_size=12),
    st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_query_distinct_never_duplicates(labels, seed):
    from repro.graphs import PropertyGraph
    from repro.query import run_query

    rng = random.Random(seed)
    g = PropertyGraph()
    for i, label in enumerate(labels):
        g.add_vertex(i, label=label)
    for _ in range(len(labels) * 2):
        u, v = rng.randrange(len(labels)), rng.randrange(len(labels))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, label="L")
    result = run_query(g, "MATCH (a)-[:L]->(b) RETURN DISTINCT a")
    assert len(result.rows) == len(set(result.rows))


@st.composite
def pregel_graphs(draw):
    """Multigraphs of at most 12 vertices, directed or undirected, with
    parallel edges and self-loops; vertices with no out-edges are the
    isolated and (directed) dangling ones."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    g = Graph(directed=draw(st.booleans()), multigraph=True)
    g.add_vertices(range(n))
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=30)):
        g.add_edge(u, v)
    return g


def run_on_every_runtime(g, spec, seed):
    """The engine's and dist k=3's results, asserting dist at k=1 is
    the engine exactly: values, superstep count and per-superstep
    active vertices, messages sent and aggregates."""
    from repro.dist import run_distributed_pregel

    engine = spec.run(g)
    one, three = (run_distributed_pregel(g, spec, k=k, seed=seed,
                                         partitioner="random")
                  for k in (1, 3))
    assert one.values == engine.values
    assert one.supersteps == engine.supersteps
    assert ([(s.active_vertices, s.messages_sent, s.aggregates)
             for s in one.stats]
            == [(s.active_vertices, s.messages_sent, s.aggregates)
                for s in engine.stats])
    assert list(three.values) == list(engine.values)
    return engine, three


@given(pregel_graphs(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_pregel_runtimes_agree_with_the_direct_kernels(g, seed):
    from repro.dgps import connected_components_spec, pagerank_spec

    # 400 supersteps: fewer leave some small graphs short of the
    # converged fixed point the tolerance-driven kernel reaches.
    engine, three = run_on_every_runtime(
        g, pagerank_spec(g, supersteps=400), seed)
    direct = pagerank(g, tol=1e-14, max_iter=2000)
    for vertex, score in engine.values.items():
        assert abs(score - direct[vertex]) <= 1e-9
        # float sums group differently across shards
        assert abs(three.values[vertex] - score) <= 1e-12

    engine, three = run_on_every_runtime(
        g, connected_components_spec(g), seed)
    assert three.values == engine.values
    groups = {}
    for vertex, label in engine.values.items():
        groups.setdefault(label, set()).add(vertex)
    assert (sorted(map(sorted, groups.values()))
            == sorted(map(sorted, connected_components(g))))
