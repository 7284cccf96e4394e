"""Cross-module property-based tests on core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    average_clustering,
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
from repro.graphs import Graph


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
