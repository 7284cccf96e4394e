"""Linear-algebra kernels, storage formats, and the ETL/cleaning tools."""

import math
import random

import pytest

from repro.algorithms import (
    bfs_distances,
    dijkstra,
    linalg,
    pagerank,
    triangle_count,
)
from repro.errors import GraphError
from repro.generators import gnm_random_graph
from repro.graphs import Graph, PropertyGraph, graph_from_edges
from repro.graphs.io_formats import (
    FORMATS,
    load_graph,
    save_graph,
    store_in_multiple_formats,
)
from repro.workloads import (
    EdgeTable,
    GraphCleaner,
    VertexTable,
    build_graph_from_tables,
    standard_cleaning,
)


@pytest.fixture(scope="module")
def weighted_graph():
    base = gnm_random_graph(40, 120, seed=6)
    rng = random.Random(6)
    g = Graph(directed=False)
    g.add_vertices(base.vertices())
    for edge in base.edges():
        g.add_edge(edge.u, edge.v, weight=round(rng.uniform(0.5, 2.0), 2))
    return g


class TestLinalg:
    def test_bfs_levels_match(self, weighted_graph):
        assert linalg.bfs_levels_matrix(weighted_graph, 0) == \
            bfs_distances(weighted_graph, 0)

    def test_sssp_matches_dijkstra(self, weighted_graph):
        ours = linalg.sssp_matrix(weighted_graph, 0)
        reference = dijkstra(weighted_graph, 0)
        assert set(ours) == set(reference)
        for vertex, distance in reference.items():
            assert ours[vertex] == pytest.approx(distance)

    def test_pagerank_matches_direct(self, weighted_graph):
        ours = linalg.pagerank_matrix(weighted_graph, tol=1e-12)
        reference = pagerank(weighted_graph, tol=1e-12)
        for vertex in weighted_graph.vertices():
            assert ours[vertex] == pytest.approx(reference[vertex],
                                                 abs=1e-8)

    def test_triangles_match(self, weighted_graph):
        assert linalg.triangle_count_matrix(weighted_graph) == \
            triangle_count(weighted_graph)

    def test_triangles_directed_symmetrized(self):
        g = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        assert linalg.triangle_count_matrix(g) == 1

    def test_degree_vector(self, weighted_graph):
        degrees = linalg.degree_vector(weighted_graph)
        for vertex in weighted_graph.vertices():
            assert degrees[vertex] == weighted_graph.out_degree(vertex)

    def test_reachability_power(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        reach2 = linalg.matrix_power_reachability(g, 2)
        matrix, order = linalg.adjacency_matrix(g)
        index = {v: i for i, v in enumerate(order)}
        assert reach2[index[0], index[2]] == 1
        assert reach2[index[0], index[3]] == 0

    def test_semiring_vxm(self):
        g = graph_from_edges([(0, 1)], directed=True)
        matrix, order = linalg.adjacency_matrix(g)
        import numpy as np

        vector = np.array([1.0, 0.0])
        out = linalg.PLUS_TIMES.vxm(vector, matrix)
        assert out.tolist() == [0.0, 1.0]

    def test_adjacency_parallel_edges_use_min(self):
        g = Graph(directed=True, multigraph=True)
        g.add_edge(0, 1, weight=5.0)
        g.add_edge(0, 1, weight=2.0)
        matrix, order = linalg.adjacency_matrix(g)
        index = {v: i for i, v in enumerate(order)}
        assert matrix[index[0], index[1]] == 2.0

    def test_adjacency_of_edge_array_parallel_entries_use_min(self):
        from repro.graphs.csr import CSRGraph

        csr = CSRGraph.from_edge_array([0, 0], [1, 1], num_vertices=2,
                                       weights=[2.0, 1.0])
        matrix, _ = linalg.adjacency_matrix(csr)
        assert matrix.nnz == 1
        assert matrix[0, 1] == 1.0


class TestFormats:
    @pytest.fixture()
    def rich_graph(self):
        g = PropertyGraph(directed=True)
        g.add_vertex("ann", label="Person", age=42)
        g.add_vertex("bob", label="Person")
        g.add_vertex("loner")
        g.add_edge("ann", "bob", weight=2.5, label="KNOWS")
        g.add_edge("bob", "ann", weight=1.0)
        return g

    @pytest.mark.parametrize("format", sorted(FORMATS))
    def test_round_trip_structure(self, rich_graph, format, tmp_path):
        path = tmp_path / f"graph.{format}"
        save_graph(rich_graph, path, format)
        loaded = load_graph(path, format)
        assert loaded.num_vertices() == 3
        assert loaded.num_edges() == 2
        assert loaded.directed
        assert sorted(e.weight for e in loaded.edges()) == [1.0, 2.5]

    def test_json_round_trips_properties(self, rich_graph, tmp_path):
        path = tmp_path / "g.json"
        save_graph(rich_graph, path, "json")
        loaded = load_graph(path, "json")
        assert loaded.vertex_label("ann") == "Person"
        assert loaded.vertex_property("ann", "age") == 42
        edge = next(e for e in loaded.edges() if e.weight == 2.5)
        assert loaded.edge_label(edge.edge_id) == "KNOWS"

    def test_graphml_round_trips_labels(self, rich_graph, tmp_path):
        path = tmp_path / "g.graphml"
        save_graph(rich_graph, path, "graphml")
        loaded = load_graph(path, "graphml")
        assert loaded.vertex_label("ann") == "Person"

    def test_csv_is_two_tables(self, rich_graph, tmp_path):
        path = tmp_path / "g.csv"
        save_graph(rich_graph, path, "csv")
        assert (tmp_path / "g.csv.vertices.csv").exists()
        assert (tmp_path / "g.csv.edges.csv").exists()

    def test_undirected_round_trip(self, tmp_path):
        g = graph_from_edges([(1, 2), (2, 3)], directed=False)
        for format in ("edgelist", "json", "gml", "binary"):
            path = tmp_path / f"u.{format}"
            save_graph(g, path, format)
            loaded = load_graph(path, format)
            assert not loaded.directed, format
            assert loaded.num_edges() == 2, format

    def test_unknown_format(self, rich_graph, tmp_path):
        with pytest.raises(GraphError):
            save_graph(rich_graph, tmp_path / "x", "clay-tablet")
        with pytest.raises(GraphError):
            load_graph(tmp_path / "x", "clay-tablet")

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE....")
        with pytest.raises(GraphError):
            load_graph(path, "binary")

    def test_store_in_multiple_formats(self, rich_graph, tmp_path):
        written = store_in_multiple_formats(
            rich_graph, tmp_path / "multi", ["json", "gml"])
        assert set(written) == {"json", "gml"}
        for path in written.values():
            assert path.exists()

    def test_empty_graph_round_trip(self, tmp_path):
        g = Graph(directed=False)
        for format in ("edgelist", "json", "binary"):
            path = tmp_path / f"empty.{format}"
            save_graph(g, path, format)
            loaded = load_graph(path, format)
            assert loaded.num_vertices() == 0


class TestETL:
    def tables(self):
        customers = VertexTable(
            label="Customer", key="id", properties=("name",),
            rows=[{"id": "c1", "name": "Ann"},
                  {"id": "c2", "name": "Bob"}])
        products = VertexTable(
            label="Product", key="sku", properties=("price",),
            rows=[{"sku": "p1", "price": 9.5}])
        orders = EdgeTable(
            label="ORDERED", source="customer", target="product",
            weight="quantity", properties=("channel",),
            rows=[{"customer": "c1", "product": "p1", "quantity": 2,
                   "channel": "web"},
                  {"customer": "c2", "product": "p1", "quantity": 1,
                   "channel": "store"}])
        return [customers, products], [orders]

    def test_build_graph(self):
        vertex_tables, edge_tables = self.tables()
        graph = build_graph_from_tables(vertex_tables, edge_tables)
        assert graph.num_vertices() == 3
        assert graph.num_edges() == 2
        assert graph.vertex_label("c1") == "Customer"
        assert graph.vertex_property("p1", "price") == 9.5
        edge = next(e for e in graph.edges() if e.u == "c1")
        assert edge.weight == 2.0
        assert graph.edge_property(edge.edge_id, "channel") == "web"

    def test_strict_dangling_fk(self):
        orders = EdgeTable(label="ORDERED", source="customer",
                           target="product",
                           rows=[{"customer": "ghost", "product": "p1"}])
        products = VertexTable(label="Product", key="sku",
                               rows=[{"sku": "p1"}])
        with pytest.raises(GraphError):
            build_graph_from_tables([products], [orders], strict=True)
        lenient = build_graph_from_tables([products], [orders],
                                          strict=False)
        assert "ghost" in lenient

    def test_missing_key_column(self):
        bad = VertexTable(label="X", key="id", rows=[{"nope": 1}])
        with pytest.raises(GraphError):
            build_graph_from_tables([bad], [])

    def test_cleaner_steps(self):
        g = Graph(directed=False, multigraph=True)
        g.add_edge(1, 1)            # self loop
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(1, 2, weight=2.0)  # parallel
        g.add_vertex(99)            # isolated
        g.add_edge(7, 8)            # small component
        g.add_edge(2, 3)
        cleaner = (GraphCleaner()
                   .drop_self_loops()
                   .merge_parallel_edges()
                   .drop_isolated_vertices()
                   .keep_largest_component())
        cleaned, report = cleaner.clean(g)
        assert report.self_loops_removed == 1
        assert report.parallel_edges_merged == 1
        assert report.isolated_vertices_removed == 1
        assert report.small_component_vertices_removed == 2
        assert set(cleaned.vertices()) == {1, 2, 3}
        assert cleaned.edge_weight(1, 2) == 3.0  # merged weights summed
        # input untouched
        assert g.num_edges() == 5

    def test_clamp_weights(self):
        g = Graph(directed=False)
        g.add_edge(1, 2, weight=100.0)
        g.add_edge(2, 3, weight=0.001)
        cleaned, report = (GraphCleaner()
                           .clamp_weights(minimum=0.1, maximum=10.0)
                           .clean(g))
        weights = sorted(e.weight for e in cleaned.edges())
        assert weights == [0.1, 10.0]
        assert report.weights_clamped == 2

    def test_standard_cleaning(self):
        g = Graph(directed=False, multigraph=True)
        g.add_edge(1, 1)
        g.add_edge(1, 2)
        g.add_vertex(9)
        cleaned, report = standard_cleaning(g)
        assert report.total_removed() >= 2
        assert set(cleaned.vertices()) == {1, 2}

    def test_etl_feeds_algorithms(self):
        """End-to-end: relational tables -> graph -> pagerank."""
        vertex_tables, edge_tables = self.tables()
        graph = build_graph_from_tables(vertex_tables, edge_tables)
        scores = pagerank(graph)
        assert scores["p1"] > scores["c1"]  # everything points at p1
