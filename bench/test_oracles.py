"""The oracles fail a run whose answers are wrong."""

import json

import pytest

from bench import kernels, serve_load


@pytest.fixture(scope="module")
def product():
    payload = serve_load.product_payload(smoke=True)
    return serve_load.ProductOracle(payload)


def read_record(oracle, template, argument, rows, cache="miss",
                version=0):
    text = serve_load.TEMPLATES[template].format(argument)
    op = serve_load.Op("read", "/graphs/g1/query",
                       json.dumps({"query": text}).encode(),
                       (template, argument))
    reply = {"columns": ["x"], "rows": rows, "row_count": len(rows),
             "version": version, "cache": cache}
    return serve_load.Record(op, 0.0, 0.001, 200,
                             json.dumps(reply).encode(), measured=True)


def busiest_customer(oracle):
    name = lambda c: oracle.props[c]["name"]  # noqa: E731
    return max((name(c) for c in oracle.customers),
               key=lambda n: len(oracle.rows("orders_of_customer", n)))


def test_the_evaluator_follows_labelled_edges(product):
    customer = busiest_customer(product)
    orders = product.rows("orders_of_customer", customer)
    assert orders and all(product.label[o] == "Order" for [o] in orders)
    bought = product.rows("products_of_customer", customer)
    assert len(bought) == len({tuple(r) for r in bought})  # DISTINCT


def test_correct_responses_pass(product):
    customer = busiest_customer(product)
    rows = product.rows("orders_of_customer", customer)
    records = [read_record(product, "orders_of_customer", customer, rows),
               read_record(product, "orders_of_customer", customer, rows,
                           cache="hit")]
    assert serve_load.check(product, records, None) == []


def test_a_corrupted_response_fails_the_oracle(product):
    customer = busiest_customer(product)
    rows = product.rows("orders_of_customer", customer)
    corrupted = rows[:-1]
    errors = serve_load.check(product, [read_record(
        product, "orders_of_customer", customer, corrupted)], None)
    assert errors and "differ from the evaluator" in errors[0]


def test_a_cache_hit_that_disagrees_with_the_miss_fails(product):
    customer = busiest_customer(product)
    rows = product.rows("orders_of_customer", customer)
    records = [read_record(product, "orders_of_customer", customer, rows),
               read_record(product, "orders_of_customer", customer,
                           list(reversed(rows)), cache="hit")]
    errors = serve_load.check(product, records, None)
    assert errors and "answers differ between responses" in errors[0]


def test_a_lost_write_fails_the_oracle(product):
    customer = product.customers[0]
    body = json.dumps({"operations": []}).encode()
    op = serve_load.Op("write", "/graphs/g1/mutate", body, customer)
    write = serve_load.Record(op, 0.0, 0.001, 200,
                              json.dumps({"applied": 1}).encode(), True)
    assert serve_load.check(product, [write], {"rows": [[customer]]}) == []
    assert serve_load.check(product, [write], {"rows": []})


@pytest.fixture(scope="module")
def rmat():
    return kernels.rmat_input(seed=2, smoke=True)


def summary_of(computation, graph):
    from repro.workloads import run_computation

    return dict(run_computation(computation, graph,
                                seed=kernels.COMPUTATION_SEED).summary)


def test_relabelling_keeps_the_structure():
    from repro.generators.rmat import RMATSpec, rmat_graph

    a, b = (kernels.rmat_input(seed, smoke=True) for seed in (2, 3))
    shipped = rmat_graph(RMATSpec(kernels.SMOKE_SCALE, kernels.EDGE_FACTOR),
                         seed=kernels.STRUCTURE_SEED, directed=False)
    assert a.num_edges() == b.num_edges() == shipped.num_edges()
    assert list(a.vertices()) != list(b.vertices())
    assert sorted(a.degree(v) for v in a.vertices()) \
        == sorted(b.degree(v) for v in b.vertices())
    visited = [summary_of("Breadth-first-search or variant", g)
               for g in (a, b)]
    assert visited[0] == visited[1]


def test_kernel_summaries_match_networkx(rmat):
    for computation in ("Finding Connected Components",
                        "Breadth-first-search or variant",
                        "Ranking & Centrality Scores", "Aggregations"):
        summary = summary_of(computation, rmat)
        assert kernels.check_kernel(computation, rmat, summary) == []


@pytest.mark.parametrize("computation, key, corrupt", [
    ("Finding Connected Components", "largest", lambda v: v - 1),
    ("Breadth-first-search or variant", "visited", lambda v: v + 1),
    ("Ranking & Centrality Scores", "top_pagerank", lambda v: v[::-1]),
    ("Aggregations", "avg_clustering", lambda v: round(v + 0.001, 4)),
])
def test_a_corrupted_summary_fails_the_oracle(rmat, computation, key,
                                              corrupt):
    summary = summary_of(computation, rmat)
    summary[key] = corrupt(summary[key])
    assert kernels.check_kernel(computation, rmat, summary)


def test_dist_values_are_checked_against_dgps(rmat):
    from repro.dgps.algorithms import pagerank_spec
    from repro.dist import run_distributed_pregel

    result = run_distributed_pregel(rmat, pagerank_spec(rmat, supersteps=10),
                                    k=4, partitioner="bfs", seed=2)
    assert kernels.check_dist(rmat, result) == []
    vertex = next(iter(result.values))
    result.values[vertex] += 1e-6
    assert kernels.check_dist(rmat, result)
