"""The resident graph service: cache, admission, HTTP, traffic."""

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import QueryError
from repro.obs.export import _jsonable
from repro.serve import (
    AdmissionController,
    BadRequest,
    GraphExists,
    GraphNotFound,
    GraphService,
    QueryCache,
    ServeOverloaded,
    ServeQueueFull,
    start_server,
)
from repro.serve.traffic import (
    MIX_OPS,
    ServeClient,
    TrafficMix,
    build_schedule,
    run_traffic,
)

PLACED = "MATCH (c:Customer)-[:PLACED]->(o:Order) RETURN c, o"


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with tracing off and nothing stored."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def product_service(**kwargs) -> GraphService:
    service = GraphService(**kwargs)
    service.create_graph(graph_id="g1", scenario="product", seed=7)
    return service


class TestTrafficMix:
    def test_parse_roundtrip(self):
        mix = TrafficMix.parse("read=0.7,write=0.2,algo=0.1")
        assert (mix.read, mix.write, mix.algo) == (0.7, 0.2, 0.1)

    def test_missing_ops_default_to_zero(self):
        mix = TrafficMix.parse("read=1.0")
        assert (mix.read, mix.write, mix.algo) == (1.0, 0.0, 0.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic op"):
            TrafficMix.parse("read=0.5,frobnicate=0.5")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrafficMix.parse("read=0.5,write=0.2,algo=0.1")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TrafficMix(read=1.5, write=-0.5, algo=0.0)

    def test_non_numeric_weight_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            TrafficMix.parse("read=lots")


class TestSchedule:
    def test_same_seed_identical_schedules(self):
        mix = TrafficMix()
        first = build_schedule(7, clients=4, requests=10, mix=mix)
        second = build_schedule(7, clients=4, requests=10, mix=mix)
        assert first == second  # plain data, fully deterministic

    def test_different_seed_differs(self):
        mix = TrafficMix()
        assert build_schedule(7, 4, 10, mix) != \
            build_schedule(8, 4, 10, mix)

    def test_shape_and_ops(self):
        plan = build_schedule(3, clients=2, requests=5,
                              mix=TrafficMix())
        assert len(plan) == 2
        assert all(len(client) == 5 for client in plan)
        for entry in plan[0] + plan[1]:
            assert entry["op"] in MIX_OPS

    def test_pure_mix_generates_only_that_op(self):
        plan = build_schedule(1, 2, 8, TrafficMix(read=1.0, write=0.0,
                                                  algo=0.0))
        assert {e["op"] for client in plan for e in client} == {"read"}


class TestQueryCache:
    def test_hit_requires_same_version(self):
        cache = QueryCache()
        cache.put("g", 3, "q", {"rows": [1]})
        assert cache.get("g", 3, "q") == {"rows": [1]}
        assert cache.get("g", 4, "q") is None  # version moved on
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put("g", 0, "a", {"r": 1})
        cache.put("g", 0, "b", {"r": 2})
        cache.get("g", 0, "a")  # refresh a; b is now LRU
        cache.put("g", 0, "c", {"r": 3})
        assert cache.get("g", 0, "b") is None
        assert cache.get("g", 0, "a") is not None
        assert cache.stats()["evictions"] == 1

    def test_drop_graph(self):
        cache = QueryCache()
        cache.put("g1", 0, "a", {"r": 1})
        cache.put("g2", 0, "a", {"r": 2})
        assert cache.drop_graph("g1") == 1
        assert cache.get("g1", 0, "a") is None
        assert cache.get("g2", 0, "a") is not None


class TestAdmission:
    def test_sheds_429_and_503_when_saturated(self):
        ctrl = AdmissionController(max_in_flight=1, queue_limit=0,
                                   queue_timeout_s=0.05)
        slot = ctrl.admit()
        slot.__enter__()  # occupy the only handler slot
        overloads = []

        def waiter():
            try:
                with ctrl.admit():
                    pass
            except ServeOverloaded as exc:
                overloads.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 2.0
        while ctrl.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert ctrl.waiting == 1
        # Queue at its bound: the next arrival is shed immediately.
        with pytest.raises(ServeQueueFull):
            with ctrl.admit():
                pass
        thread.join(timeout=2.0)
        assert len(overloads) == 1  # the waiter timed out -> 429
        slot.__exit__(None, None, None)
        with ctrl.admit() as wait_ms:  # recovered after release
            assert wait_ms >= 0.0

    def test_slot_released_on_handler_error(self):
        ctrl = AdmissionController(max_in_flight=1, queue_limit=0,
                                   queue_timeout_s=0.05)
        with pytest.raises(RuntimeError):
            with ctrl.admit():
                raise RuntimeError("handler blew up")
        with ctrl.admit():  # slot must be free again
            pass


class TestGraphService:
    def test_create_query_and_cache_hit(self):
        service = product_service()
        first = service.query("g1", PLACED)
        second = service.query("g1", PLACED)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["rows"] == second["rows"]
        assert first["row_count"] == 275

    def test_mutation_invalidates_cache(self):
        service = GraphService()
        service.create_graph(
            graph_id="g1",
            vertices=[{"id": "a", "label": "Customer"},
                      {"id": "b", "label": "Customer"}])
        query = "MATCH (c:Customer) RETURN c"
        before = service.query("g1", query)
        assert before["row_count"] == 2
        assert service.query("g1", query)["cache"] == "hit"
        result = service.mutate("g1", [
            {"op": "add_vertex", "vertex": "c", "label": "Customer"}])
        assert result["applied"] == 1
        assert result["version"] > before["version"]
        after = service.query("g1", query)
        # Stale-read impossibility: the mutation bumped the data
        # version, so the old cached 2-row payload is unreachable.
        assert after["cache"] == "miss"
        assert after["row_count"] == 3
        assert after["version"] == result["version"]

    def test_rolled_back_batch_changes_nothing_but_version(self):
        service = GraphService()
        service.create_graph(
            graph_id="g1", vertices=[{"id": "a", "label": "X"}])
        query = "MATCH (v:X) RETURN v"
        assert service.query("g1", query)["row_count"] == 1
        with pytest.raises(Exception):
            # second op hits a bogus edge id -> whole batch rolls back
            service.mutate("g1", [
                {"op": "add_vertex", "vertex": "b", "label": "X"},
                {"op": "remove_edge", "edge_id": 999}])
        after = service.query("g1", query)
        assert after["row_count"] == 1  # rollback really rolled back

    def test_bad_query_raises_named_error(self):
        service = product_service()
        with pytest.raises(QueryError):
            service.query("g1", "MATCH (a:Customer RETURN a")
        with pytest.raises(BadRequest):
            service.query("g1", "   ")

    def test_unknown_graph_and_duplicate_create(self):
        service = product_service()
        with pytest.raises(GraphNotFound):
            service.query("nope", PLACED)
        with pytest.raises(GraphExists):
            service.create_graph(graph_id="g1", scenario="product")

    def test_mutation_validation_is_pre_flight(self):
        service = product_service()
        with pytest.raises(BadRequest, match="unknown mutation op"):
            service.mutate("g1", [{"op": "explode"}])
        with pytest.raises(BadRequest, match="missing field"):
            service.mutate("g1", [{"op": "add_edge", "u": "a"}])
        with pytest.raises(BadRequest):
            service.mutate("g1", [])

    def test_algorithm_aliases(self):
        service = product_service()
        result = service.algorithm("g1", "components", seed=0)
        assert result["algorithm"] == "Finding Connected Components"
        assert result["summary"]  # runner produced a summary
        with pytest.raises(BadRequest, match="unknown algorithm"):
            service.algorithm("g1", "levitation")

    def test_delete_graph_drops_cache(self):
        service = product_service()
        service.query("g1", PLACED)
        assert len(service.cache) == 1
        service.delete_graph("g1")
        assert len(service.cache) == 0
        with pytest.raises(GraphNotFound):
            service.query("g1", PLACED)


class TestServeHTTP:
    @pytest.fixture()
    def server(self):
        obs.enable()
        handle = start_server(GraphService())
        client = ServeClient(handle.base_url)
        status, info = client.request(
            "POST", "/graphs",
            {"graph_id": "g1", "scenario": "product", "seed": 7})
        assert status == 201 and info["id"] == "g1"
        yield handle, client
        client.close()
        handle.shutdown()

    def test_query_matches_direct_executor(self, server):
        handle, client = server
        status, body = client.request(
            "POST", "/graphs/g1/query", {"query": PLACED})
        assert status == 200
        db = handle.service._handle("g1").db
        direct = db.query(PLACED)
        assert json.dumps(body["rows"], sort_keys=True) == \
            json.dumps(_jsonable(direct.rows), sort_keys=True)
        assert body["columns"] == list(direct.columns)

    def test_repeat_query_hits_cache(self, server):
        _, client = server
        first = client.request("POST", "/graphs/g1/query",
                               {"query": PLACED})[1]
        second = client.request("POST", "/graphs/g1/query",
                                {"query": PLACED})[1]
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        assert first["rows"] == second["rows"]

    def test_mutate_then_query_sees_new_data(self, server):
        _, client = server
        before = client.request(
            "POST", "/graphs/g1/query",
            {"query": "MATCH (c:Customer) RETURN c"})[1]
        status, body = client.request(
            "POST", "/graphs/g1/mutate",
            {"operations": [{"op": "add_vertex", "vertex": "newbie",
                             "label": "Customer"}]})
        assert status == 200 and body["applied"] == 1
        after = client.request(
            "POST", "/graphs/g1/query",
            {"query": "MATCH (c:Customer) RETURN c"})[1]
        assert after["cache"] == "miss"
        assert after["row_count"] == before["row_count"] + 1

    def test_error_statuses_are_named(self, server):
        _, client = server
        status, body = client.request("POST", "/graphs/nope/query",
                                      {"query": PLACED})
        assert status == 404 and body["error"] == "GraphNotFound"
        status, body = client.request(
            "POST", "/graphs/g1/query",
            {"query": "MATCH (a:Customer RETURN a"})
        assert status == 400 and body["error"] == "QueryError"
        status, body = client.request(
            "POST", "/graphs/g1/algorithms/levitation", {})
        assert status == 400 and body["error"] == "BadRequest"
        status, body = client.request("GET", "/definitely/not/a/route")
        assert status == 404 and body["error"] == "NotFound"

    def test_malformed_json_body_is_400(self, server):
        handle, _ = server
        from http.client import HTTPConnection

        conn = HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request("POST", "/graphs/g1/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"] == "BadRequest"

    def test_metrics_expose_serve_counters(self, server):
        _, client = server
        client.request("POST", "/graphs/g1/query", {"query": PLACED})
        client.request("POST", "/graphs/g1/query", {"query": PLACED})
        status, metrics = client.request("GET", "/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["serve.requests"] >= 3  # create + 2 queries
        assert counters["serve.cache_hits"] >= 1
        assert counters["serve.cache_misses"] >= 1
        assert metrics["serve"]["cache"]["hits"] >= 1
        assert "serve.request_ms" in metrics["histograms"]
        status, health = client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_shedding_under_tiny_bounds(self):
        obs.enable()
        service = product_service(max_in_flight=1, queue_limit=0,
                                  queue_timeout_s=0.05,
                                  handler_delay_ms=200.0)
        handle = start_server(service)
        try:
            barrier = threading.Barrier(6)
            statuses = []
            lock = threading.Lock()

            def fire():
                client = ServeClient(handle.base_url)
                barrier.wait()
                status, _ = client.request(
                    "POST", "/graphs/g1/query", {"query": PLACED})
                client.close()
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=fire)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert len(statuses) == 6
            assert 200 in statuses  # someone got the slot
            assert 429 in statuses  # the queued request timed out
            assert 503 in statuses  # arrivals past the queue bound
            _, metrics = ServeClient(handle.base_url).request(
                "GET", "/metrics")
            assert metrics["counters"]["serve.shed"] >= 2
        finally:
            handle.shutdown()


@pytest.mark.serve_smoke
class TestServeSmoke:
    def test_boot_query_shutdown_under_five_seconds(self):
        start = time.monotonic()
        obs.enable()
        handle = start_server(GraphService())
        client = ServeClient(handle.base_url)
        status, _ = client.request(
            "POST", "/graphs",
            {"graph_id": "smoke",
             "vertices": [{"id": "a", "label": "N"},
                          {"id": "b", "label": "N"}],
             "edges": [{"u": "a", "v": "b", "label": "E"}]})
        assert status == 201
        status, body = client.request(
            "POST", "/graphs/smoke/query",
            {"query": "MATCH (a:N)-[:E]->(b:N) RETURN a, b"})
        assert status == 200 and body["row_count"] == 1
        status, health = client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        client.close()
        handle.shutdown()
        assert time.monotonic() - start < 5.0


class TestTrafficHarness:
    def test_seeded_run_reports_all_figures(self):
        obs.enable()
        handle = start_server(GraphService())
        try:
            report = run_traffic(handle.base_url, seed=7, clients=3,
                                 requests=4)
        finally:
            handle.shutdown()
        assert report["total_requests"] == 12
        assert report["ok"] + report["shed"] + report["errors"] == 12
        assert report["errors"] == 0
        lat = report["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert report["throughput_rps"] > 0
        assert 0.0 <= report["shed_rate"] <= 1.0
        # Rates come from the server's obs-backed /metrics, not from
        # client-side guesswork.
        assert report["cache"]["hits"] + report["cache"]["misses"] > 0

    @pytest.mark.parametrize("samples", [
        [10.0, 20.0],
        [10.0, 20.0, 30.0, 40.0],
        [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0],
    ])
    def test_latency_percentiles_are_exact(self, samples):
        from repro.obs.metrics import percentile_exact
        from repro.serve.traffic import _report

        results = [{"op": "read", "status": 200, "latency_ms": ms}
                   for ms in samples]
        results.append({"op": "read", "status": 503,
                        "latency_ms": 999.0})
        report = _report(results, 1.0, {}, {}, seed=0, clients=1,
                         requests=len(results), mix=TrafficMix(),
                         slos=[])
        assert report["latency_ms"] == {
            f"p{q}": round(percentile_exact(samples, q), 3)
            for q in (50, 95, 99)}

    def test_latency_percentiles_without_successes_are_zero(self):
        from repro.serve.traffic import _report

        results = [{"op": "read", "status": 503, "latency_ms": 5.0}]
        report = _report(results, 1.0, {}, {}, seed=0, clients=1,
                         requests=1, mix=TrafficMix(), slos=[])
        assert report["latency_ms"] == {"p50": 0.0, "p95": 0.0,
                                        "p99": 0.0}

    def test_cli_json_output(self, capsys):
        from repro.serve.traffic import main

        rc = main(["--seed", "7", "--clients", "2", "--requests", "3",
                   "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.serve.traffic/v2"
        assert report["seed"] == 7
        assert report["total_requests"] == 6
        assert all("compliance" in row for row in report["slo"])

    def test_cli_rejects_bad_mix(self, capsys):
        from repro.serve.traffic import main

        with pytest.raises(SystemExit):
            main(["--mix", "read=0.5,write=0.1,algo=0.1"])
        assert "sum to 1" in capsys.readouterr().err


class TestReportArtifactErrors:
    def test_obs_report_missing_artifact(self, tmp_path, capsys):
        from repro.obs import report as obs_report

        rc = obs_report.main(["--input", str(tmp_path / "nope.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ArtifactError" in err and "does not exist" in err

    def test_obs_report_torn_artifact(self, tmp_path, capsys):
        from repro.obs import report as obs_report

        torn = tmp_path / "torn.json"
        torn.write_text('{"schema": "repro.obs/v1", "spans": [')
        rc = obs_report.main(["--input", str(torn)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_obs_report_wrong_shape(self, tmp_path, capsys):
        from repro.obs import report as obs_report

        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"hello": "world"}')
        rc = obs_report.main(["--input", str(wrong)])
        assert rc == 2
        assert "ArtifactError" in capsys.readouterr().err

    def test_obs_report_replays_saved_payload(self, tmp_path, capsys):
        from repro.obs import report as obs_report

        obs.enable()
        with obs.capture() as trace:
            with obs.span("demo.root", kind="test"):
                pass
        payload = obs.observability_dict(trace.roots)
        artifact = tmp_path / "obs.json"
        artifact.write_text(json.dumps(payload))
        rc = obs_report.main(["--input", str(artifact)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo.root" in out and "METRICS" in out

    def test_dist_report_missing_and_torn(self, tmp_path, capsys):
        from repro.dist import report as dist_report

        rc = dist_report.main(["--input",
                               str(tmp_path / "nope.json")])
        assert rc == 2
        torn = tmp_path / "torn.json"
        torn.write_text('{"rows": [')
        rc = dist_report.main(["--input", str(torn)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("ArtifactError") == 2

    def test_dist_report_replays_saved_report(self, tmp_path, capsys):
        from repro.dist import report as dist_report

        artifact = tmp_path / "dist.json"
        artifact.write_text(json.dumps({
            "graph": {"vertices": 10, "edges": 20},
            "partitioner": "bfs",
            "rows": [{"algorithm": "pagerank", "k": 2,
                      "supersteps": 3, "routed": 5, "combined": 1,
                      "local": 9, "communication_volume": 5,
                      "edge_cut": 2, "checkpoint_bytes": 0,
                      "elapsed_ms": 1.0,
                      "fault": {"recoveries": 1, "checkpoints": 2,
                                "identical": True}}],
        }))
        assert dist_report.main(["--input", str(artifact)]) == 0
        assert "identical" in capsys.readouterr().out
        # A diverged row in the artifact exits 1, like a live run.
        payload = json.loads(artifact.read_text())
        payload["rows"][0]["fault"]["identical"] = False
        artifact.write_text(json.dumps(payload))
        assert dist_report.main(["--input", str(artifact)]) == 1


class TestTrafficMixAnalysisRule:
    def test_cfg005_registered(self):
        from repro.analysis import all_rules

        assert "CFG005" in {rule.rule_id for rule in all_rules()}

    def test_check_traffic_mix_findings(self):
        from repro.analysis import check_traffic_mix

        assert check_traffic_mix("read=0.7,write=0.2,algo=0.1") \
            .findings == []
        bad_sum = check_traffic_mix("read=0.5,write=0.2,algo=0.1")
        assert [f.rule for f in bad_sum.findings] == ["CFG005"]
        unknown = check_traffic_mix("read=1.0,frob=0.0")
        assert [f.rule for f in unknown.findings] == ["CFG005"]

    def test_scanner_lints_trafficmix_parse_literals(self):
        from repro.analysis.scanner import scan_source

        source = (
            "from repro.serve.traffic import TrafficMix\n"
            'good = TrafficMix.parse("read=0.7,write=0.2,algo=0.1")\n'
            'bad = TrafficMix.parse("read=0.9,algo=0.2")\n')
        report = scan_source(source, "demo.py")
        assert [(f.rule, f.line) for f in report.findings] == \
            [("CFG005", 3)]
