"""Deadlines, circuit breaking, degraded modes, drain, serve chaos."""

import time
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.dgps import pagerank_spec, run_pregel
from repro.dist import FaultPlan, run_distributed_pregel
from repro.dist.resilience import RetryPolicy
from repro.generators import gnm_random_graph
from repro.obs.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
    parse_deadline_ms,
)
from repro.serve import (
    BreakerConfig,
    BreakerOpen,
    GraphService,
    ServiceDraining,
    error_status,
    start_server,
)
from repro.serve.chaos import (
    CHAOS_HEADER,
    ChaosDirective,
    ChaosInjector,
    InjectedServeFault,
    chaos_scope,
    plan_chaos,
    run_serve_chaos,
    schedule_digest,
)
from repro.serve.resilience import BreakerBoard, CircuitBreaker
from repro.serve.traffic import ServeClient, TrafficMix, build_schedule

PLACED = "MATCH (c:Customer)-[:PLACED]->(o:Order) RETURN c, o"


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with tracing off and nothing stored."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(40, 80, directed=False, seed=5)


def product_service(**kwargs) -> GraphService:
    service = GraphService(**kwargs)
    service.create_graph(graph_id="g1", scenario="product", seed=7)
    return service


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_header_parse(self):
        assert parse_deadline_ms(None) is None
        assert parse_deadline_ms("50") == 50.0
        assert parse_deadline_ms("2500.5") == 2500.5
        with pytest.raises(ValueError, match="positive number"):
            parse_deadline_ms("soon")
        with pytest.raises(ValueError, match="0 < ms"):
            parse_deadline_ms("-5")

    def test_expiry_is_a_named_504(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        deadline.check("early")  # within budget: no-op
        clock.advance(0.025)
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("late.site")
        assert err.value.where == "late.site"
        assert err.value.budget_ms == 10.0
        assert err.value.overrun_ms == pytest.approx(15.0)
        assert error_status(err.value) == 504

    def test_scope_binds_and_unbinds(self):
        assert current_deadline() is None
        with deadline_scope(500.0) as deadline:
            assert current_deadline() is deadline
            assert 0 < deadline.remaining_ms() <= 500.0
        assert current_deadline() is None

    def test_spans_stamp_remaining_budget(self):
        obs.enable()
        with deadline_scope(60_000.0):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        (root,) = obs.finished_roots()
        spans = list(root.walk())
        assert all(0 < s.attributes["deadline_remaining_ms"] <= 60_000
                   for s in spans)
        # Without an ambient deadline the attribute never appears.
        obs.reset()
        with obs.span("bare"):
            pass
        (bare,) = obs.finished_roots()
        assert "deadline_remaining_ms" not in bare.attributes


class TestDeadlineCooperativeCancel:
    def test_expires_mid_query_row_loop(self):
        service = product_service()
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        db = service._graphs["g1"].db
        clock.advance(0.05)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as err:
                db.query(PLACED)
        assert err.value.where == "query.run:row"

    def test_expires_between_pregel_supersteps(self, graph):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        spec = pagerank_spec(graph, supersteps=10)

        def hook(superstep, values):
            clock.advance(0.06)  # 60ms of fake work per superstep

        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as err:
                run_pregel(graph, spec.program,
                           initial_value=spec.initial_value,
                           combiner=spec.combiner,
                           aggregators=spec.aggregators,
                           max_supersteps=spec.max_supersteps,
                           trace_hook=hook)
        # 100ms budget / 60ms per superstep: dies at boundary 2.
        assert err.value.where == "pregel.superstep:2"

    def test_dist_run_returns_504_and_releases_slot(self):
        obs.enable()
        service = product_service()
        with deadline_scope(25.0):
            with pytest.raises(DeadlineExceeded) as err:
                service.algorithm("g1", "pagerank", seed=0,
                                  distributed=True, shards=2)
        # Cancelled at a cooperative dist yield point, not a timeout
        # bolted on from outside...
        assert err.value.where.startswith("dist.")
        assert error_status(err.value) == 504
        # ...the admission slot came back with the unwind...
        assert service.admission.in_flight == 0
        assert service.admission.waiting == 0
        # ...and every span the request traversed carries the budget,
        # strictly decreasing from the serve edge into the workers.
        stamped = [(s.name, s.attributes["deadline_remaining_ms"])
                   for root in obs.finished_roots()
                   for s in root.walk()
                   if "deadline_remaining_ms" in s.attributes]
        names = {name for name, _ in stamped}
        assert "serve.request" in names
        assert "dist.run" in names
        serve_budget = max(v for n, v in stamped
                           if n == "serve.request")
        assert min(v for _, v in stamped) < serve_budget

    def test_generous_deadline_keeps_replay_byte_identical(self, graph):
        spec = pagerank_spec(graph, supersteps=8)
        clean = run_distributed_pregel(graph, spec, k=2)
        with deadline_scope(60_000.0):
            faulted = run_distributed_pregel(
                graph, spec, k=2,
                fault_plan=FaultPlan().kill("w1", at_superstep=2))
        assert repr(faulted.values) == repr(clean.values)
        assert faulted.recoveries == 1


class TestBreakerConfig:
    def test_parse_render_roundtrip(self):
        spec = "window=20,threshold=0.5,min_requests=5,probes=2," \
               "cooldown_s=5"
        config = BreakerConfig.parse(spec)
        assert BreakerConfig.parse(config.render()) == config

    def test_deadline_folds_into_the_literal(self):
        config = BreakerConfig.parse(
            "window=10,threshold=0.3,deadline_ms=500")
        assert config.deadline_ms == 500.0
        assert "deadline_ms=500" in config.render()

    @pytest.mark.parametrize("bad", [
        "window=0",
        "threshold=1.5",
        "threshold=0",
        "min_requests=30,window=10",
        "probes=0",
        "cooldown_s=0",
        "deadline_ms=-1",
        "frobnicate=3",
        "window=ten",
        "window=5,window=6",
    ])
    def test_invalid_literals_rejected(self, bad):
        with pytest.raises(ValueError):
            BreakerConfig.parse(bad)


class TestCircuitBreaker:
    CONFIG = BreakerConfig(window=4, threshold=0.5, min_requests=2,
                           probes=2, cooldown_s=5.0)

    def test_full_state_cycle_under_fake_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker("algorithm", self.CONFIG,
                                 clock=clock)
        # closed -> open: two straight errors hit the 50% threshold.
        for _ in range(2):
            kind = breaker.acquire()
            breaker.record(kind, error=True)
        with pytest.raises(BreakerOpen) as err:
            breaker.acquire()
        assert err.value.retry_after_s <= 5.0
        # open -> half_open after the cooldown; probes are admitted.
        clock.advance(5.1)
        assert breaker.acquire() == "probe"
        breaker.record("probe", error=False)
        assert breaker.acquire() == "probe"
        breaker.record("probe", error=False)
        # half_open -> closed after the configured probe successes.
        assert breaker.acquire() == "closed"
        assert [(t["from"], t["to"]) for t in breaker.transitions] \
            == [("closed", "open"), ("open", "half_open"),
                ("half_open", "closed")]

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("algorithm", self.CONFIG,
                                 clock=clock)
        for _ in range(2):
            breaker.record(breaker.acquire(), error=True)
        clock.advance(5.1)
        kind = breaker.acquire()
        assert kind == "probe"
        breaker.record(kind, error=True)
        with pytest.raises(BreakerOpen):
            breaker.acquire()
        assert breaker.transitions[-1]["reason"] == "probe_failed"

    def test_successes_below_threshold_stay_closed(self):
        breaker = CircuitBreaker("query", self.CONFIG,
                                 clock=FakeClock())
        for error in (False, False, False, True):
            breaker.record(breaker.acquire(), error=error)
        assert breaker.acquire() == "closed"


class TestDegradedModes:
    def _trip(self, service: GraphService, op: str) -> None:
        breaker = service.breakers.for_op(op)
        with breaker._lock:
            breaker._trip("test")

    def test_open_query_breaker_serves_stale(self):
        service = product_service()
        fresh = service.query("g1", PLACED)
        assert fresh.get("stale") is None
        service.mutate("g1", [{"op": "set_property",
                               "vertex": "customer:1",
                               "key": "last_seen", "value": "now"}])
        self._trip(service, "query")
        degraded = service.query("g1", PLACED)
        assert degraded["stale"] is True
        assert degraded["cache"] == "stale"
        assert degraded["stale_age_s"] >= 0.0
        assert degraded["rows"] == fresh["rows"]

    def test_open_query_breaker_sheds_without_stale(self):
        service = product_service()
        self._trip(service, "query")
        with pytest.raises(BreakerOpen) as err:
            service.query("g1", PLACED)
        assert err.value.retry_after_s > 0
        assert error_status(err.value) == 503

    def test_degraded_board_prefers_stale_over_recompute(self):
        service = product_service()
        service.query("g1", PLACED)  # warm the cache
        service.mutate("g1", [{"op": "set_property",
                               "vertex": "customer:1",
                               "key": "last_seen", "value": "now"}])
        # A *different* op's breaker is open; the query breaker is
        # closed but the board is degraded, so a cache miss serves
        # the superseded entry instead of recomputing.
        self._trip(service, "algorithm")
        degraded = service.query("g1", PLACED)
        assert degraded["stale"] is True

    def test_half_open_probe_runs_the_real_query_despite_stale(self):
        clock = FakeClock()
        board = BreakerBoard(BreakerConfig(
            window=4, threshold=0.5, min_requests=2, probes=1,
            cooldown_s=5.0), clock=clock)
        service = product_service(breaker=board)
        service.query("g1", PLACED)  # a superseded entry to fall back on
        service.mutate("g1", [{"op": "set_property",
                               "vertex": "customer:1",
                               "key": "last_seen", "value": "now"}])
        self._trip(service, "query")
        clock.advance(5.1)
        obs.enable()
        with obs.capture() as trace:
            probed = service.query("g1", PLACED)
        assert probed["cache"] == "miss"
        assert "stale" not in probed
        [root] = trace.roots
        assert root.attributes["breaker"] == "probe"
        assert root.attributes["cache"] == "miss"
        # The one successful probe closed the breaker.
        assert service.breakers.for_op("query").state == "closed"

    def test_only_server_faults_count_in_the_query_window(self):
        service = product_service()
        breaker = service.breakers.for_op("query")
        with pytest.raises(Exception) as bad_query:
            service.query("g1", "MATCH (c:Customer RETURN c")
        assert error_status(bad_query.value) == 400
        assert breaker.stats()["window_size"] == 1
        assert breaker.stats()["error_rate"] == 0.0
        service.chaos = ChaosInjector()
        with chaos_scope(ChaosDirective(error=True)):
            with pytest.raises(InjectedServeFault):
                service.query("g1", PLACED)
        assert breaker.stats()["window_size"] == 2
        assert breaker.stats()["error_rate"] == 0.5

    def test_failing_query_leaves_an_error_slowlog_row(self):
        service = product_service()
        text = "MATCH (c:Customer RETURN c"
        with pytest.raises(Exception):
            service.query("g1", text)
        [row] = service.debug_slowlog()["slowlog"]
        assert row["count"] == 1
        assert row["errors"] == 1
        assert row["last_error"] == "QueryError"

    def test_breaker_debug_endpoint_reports_transitions(self):
        service = product_service(breaker="window=4,threshold=0.5,"
                                          "min_requests=2,probes=1,"
                                          "cooldown_s=0.05")
        for _ in range(2):
            with pytest.raises(InjectedServeFault):
                with chaos_scope(ChaosDirective(error=True)):
                    # Arm a throwaway injector just for this call.
                    service.chaos = ChaosInjector()
                    service.algorithm("g1", "bfs", seed=0)
        debug = service.debug_breakers()
        assert debug["breakers"]["algorithm"]["state"] == "open"
        assert [t["to"] for t in debug["transitions"]] == ["open"]
        time.sleep(0.06)
        service.chaos = None
        service.algorithm("g1", "bfs", seed=0)
        mttr = service.debug_breakers()["recovery_ms"]
        assert len(mttr) == 1 and mttr[0] > 0


class TestGracefulDrain:
    def test_draining_sheds_new_requests(self):
        service = product_service()
        service.begin_drain(retry_after_s=2.0)
        assert service.draining
        with pytest.raises(ServiceDraining) as err:
            service.query("g1", PLACED)
        assert err.value.retry_after_s == 2.0
        assert error_status(err.value) == 503
        assert service.drained()
        assert service.health()["status"] == "draining"

    def test_http_shutdown_drains_and_sheds(self):
        handle = start_server(product_service())
        client = ServeClient(handle.base_url)
        status, _ = client.request("POST", "/graphs/g1/query",
                                   {"query": PLACED})
        assert status == 200
        handle.service.begin_drain(retry_after_s=1.5)
        conn = HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request("POST", "/graphs/g1/query",
                     body=b'{"query": "MATCH (p:Product) RETURN p"}',
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 503
        assert response.getheader("Retry-After") == "1.500"
        conn.close()
        client.close()
        handle.shutdown(drain_s=1.0)


class TestDeadlineOverHTTP:
    def test_header_maps_to_504(self):
        handle = start_server(product_service())
        client = ServeClient(handle.base_url)
        try:
            status, body = client.request(
                "POST", "/graphs/g1/algorithms/pagerank",
                {"seed": 0, "distributed": True, "shards": 2},
                headers={DEADLINE_HEADER: "25"})
            assert status == 504
            assert body["error"] == "DeadlineExceeded"
            assert body["status"] == 504
            status, health = client.request("GET", "/healthz")
            assert health["in_flight"] == 0
        finally:
            client.close()
            handle.shutdown()

    def test_malformed_header_is_400(self):
        handle = start_server(product_service())
        client = ServeClient(handle.base_url)
        try:
            status, body = client.request(
                "POST", "/graphs/g1/query", {"query": PLACED},
                headers={DEADLINE_HEADER: "soon"})
            assert status == 400
            assert body["error"] == "BadRequest"
        finally:
            client.close()
            handle.shutdown()


class TestClientRetryPolicy:
    def test_jitter_validation_and_range(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.2)
        assert policy.backoff_ms(1) == 100.0  # no rng: exact
        import random as _random

        draws = {policy.backoff_ms(1, _random.Random(s))
                 for s in range(20)}
        assert len(draws) > 1
        assert all(80.0 <= d <= 120.0 for d in draws)
        # Seeded rng: byte-for-byte reproducible.
        assert policy.schedule(_random.Random(7)) \
            == policy.schedule(_random.Random(7))

    def test_client_sleeps_the_policy_schedule(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.serve.traffic.time.sleep",
                            sleeps.append)
        client = ServeClient(
            "http://127.0.0.1:9",  # nothing listens on discard
            retry_policy=RetryPolicy(max_attempts=3,
                                     backoff_base_ms=10.0,
                                     backoff_factor=2.0,
                                     backoff_cap_ms=100.0))
        with pytest.raises(OSError):
            client.request("GET", "/healthz")
        assert sleeps == [0.01, 0.02]


class TestChaosDirective:
    def test_parse_render_roundtrip(self):
        directive = ChaosDirective.parse(
            "error;delay=25;drip=4x10;kill=w0@1")
        assert directive == ChaosDirective(error=True, delay_ms=25.0,
                                           drip=(4, 10.0), kill="w0@1")
        assert ChaosDirective.parse(directive.render()) == directive

    @pytest.mark.parametrize("bad", [
        "explode", "drip=4", "error;error", "delay=-1;error"])
    def test_malformed_directives_rejected(self, bad):
        with pytest.raises(ValueError):
            ChaosDirective.parse(bad)

    def test_injector_honors_ambient_directive(self):
        sleeps = []
        injector = ChaosInjector(sleeper=sleeps.append)
        injector.apply("query")  # no directive: no-op
        with chaos_scope(ChaosDirective(delay_ms=30.0)):
            injector.apply("query")
        assert sleeps == [0.03]
        with chaos_scope(ChaosDirective(error=True)):
            with pytest.raises(InjectedServeFault) as err:
                injector.apply("algorithm")
        assert error_status(err.value) == 500
        assert injector.stats() == {"injected_errors": 1,
                                    "injected_delays": 1,
                                    "injected_kills": 0}

    def test_unarmed_server_ignores_the_header(self):
        handle = start_server(product_service())  # no chaos=
        client = ServeClient(handle.base_url)
        try:
            status, body = client.request(
                "POST", "/graphs/g1/query", {"query": PLACED},
                headers={CHAOS_HEADER: "error"})
            assert status == 200
            assert "rows" in body
        finally:
            client.close()
            handle.shutdown()


class TestChaosPlanning:
    def test_decoration_is_deterministic_and_run_salted(self):
        mix = TrafficMix(read=0.5, write=0.2, algo=0.3)
        base = build_schedule(7, 4, 10, mix)
        once = plan_chaos(base, seed=7, run=0)
        again = plan_chaos(base, seed=7, run=0)
        assert once == again
        other_run = plan_chaos(base, seed=7, run=1)
        assert schedule_digest([once]) != schedule_digest([other_run])

    def test_kills_only_target_distributed_algos(self):
        mix = TrafficMix(read=0.0, write=0.0, algo=1.0)
        base = build_schedule(3, 4, 12, mix)
        decorated = plan_chaos(base, seed=3, run=0, error_rate=0.0,
                               delay_rate=0.0, drip_rate=0.0,
                               kill_rate=1.0)
        killed = [e for plan in decorated for e in plan
                  if "chaos" in e
                  and ChaosDirective.parse(e["chaos"]).kill]
        assert killed
        assert all(e["name"] == "pagerank" for e in killed)


class TestServeChaosSmoke:
    @pytest.mark.serve_chaos_smoke
    def test_seeded_sweep(self):
        report = run_serve_chaos(
            seed=3, runs=2, clients=3, requests=6,
            mix=TrafficMix(read=0.4, write=0.2, algo=0.4),
            error_rate=1.0, delay_rate=0.0, drip_rate=0.0,
            kill_rate=0.0, deadline_ms=5000.0)
        assert report["schema"] == "repro.serve.chaos/v1"
        assert report["total_requests"] == 2 * 3 * 6
        assert report["planned_faults"]["error"] > 0
        # Every injected algorithm call failed, so the breaker MUST
        # have opened, and queries must have kept answering.
        failed = {name: passed
                  for name, passed in report["checks"].items()
                  if not passed}
        assert not failed
        assert report["breaker_transitions"] > 0
        assert report["shed"] + report["stale_serves"] > 0


class TestBreakerAnalysisRule:
    def test_cfg007_registered(self):
        from repro.analysis import all_rules

        assert "CFG007" in {rule.rule_id for rule in all_rules()}

    def test_check_breaker_config_findings(self):
        from repro.analysis import check_breaker_config

        assert check_breaker_config(
            "window=20,threshold=0.5,min_requests=5,probes=2,"
            "cooldown_s=5").findings == []
        bad = check_breaker_config("window=0")
        assert [f.rule for f in bad.findings] == ["CFG007"]
        unknown = check_breaker_config("frobnicate=1")
        assert [f.rule for f in unknown.findings] == ["CFG007"]

    def test_scanner_lints_breaker_parse_literals(self):
        from repro.analysis.scanner import scan_source

        source = (
            "from repro.serve.resilience import BreakerConfig\n"
            'good = BreakerConfig.parse("window=10,threshold=0.3")\n'
            'bad = BreakerConfig.parse("threshold=2.0")\n')
        report = scan_source(source, "demo.py")
        assert [(f.rule, f.line) for f in report.findings] == \
            [("CFG007", 3)]
