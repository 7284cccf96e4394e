"""The serve workloads: the shipped HTTP server under two closed-loop
clients, product-graph point reads and optional property writes.

The server runs exactly as it ships, ``python -m repro.serve --port 0``
(observability on), as a child process; traced runs start it through
:mod:`bench.traced_server` instead. The graph arrives as a ``POST
/graphs`` vertex/edge payload. Load comes from this process: two
threads, each with one keep-alive ``http.client`` connection, each
sending its next request only after the reply. Warm-up is a fixed 100
requests per client, so cache state before timing does not depend on
the commit's speed.
"""

from __future__ import annotations

import bisect
import datetime as dt
import http.client
import json
import random
import signal
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterator

from bench import procs, trace
from bench.spec import ROOT, SETUP_LAUNCHES, Workload
from bench.stats import percentile
from bench.traced_server import SNAPSHOT_MARK

GRAPH_ID = "g1"
WARMUP = 100
ZIPF_S = 1.1
#: The product catalog and the popularity order of its keys are the
#: same in every run; the run's seed draws the clients' request
#: sequences. Which keys are hot changes what a miss costs, and fixing
#: it keeps that out of the spread across seeds.
CATALOG_SEED = 1
#: Template mix of the reads: (template, share).
READ_MIX = (("orders_of_customer", 0.5), ("orders_with_sku", 0.3),
            ("products_of_customer", 0.2))
TEMPLATES = {
    "orders_of_customer": ("MATCH (c:Customer)-[:PLACED]->(o:Order) "
                           "WHERE c.name = '{}' RETURN o"),
    "orders_with_sku": ("MATCH (o:Order)-[:CONTAINS]->(p:Product) "
                        "WHERE p.sku = '{}' RETURN o"),
    "products_of_customer": ("MATCH (c:Customer)-[:PLACED]->(o:Order)"
                             "-[:CONTAINS]->(p:Product) "
                             "WHERE c.name = '{}' RETURN DISTINCT p"),
}
#: Writes set this property; no read returns it, so the read oracle
#: stays static while the data version moves.
WRITE_KEY = "last_seen"
WRITTEN_QUERY = (f"MATCH (c:Customer) WHERE c.{WRITE_KEY} >= 0 "
                 f"RETURN c")


# -- input -----------------------------------------------------------------

def product_payload(smoke: bool) -> dict[str, Any]:
    """The product graph as a ``POST /graphs`` body."""
    from repro.workloads import generate_product_graph
    from repro.workloads.product_graph import ProductGraphSpec

    spec = (ProductGraphSpec(customers=40, products=12) if smoke
            else ProductGraphSpec(customers=300, products=60))
    graph = generate_product_graph(spec, seed=CATALOG_SEED)

    def plain(properties: dict[str, Any]) -> dict[str, Any]:
        return {k: v.isoformat() if isinstance(v, dt.date) else v
                for k, v in properties.items()}

    vertices = [{"id": v, "label": graph.vertex_label(v),
                 "properties": plain(graph.vertex_properties(v))}
                for v in graph.vertices()]
    edges = [{"u": e.u, "v": e.v, "weight": e.weight,
              "label": graph.edge_label(e.edge_id),
              "properties": plain(graph.edge_properties(e.edge_id))}
             for e in graph.edges()]
    return {"graph_id": GRAPH_ID, "directed": True,
            "vertices": vertices, "edges": edges}


class ProductOracle:
    """Evaluates the three read templates by plain dict traversal over
    the payload, independently of ``repro.query``."""

    def __init__(self, payload: dict[str, Any]):
        self.label = {v["id"]: v["label"] for v in payload["vertices"]}
        self.props = {v["id"]: v["properties"] for v in payload["vertices"]}
        self.out: dict[Any, list[tuple[str, Any]]] = defaultdict(list)
        self.into: dict[Any, list[tuple[str, Any]]] = defaultdict(list)
        for e in payload["edges"]:
            self.out[e["u"]].append((e["label"], e["v"]))
            self.into[e["v"]].append((e["label"], e["u"]))
        self.customers = sorted(
            (v for v, lab in self.label.items() if lab == "Customer"),
            key=lambda v: int(v.split(":")[1]))
        self.products = sorted(
            (v for v, lab in self.label.items() if lab == "Product"),
            key=lambda v: int(v.split(":")[1]))

    def _with(self, label: str, key: str, value: Any) -> list[Any]:
        return [v for v, lab in self.label.items()
                if lab == label and self.props[v].get(key) == value]

    def _step(self, adjacency, vertex, edge_label, target_label):
        return [w for lab, w in adjacency[vertex]
                if lab == edge_label and self.label[w] == target_label]

    def rows(self, template: str, argument: str) -> list[list[Any]]:
        """Expected rows, sorted, for one instantiated template."""
        if template == "orders_of_customer":
            found = [[o] for c in self._with("Customer", "name", argument)
                     for o in self._step(self.out, c, "PLACED", "Order")]
        elif template == "orders_with_sku":
            found = [[o] for p in self._with("Product", "sku", argument)
                     for o in self._step(self.into, p, "CONTAINS",
                                         "Order")]
        elif template == "products_of_customer":  # RETURN DISTINCT p
            found = [[p] for p in {
                p for c in self._with("Customer", "name", argument)
                for o in self._step(self.out, c, "PLACED", "Order")
                for p in self._step(self.out, o, "CONTAINS", "Product")}]
        else:
            raise KeyError(template)
        return sorted(found)


# -- request streams ---------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str  # "read" or "write"
    path: str
    body: bytes
    #: (template, argument) for reads, the vertex id for writes.
    key: Any


class Zipf:
    """Rank-frequency Zipf(s) over a fixed, seeded order of items."""

    def __init__(self, items: list[Any], s: float, rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        total, self.cumulative = 0.0, []
        for rank in range(1, len(self.items) + 1):
            total += rank ** -s
            self.cumulative.append(total)

    def pick(self, rng: random.Random) -> Any:
        index = bisect.bisect(self.cumulative,
                              rng.random() * self.cumulative[-1])
        return self.items[min(index, len(self.items) - 1)]


def request_stream(oracle: ProductOracle, seed: int, client: int,
                   write_share: float) -> Iterator[Op]:
    """The endless, seeded request sequence of one client."""
    keys = random.Random(f"keys/{CATALOG_SEED}")
    customers = Zipf(oracle.customers, ZIPF_S, keys)
    products = Zipf(oracle.products, ZIPF_S, keys)
    rng = random.Random(f"client/{seed}/{client}")
    sequence = 0
    while True:
        if write_share and rng.random() < write_share:
            vertex = customers.pick(rng)
            sequence += 1
            body = {"operations": [{"op": "set_property", "vertex": vertex,
                                    "key": WRITE_KEY, "value": sequence}]}
            yield Op("write", f"/graphs/{GRAPH_ID}/mutate",
                     json.dumps(body).encode(), vertex)
            continue
        draw, template = rng.random(), READ_MIX[-1][0]
        for name, share in READ_MIX:
            if draw < share:
                template = name
                break
            draw -= share
        if template == "orders_with_sku":
            argument = oracle.props[products.pick(rng)]["sku"]
        else:
            argument = oracle.props[customers.pick(rng)]["name"]
        text = TEMPLATES[template].format(argument)
        yield Op("read", f"/graphs/{GRAPH_ID}/query",
                 json.dumps({"query": text}).encode(), (template, argument))


# -- the server --------------------------------------------------------------

class Server:
    """One server child process: launch, load, inspect, stop."""

    def __init__(self, traced: bool, cpu: int | None):
        module = "bench.traced_server" if traced else "repro.serve"
        cmd = procs.python("-m", module, "--port", "0")
        options = dict(cwd=ROOT, env=procs.child_env(),
                       stdout=subprocess.PIPE, text=True)
        self.launched = time.perf_counter()
        self.proc = (subprocess.Popen(cmd, **options) if cpu is None
                     else procs.popen_on(cpu, cmd, **options))
        self.lines = procs.LineReader(self.proc.stdout)
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            line = self.lines.next_line(max(0.1, deadline - time.monotonic()))
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                return

    def post(self, path: str, body: bytes, expect: int) -> dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != expect:
            raise RuntimeError(f"POST {path}: HTTP {response.status}: "
                               f"{data[:200]!r}")
        return json.loads(data)

    def snapshot(self) -> dict[str, list[float]]:
        """The traced server's cumulative per-target counters."""
        self.proc.send_signal(signal.SIGUSR1)
        while True:
            line = self.lines.next_line(30.0)
            if line.startswith(SNAPSHOT_MARK):
                return json.loads(line[len(SNAPSHOT_MARK):])

    def stop(self) -> None:
        procs.stop(self.proc)
        self.lines.join()


def start_loaded(traced: bool, body: bytes,
                 cpu: int | None) -> tuple[Server, float]:
    """Launch a server and host the graph; returns it with the seconds
    from launch to the graph being hosted."""
    server = Server(traced, cpu)
    try:
        server.wait_listening()
        server.post("/graphs", body, expect=201)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.launched


# -- load --------------------------------------------------------------------

@dataclass
class Record:
    op: Op
    start: float
    end: float
    status: int | None  # None: transport error
    data: bytes
    measured: bool


@dataclass
class Phase:
    """Shared by the clients: the barrier between warm-up and timing."""

    seconds: float
    barrier: threading.Barrier
    t0: float = 0.0
    before: dict = field(default_factory=dict)


class Client(threading.Thread):
    def __init__(self, port: int, stream: Iterator[Op], warmup: int,
                 phase: Phase):
        super().__init__(daemon=True)
        self.port, self.stream, self.warmup, self.phase = (
            port, stream, warmup, phase)
        self.records: list[Record] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            for _ in range(self.warmup):
                self._issue(conn, measured=False)
            self.phase.barrier.wait(timeout=120)
            deadline = self.phase.t0 + self.phase.seconds
            while time.perf_counter() < deadline:
                self._issue(conn, measured=True)
        except BaseException as exc:  # reported by the main thread
            self.error = exc
            self.phase.barrier.abort()
        finally:
            conn.close()

    def _issue(self, conn: http.client.HTTPConnection,
               measured: bool) -> None:
        op = next(self.stream)
        start = time.perf_counter()
        try:
            conn.request("POST", op.path, body=op.body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            status: int | None = response.status
        except (OSError, http.client.HTTPException):
            conn.close()  # the next request reconnects
            status, data = None, b""
        self.records.append(Record(op, start, time.perf_counter(), status,
                                   data, measured))


# -- the workload ----------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, traced: bool,
        smoke: bool, server_cpu: int | None = None) -> dict[str, Any]:
    payload = product_payload(smoke)
    oracle = ProductOracle(payload)
    body = json.dumps(payload).encode()
    launches = 1 if traced or smoke else SETUP_LAUNCHES
    warmup = 5 if smoke else WARMUP

    setup: list[float] = []
    server: Server | None = None
    try:
        for _ in range(launches):
            if server is not None:
                server.stop()
            server, seconds_to_ready = start_loaded(traced, body,
                                                    server_cpu)
            setup.append(seconds_to_ready)

        def begin_timing() -> None:
            if traced:
                phase.before = server.snapshot()
            phase.t0 = time.perf_counter()

        phase = Phase(seconds, threading.Barrier(2, action=begin_timing))
        clients = [Client(server.port,
                          request_stream(oracle, seed, c,
                                         workload.write_share),
                          warmup, phase)
                   for c in range(2)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=seconds + 120)
            if client.is_alive():
                raise TimeoutError("a load client did not finish")
            if client.error is not None:
                raise client.error
        elapsed = max(r.end for c in clients for r in c.records) - phase.t0
        calls: dict[str, list[float]] = {}
        if traced:
            time.sleep(0.1)  # let the last handlers finish their tails
            calls = trace.delta(server.snapshot(), phase.before)
        rss = procs.peak_rss_mb(server.proc.pid)
        written = (server.post(f"/graphs/{GRAPH_ID}/query",
                               json.dumps({"query": WRITTEN_QUERY}).encode(),
                               expect=200)
                   if workload.write_share else None)
    finally:
        if server is not None:
            server.stop()

    records = [r for c in clients for r in c.records]
    errors = check(oracle, records, written)
    return summarize(workload, records, elapsed, setup, rss, calls,
                     traced, errors)


def check(oracle: ProductOracle, records: list[Record],
          written: dict[str, Any] | None) -> list[str]:
    """Oracle errors over every response, warm-up included."""
    errors: list[str] = []
    seen: dict[Any, str] = {}
    expected: dict[Any, list] = {}
    writes: set[Any] = set()
    for r in records:
        if r.status != 200:
            continue
        reply = json.loads(r.data)
        if r.op.kind == "write":
            if reply.get("applied") != 1:
                errors.append(f"write to {r.op.key}: {reply}")
            writes.add(r.op.key)
            continue
        answer = json.dumps([reply["columns"], reply["rows"]])
        if seen.setdefault(r.op.key, answer) != answer:
            errors.append(f"{r.op.key}: answers differ between responses "
                          f"({reply.get('cache')} vs an earlier one)")
            continue
        if r.op.key not in expected:
            expected[r.op.key] = oracle.rows(*r.op.key)
        if sorted(reply["rows"]) != expected[r.op.key]:
            errors.append(f"{r.op.key}: rows differ from the evaluator "
                          f"({len(reply['rows'])} vs "
                          f"{len(expected[r.op.key])})")
    if written is not None:
        found = {row[0] for row in written["rows"]}
        if found != writes:
            errors.append(f"{len(found)} customers carry {WRITE_KEY}, "
                          f"{len(writes)} were written")
    return errors[:20]


def summarize(workload: Workload, records: list[Record], elapsed: float,
              setup: list[float], rss: float,
              calls: dict[str, list[float]], traced: bool,
              errors: list[str]) -> dict[str, Any]:
    measured = [r for r in records if r.measured]
    ok = [r for r in measured if r.status == 200]
    latency_ms = [(r.end - r.start) * 1000.0 for r in ok]
    by_kind = {kind: [(r.end - r.start) * 1000.0 for r in ok
                      if r.op.kind == kind] for kind in ("read", "write")}
    failed = sum(1 for r in records if r.status != 200)
    result: dict[str, Any] = {
        "workload": workload.name,
        "traced": traced,
        "correct": not errors and bool(ok),
        "attempted": len(records),
        "failed": failed,
        "errors": errors,
        "samples": len(latency_ms),
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ok) / elapsed,
            "op_p50_ms": percentile(latency_ms, 50) if ok else 0.0,
            "peak_rss_mb": rss,
        },
        "tail_ms": percentile(latency_ms, workload.tail) if ok else 0.0,
        "detail": {
            f"{kind}_p{q}_ms": [round(percentile(values, q), 3),
                                len(values)]
            for kind, values in by_kind.items() if values
            for q in (50, workload.tail)},
    }
    hit_ratio, reused = cache_ratios(records)
    result["detail"]["cache_hit_ratio"] = round(hit_ratio, 4)
    if traced and ok:
        layer = trace.timed_metrics(calls, len(ok))
        handler_ms = trace.total_ms(calls, "serve.ServeHandler.do_POST")
        layer["serve.wire.ms_per_call"] = (
            (sum(latency_ms) - handler_ms) / len(ok))
        layer["serve.cache.hit_ratio"] = hit_ratio
        layer["serve.cache.reused_put_ratio"] = reused
        result["per_layer"] = trace.complete(layer)
        result["attribution"] = {
            "measured_ms_per_op": statistics.fmean(latency_ms),
            "layers_ms_per_op": (trace.self_ms_total(calls) / len(ok)
                                 + layer["serve.wire.ms_per_call"]),
        }
    return result


def cache_ratios(records: list[Record]) -> tuple[float, float]:
    """(hit ratio of measured reads, share of measured-phase cache puts
    that a later read hit), from the responses' ``cache`` and
    ``version`` fields. A miss answered from a cache-enabled query is
    one put, keyed by (query, data version)."""
    reads = sorted((r for r in records
                    if r.op.kind == "read" and r.status == 200),
                   key=lambda r: r.end)
    hits = measured_reads = puts = reused = 0
    open_puts: dict[tuple, bool] = {}  # key -> put counted and not hit yet
    for r in reads:
        reply = json.loads(r.data)
        key = (r.op.key, reply["version"])
        if r.measured:
            measured_reads += 1
        if reply["cache"] == "hit":
            hits += r.measured
            if open_puts.pop(key, False):
                reused += 1
        else:
            if r.measured:
                puts += 1
                open_puts[key] = True
    return (hits / measured_reads if measured_reads else 0.0,
            reused / puts if puts else 0.0)
