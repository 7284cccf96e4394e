"""Self-time arithmetic of the per-layer wrappers, and how they are
installed and removed."""

import contextlib

import pytest

from bench import trace


class Clock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def traced(fn, name, recorder, **options):
    return trace._traced(fn, trace.Target(name, "m", name, **options),
                         recorder)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def recorder(clock):
    return trace.Recorder(clock)


def test_self_time_excludes_nested_wrapped_calls(clock, recorder):
    def inner():
        clock.work(5)

    inner_t = traced(inner, "inner", recorder)

    def outer():
        clock.work(3)
        inner_t()
        inner_t()
        clock.work(2)

    traced(outer, "outer", recorder)()
    calls = recorder.snapshot()
    # [calls, self_ns, total_ns, extra]
    assert calls["outer"] == [1, 5, 15, 0.0]
    assert calls["inner"] == [2, 10, 10, 0.0]
    # Self times add up to the root's total.
    assert trace.self_ms_total(calls) * 1e6 == pytest.approx(15)


def test_unwrapped_work_stays_with_the_wrapped_caller(clock, recorder):
    def helper():  # not wrapped: its time is the caller's own
        clock.work(7)

    def outer():
        helper()
        clock.work(1)

    traced(outer, "outer", recorder)()
    assert recorder.snapshot()["outer"][:3] == [1, 8, 8]


def test_exceptions_are_timed_and_propagate(clock, recorder):
    def boom():
        clock.work(4)
        raise KeyError("x")

    with pytest.raises(KeyError):
        traced(boom, "boom", recorder)()
    assert recorder.snapshot()["boom"][:3] == [1, 4, 4]


def test_generator_time_is_its_resumptions_not_the_consumers(
        clock, recorder):
    def produce():
        for i in range(3):
            clock.work(2)
            yield i
        clock.work(1)

    def consume():
        total = 0
        for value in traced(produce, "produce", recorder)():
            clock.work(10)  # the consumer's own work between resumptions
            total += value
        return total

    assert traced(consume, "consume", recorder)() == 3
    calls = recorder.snapshot()
    assert calls["produce"] == [1, 7, 7, 0.0]
    assert calls["consume"][:3] == [1, 30, 37]


def test_contextmanager_yielded_wait_and_body_attribution(clock, recorder):
    @contextlib.contextmanager
    def admit():
        clock.work(3)
        yield 1.5
        clock.work(1)

    admit_t = traced(admit, "admit", recorder, yielded_wait=True)

    def handle():
        with admit_t() as wait_ms:
            assert wait_ms == 1.5
            clock.work(20)

    traced(handle, "handle", recorder)()
    calls = recorder.snapshot()
    assert calls["admit"] == [1, 4, 4, 1.5]
    assert calls["handle"][:3] == [1, 20, 24]


def test_contextmanager_exceptions_reach_the_generator(clock, recorder):
    seen = []

    @contextlib.contextmanager
    def transaction():
        try:
            yield
        except ValueError:
            seen.append("rolled back")
            raise

    with pytest.raises(ValueError):
        with traced(transaction, "tx", recorder)():
            raise ValueError("abort")
    assert seen == ["rolled back"]
    assert recorder.snapshot()["tx"][0] == 1


def test_static_and_class_methods_keep_their_kind(recorder):
    class C:
        @staticmethod
        def s(x):
            return x + 1

        @classmethod
        def c(cls, x):
            return (cls, x)

    C.s = traced(vars(C)["s"], "s", recorder)
    C.c = traced(vars(C)["c"], "c", recorder)
    assert C.s(1) == 2 and C().s(1) == 2
    assert C.c(5) == (C, 5)
    assert recorder.snapshot()["s"][0] == 2


def test_timed_metrics_are_per_call_and_per_op():
    calls = {"query.run_query": [4, 8e6, 10e6, 20],
             "serve.AdmissionController.admit": [2, 1e6, 1e6, 3.0]}
    metrics = trace.timed_metrics(calls, ops=8)
    assert metrics["query.run_query.ms_per_call"] == 2.0
    assert metrics["query.run_query.calls_per_op"] == 0.5
    assert metrics["query.run_query.rows_per_call"] == 5.0
    assert metrics["serve.AdmissionController.admit.wait_ms_per_call"] == 1.5
    assert metrics["dist.Worker.deliver.ms_per_call"] == 0.0
    full = trace.complete(metrics)
    assert list(full) == [m.name for m in trace.per_layer_metrics()]


def test_install_rebinds_aliases_and_uninstall_restores_them():
    import repro.algorithms
    import repro.dist.partitioned as partitioned
    from repro.algorithms import partitioning
    from repro.dist import Worker

    before = trace.bindings()
    original = partitioning.partition_graph
    uninstall = trace.install(trace.Recorder())
    try:
        for site in (partitioning.partition_graph,
                     repro.algorithms.partition_graph,
                     partitioned.partition_graph,
                     partitioned.PARTITION_STRATEGIES["bfs"]):
            assert site is not original
            assert site.__bench_target__ == "algorithms.partition_graph"
        assert Worker.deliver.__bench_target__ == "dist.Worker.deliver"
        assert "repro.dist.partitioned.PARTITION_STRATEGIES" \
            in trace.installed()
    finally:
        uninstall()
    after = trace.bindings()
    assert all(after[name] is before[name] for name in before)
    assert trace.installed() == []
