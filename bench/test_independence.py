"""The yardstick stays independent of the program it measures."""

import ast
from pathlib import Path

from bench import kernels, spec, trace

BENCH_DIR = Path(__file__).resolve().parent


def assert_as_shipped(before):
    after = trace.bindings()
    assert all(after[name] is before[name] for name in before)
    assert trace.installed() == []


def test_untraced_runs_leave_every_wrapped_callable_as_shipped():
    before = trace.bindings()
    for name in ("analytics-bfs", "dist-pagerank"):
        result = kernels.run(spec.workload(name), seed=1, seconds=0.05,
                             traced=False, smoke=True)
        assert result["correct"], result["errors"]
    assert_as_shipped(before)


def test_traced_runs_restore_the_program_when_done():
    before = trace.bindings()
    result = kernels.run(spec.workload("analytics-partitioning"), seed=1,
                         seconds=0.05, traced=True, smoke=True)
    assert result["per_layer"]["algorithms.partition_graph.calls_per_op"] \
        == 1.0
    assert_as_shipped(before)


def test_bench_imports_nothing_from_repro_obs():
    offenders = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names
                          if n == "repro.obs" or n.startswith("repro.obs.")]
    assert offenders == []
