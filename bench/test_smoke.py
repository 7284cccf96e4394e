"""End-to-end smoke of ``python -m bench run``, and the agreement of
``BENCHMARK.json`` with the code."""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import spec, trace


def test_benchmark_json_matches_the_code():
    doc = spec.load_benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [(m.name, m.unit, m.better) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in trace.per_layer_metrics()]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def runner_command(workload, trace_flag, *extra):
    """BENCHMARK.json's command with the flags a runner appends."""
    doc = spec.load_benchmark_json()
    return [sys.executable, *doc["command"][1:], "--workload", workload,
            "--seed", "3", "--seconds", "0.3", "--trace", trace_flag,
            *extra]


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_runner_flags_give_one_result_line(trace_flag):
    proc = subprocess.run(
        runner_command("analytics-components", trace_flag, "--smoke"),
        cwd=spec.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    metrics = (trace.per_layer_metrics() if trace_flag == "1"
               else spec.END_TO_END)
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == {m.name: m.unit for m in metrics}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(spec.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(runner_command("serve-read", "0"), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_run_prints_every_metric_with_its_unit():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--trace"],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"

    blocks = re.split(r"^(?=\S+  seed )", proc.stdout, flags=re.M)[1:]
    assert [b.split()[0] for b in blocks] == list(spec.WORKLOAD_NAMES)
    layer_units = {m.name: m.unit for m in trace.per_layer_metrics()}
    for block in blocks:
        for metric in spec.END_TO_END:
            assert re.search(rf"^  {re.escape(metric.name)} +\S+ +"
                             rf"{re.escape(metric.unit)}( |$)", block,
                             flags=re.M), (metric.name, block)
        assert "oracle: pass" in block
        assert "traced/untraced: ops_per_s" in block
        line = json.loads(block.strip().splitlines()[-1])
        assert line["correct"] is True and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} \
            == layer_units
