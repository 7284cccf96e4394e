"""Benchmark-suite runner and regression detector.

The ROADMAP promises a system that runs "as fast as the hardware
allows", but a promise without a trajectory is unfalsifiable: the
scripts under ``benchmarks/`` time kernels ad hoc and nothing records
their results across PRs. This module is the standing harness:

* a :class:`BenchSuite` registry of named, parameterized cases (plain
  zero-argument callables -- the existing bench kernels wrap without
  rewriting via ``benchmarks/suite.py``);
* a runner that executes each case ``warmup + reps`` times under an
  enabled :mod:`repro.obs` registry and records exact wall-time
  percentiles over the repetitions, span statistics, counter deltas,
  and environment capture (python / platform / commit);
* a schema-versioned ``BENCH_<label>.json`` artifact written at the
  repo root, so baselines are diffable and live in version control;
* a :func:`compare` engine producing per-case verdicts -- ``improved``
  / ``unchanged`` / ``regressed`` -- guarded against noise by a
  relative threshold *and* a minimum absolute effect, rendered as a
  text table with a CI-friendly exit code.

CLI::

    python -m repro.obs.bench run --label seed
    python -m repro.obs.bench compare BENCH_seed.json BENCH_pr4.json
    python -m repro.obs.bench report BENCH_seed.json
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.export import OBS_SCHEMA, _jsonable
from repro.obs.metrics import (
    counter_deltas,
    get_registry,
    percentile_exact,
)
from repro.obs.spans import capture

#: Version tag on ``BENCH_*.json`` artifacts; bump on shape changes.
#: v2 adds per-case ``throughput`` (``edges_per_sec`` over a declared
#: work denominator) and ``memory`` (``peak_alloc_kb`` from one extra
#: un-timed repetition, plus process ``peak_rss_kb``) blocks.
BENCH_SCHEMA = "repro.obs.bench/v2"
BENCH_SCHEMA_V1 = "repro.obs.bench/v1"

#: Schemas :func:`load_artifact` accepts; older ones compare with
#: ``not-in-baseline`` column verdicts instead of crashing.
SUPPORTED_SCHEMAS = (BENCH_SCHEMA, BENCH_SCHEMA_V1)

#: Default noise guards for :func:`compare`: a case only changes
#: verdict when the median moved by more than REL_THRESHOLD of the
#: baseline *and* by more than MIN_EFFECT_MS absolute.
REL_THRESHOLD = 0.25
MIN_EFFECT_MS = 0.5

#: Noise guards for the v2 resource columns, mirroring the wall-time
#: pair: ``(rel_threshold, min_effect, direction)`` where direction
#: says which way is *better*. Only a ``peak_alloc_kb`` regression is
#: failing — throughput mirrors wall time (already guarded), so its
#: verdicts are informational.
COLUMN_GUARDS: dict[str, tuple[float, float, str]] = {
    "edges_per_sec": (0.25, 1.0, "higher"),
    "peak_alloc_kb": (0.25, 64.0, "lower"),
}


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchCase:
    """One named, parameterized benchmark kernel.

    ``fn`` takes no arguments (close over inputs; build them outside so
    setup cost stays out of the timing) and returns a small result used
    only for the artifact's sanity digest.

    ``work`` declares the case's throughput denominator — the number
    of edges (or edge-equivalents, e.g. edges × supersteps) one
    repetition processes, as an int or a zero-argument callable
    evaluated lazily at record time. Cases with no meaningful edge
    denominator (query latency, static analysis) leave it None and get
    no ``edges_per_sec`` column.
    """

    name: str
    fn: Callable[[], Any]
    params: dict[str, Any] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    work: Callable[[], int] | int | None = None

    def run(self) -> Any:
        return self.fn()

    def work_units(self) -> int | None:
        """The declared per-repetition work denominator, resolved."""
        if callable(self.work):
            return int(self.work())
        return self.work


class BenchSuite:
    """Ordered registry of :class:`BenchCase` objects."""

    def __init__(self, name: str = "default"):
        self.name = name
        self._cases: dict[str, BenchCase] = {}

    def add(self, name: str, fn: Callable[[], Any], *,
            tags: Iterable[str] = (),
            work: Callable[[], int] | int | None = None,
            **params: Any) -> BenchCase:
        if name in self._cases:
            raise ValueError(f"bench case {name!r} already registered")
        case = BenchCase(name=name, fn=fn, params=dict(params),
                         tags=tuple(tags), work=work)
        self._cases[name] = case
        return case

    def case(self, name: str, *, tags: Iterable[str] = (),
             work: Callable[[], int] | int | None = None,
             **params: Any) -> Callable[[Callable[[], Any]], Callable]:
        """Decorator form of :meth:`add`."""
        def register(fn: Callable[[], Any]) -> Callable[[], Any]:
            self.add(name, fn, tags=tags, work=work, **params)
            return fn
        return register

    def names(self) -> list[str]:
        return list(self._cases)

    def cases(self) -> list[BenchCase]:
        return list(self._cases.values())

    def get(self, name: str) -> BenchCase:
        try:
            return self._cases[name]
        except KeyError:
            raise KeyError(
                f"unknown bench case {name!r}; known: "
                f"{sorted(self._cases)}") from None

    def select(self, patterns: Iterable[str] | None) -> list[BenchCase]:
        """Cases whose name matches any glob pattern (all when None)."""
        if not patterns:
            return self.cases()
        chosen = [case for name, case in self._cases.items()
                  if any(fnmatch(name, p) for p in patterns)]
        if not chosen:
            raise ValueError(
                f"no bench case matches {list(patterns)!r}; known: "
                f"{sorted(self._cases)}")
        return chosen

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, name: str) -> bool:
        return name in self._cases


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def timing_stats(timings_ms: list[float]) -> dict[str, float]:
    return {
        "min": min(timings_ms),
        "max": max(timings_ms),
        "mean": sum(timings_ms) / len(timings_ms),
        "p50": percentile_exact(timings_ms, 50),
        "p95": percentile_exact(timings_ms, 95),
    }


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def capture_environment() -> dict[str, Any]:
    """Where the numbers came from -- without it they are unactionable
    (the SoK graph-benchmark critique in PAPERS.md)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _result_digest(result: Any) -> Any:
    """A small, JSON-safe sanity digest of a case's return value."""
    summary = getattr(result, "summary", None)
    if isinstance(summary, dict):
        return _jsonable(summary)
    if isinstance(result, dict):
        if len(result) > 10:
            return {"type": "dict", "len": len(result)}
        return _jsonable(result)
    if isinstance(result, (list, tuple, set, frozenset)):
        return {"type": type(result).__name__, "len": len(result)}
    if result is None or isinstance(result, (bool, int, float, str)):
        return result
    return repr(result)


def run_case(case: BenchCase, *, reps: int = 5,
             warmup: int = 1) -> dict[str, Any]:
    """Execute one case ``warmup + reps`` times; return its record.

    Timed repetitions run with tracing enabled (span capture is part of
    what the system pays in production, and both sides of a comparison
    pay it identically), so the record carries the span statistics and
    the metric-counter deltas the case produced alongside wall time.

    Schema v2: one *extra, un-timed* repetition then runs under
    :class:`~repro.obs.memory.AllocationTracker` to fill the
    ``memory`` block — tracemalloc slows allocation several-fold, so
    the timed repetitions must never pay for it — and cases with a
    declared ``work`` denominator get a ``throughput`` block
    (``edges_per_sec`` from the median timing).
    """
    from repro.obs.memory import AllocationTracker, peak_rss_kb

    if reps < 1:
        raise ValueError("reps must be >= 1")
    registry = get_registry()
    for _ in range(warmup):
        case.run()
    before = dict(registry.summary()["counters"])
    timings_ms: list[float] = []
    result: Any = None
    with capture() as trace:
        for _ in range(reps):
            start = time.perf_counter_ns()
            result = case.run()
            timings_ms.append((time.perf_counter_ns() - start) / 1e6)
    after = dict(registry.summary()["counters"])
    # Counter deltas are already snapshotted: the probe repetition
    # below never shows up in them, in the span stats, or in timings.
    with AllocationTracker() as alloc:
        case.run()
    deltas = counter_deltas(before, after)
    span_names: dict[str, int] = {}
    total_spans = 0
    for root in trace.roots:
        for sp in root.walk():
            total_spans += 1
            span_names[sp.name] = span_names.get(sp.name, 0) + 1
    stats = {k: round(v, 4) for k, v in
             timing_stats(timings_ms).items()}
    record = {
        "name": case.name,
        "params": _jsonable(case.params),
        "tags": list(case.tags),
        "reps": reps,
        "warmup": warmup,
        "timings_ms": [round(t, 4) for t in timings_ms],
        "stats": stats,
        "counters": _jsonable(deltas),
        "spans": {"roots": len(trace.roots), "total": total_spans,
                  "by_name": dict(sorted(span_names.items()))},
        "memory": {
            "peak_alloc_kb": alloc.peak_alloc_kb,
            "net_alloc_kb": alloc.net_alloc_kb,
            "peak_rss_kb": peak_rss_kb(),
        },
        "result": _result_digest(result),
    }
    work = case.work_units()
    if work and stats["p50"] > 0:
        record["throughput"] = {
            "work_edges": work,
            "edges_per_sec": round(work / (stats["p50"] / 1000.0), 1),
        }
    return record


def run_suite(suite: BenchSuite, label: str, *, reps: int = 5,
              warmup: int = 1, patterns: Iterable[str] | None = None,
              progress: Callable[[str], None] | None = None,
              ) -> dict[str, Any]:
    """Run the (selected) suite; return the ``BENCH_<label>`` artifact."""
    cases = suite.select(patterns)
    records = []
    for case in cases:
        if progress is not None:
            progress(case.name)
        records.append(run_case(case, reps=reps, warmup=warmup))
    return {
        "schema": BENCH_SCHEMA,
        "obs_schema": OBS_SCHEMA,
        "label": label,
        "suite": suite.name,
        "environment": capture_environment(),
        "config": {"reps": reps, "warmup": warmup},
        "cases": records,
    }


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def artifact_path(label: str, root: str | Path = ".") -> Path:
    return Path(root) / f"BENCH_{label}.json"


def write_artifact(artifact: dict[str, Any],
                   path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False)
                    + "\n")
    return path


def load_artifact(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    artifact = json.loads(path.read_text())
    schema = artifact.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected one of {list(SUPPORTED_SCHEMAS)!r})")
    return artifact


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

#: Verdicts that make ``compare`` exit non-zero.
FAILING_VERDICTS = ("regressed", "missing")


@dataclass(frozen=True)
class ColumnVerdict:
    """Outcome of comparing one v2 resource column for one case.

    ``not-in-baseline`` / ``not-in-current`` mark the column absent on
    one side — the v1-compat path (satellite: comparing against an
    old-schema baseline must degrade, never crash or fail the run).
    """

    column: str
    verdict: str  # improved | unchanged | regressed |
    #               not-in-baseline | not-in-current
    baseline: float | None
    current: float | None

    @property
    def delta_pct(self) -> float | None:
        if self.baseline is None or self.current is None or \
                not self.baseline:
            return None
        return 100.0 * (self.current - self.baseline) / self.baseline


@dataclass(frozen=True)
class CaseVerdict:
    """Outcome of comparing one case between two artifacts."""

    name: str
    verdict: str  # improved | unchanged | regressed | missing | added
    baseline_ms: float | None
    current_ms: float | None
    columns: tuple[ColumnVerdict, ...] = ()

    @property
    def delta_ms(self) -> float | None:
        if self.baseline_ms is None or self.current_ms is None:
            return None
        return self.current_ms - self.baseline_ms

    @property
    def delta_pct(self) -> float | None:
        if self.delta_ms is None or not self.baseline_ms:
            return None
        return 100.0 * self.delta_ms / self.baseline_ms

    @property
    def failing_columns(self) -> list[ColumnVerdict]:
        """Resource columns whose regression fails the comparison —
        only ``peak_alloc_kb`` (throughput mirrors wall time, which is
        already guarded; absence on either side never fails)."""
        return [c for c in self.columns
                if c.column == "peak_alloc_kb"
                and c.verdict == "regressed"]


@dataclass
class Comparison:
    """Every per-case verdict plus the roll-up."""

    baseline_label: str
    current_label: str
    rel_threshold: float
    min_effect_ms: float
    verdicts: list[CaseVerdict]

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for v in self.verdicts:
            totals[v.verdict] = totals.get(v.verdict, 0) + 1
        return totals

    @property
    def regressions(self) -> list[CaseVerdict]:
        return [v for v in self.verdicts
                if v.verdict in FAILING_VERDICTS or v.failing_columns]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0


def _column_value(case: dict[str, Any], column: str) -> float | None:
    """Pull a v2 resource column from a case record; None when the
    record predates the column (v1) or the case has no denominator."""
    if column == "edges_per_sec":
        return (case.get("throughput") or {}).get("edges_per_sec")
    if column == "peak_alloc_kb":
        return (case.get("memory") or {}).get("peak_alloc_kb")
    return None


def _compare_columns(base: dict[str, Any],
                     cur: dict[str, Any]) -> tuple[ColumnVerdict, ...]:
    """Per-column verdicts for one case, noise-guarded like wall time.

    A column missing on either side (v1 baseline, case without a work
    denominator) gets ``not-in-baseline`` / ``not-in-current`` — never
    an exception, never a regression. A column absent on *both* sides
    is simply not reported.
    """
    columns: list[ColumnVerdict] = []
    for column, (rel, min_effect, better) in COLUMN_GUARDS.items():
        base_val = _column_value(base, column)
        cur_val = _column_value(cur, column)
        if base_val is None and cur_val is None:
            continue
        if base_val is None:
            columns.append(ColumnVerdict(column, "not-in-baseline",
                                         None, cur_val))
            continue
        if cur_val is None:
            columns.append(ColumnVerdict(column, "not-in-current",
                                         base_val, None))
            continue
        delta = cur_val - base_val
        if better == "higher":
            delta = -delta  # normalize: positive delta = worse
        guard = max(rel * abs(base_val), min_effect)
        if delta > guard:
            verdict = "regressed"
        elif -delta > guard:
            verdict = "improved"
        else:
            verdict = "unchanged"
        columns.append(ColumnVerdict(column, verdict, base_val,
                                     cur_val))
    return tuple(columns)


def compare(baseline: dict[str, Any], current: dict[str, Any], *,
            rel_threshold: float = REL_THRESHOLD,
            min_effect_ms: float = MIN_EFFECT_MS) -> Comparison:
    """Per-case verdicts between two artifacts, noise-guarded.

    A case regresses (or improves) only when its median moved by more
    than ``rel_threshold`` of the baseline median **and** by more than
    ``min_effect_ms`` absolute -- both guards must trip, so microsecond
    kernels cannot flap on scheduler noise and slow kernels cannot hide
    a real regression behind a small percentage. Cases present in the
    baseline but absent now are ``missing`` (a failure: a silently
    dropped case is an untracked regression); new cases are ``added``.

    The v2 resource columns (``edges_per_sec``, ``peak_alloc_kb``)
    carry their own guards from :data:`COLUMN_GUARDS`; a memory
    regression fails the comparison, a column absent on either side
    (e.g. a v1 baseline) reports as ``not-in-baseline`` /
    ``not-in-current`` and never fails.
    """
    base_cases = {c["name"]: c for c in baseline["cases"]}
    cur_cases = {c["name"]: c for c in current["cases"]}
    verdicts: list[CaseVerdict] = []
    for name, base in base_cases.items():
        base_ms = base["stats"]["p50"]
        cur = cur_cases.get(name)
        if cur is None:
            verdicts.append(CaseVerdict(name, "missing", base_ms, None))
            continue
        cur_ms = cur["stats"]["p50"]
        delta = cur_ms - base_ms
        guard = max(rel_threshold * base_ms, min_effect_ms)
        if delta > guard:
            verdict = "regressed"
        elif -delta > guard:
            verdict = "improved"
        else:
            verdict = "unchanged"
        verdicts.append(CaseVerdict(name, verdict, base_ms, cur_ms,
                                    _compare_columns(base, cur)))
    for name, cur in cur_cases.items():
        if name not in base_cases:
            verdicts.append(
                CaseVerdict(name, "added", None, cur["stats"]["p50"]))
    return Comparison(
        baseline_label=baseline.get("label", "?"),
        current_label=current.get("label", "?"),
        rel_threshold=rel_threshold,
        min_effect_ms=min_effect_ms,
        verdicts=verdicts)


def render_comparison(comparison: Comparison) -> str:
    lines = [
        f"BENCH compare — baseline={comparison.baseline_label} "
        f"current={comparison.current_label} "
        f"(guards: >{comparison.rel_threshold * 100:.0f}% and "
        f">{comparison.min_effect_ms}ms)",
        "",
        f"{'case':<38} {'base p50':>10} {'cur p50':>10} {'delta':>8}  "
        f"verdict",
    ]
    column_notes = 0
    for v in comparison.verdicts:
        base = f"{v.baseline_ms:.3f}" if v.baseline_ms is not None else "—"
        cur = f"{v.current_ms:.3f}" if v.current_ms is not None else "—"
        delta = (f"{v.delta_pct:+.1f}%" if v.delta_pct is not None
                 else "—")
        marker = (" <<<" if v.verdict in FAILING_VERDICTS
                  or v.failing_columns else "")
        lines.append(f"{v.name:<38} {base:>10} {cur:>10} {delta:>8}  "
                     f"{v.verdict}{marker}")
        # Resource columns print only when they have something to say
        # — a change past the guards, or one side missing the column.
        for col in v.columns:
            if col.verdict == "unchanged":
                continue
            column_notes += 1
            pct = (f" ({col.delta_pct:+.1f}%)"
                   if col.delta_pct is not None else "")
            col_marker = (" <<<" if col.column == "peak_alloc_kb"
                          and col.verdict == "regressed" else "")
            base_val = (col.baseline if col.baseline is not None
                        else "—")
            cur_val = col.current if col.current is not None else "—"
            lines.append(f"{'':<38}   {col.column}: "
                         f"{base_val} -> {cur_val}"
                         f"{pct}  {col.verdict}{col_marker}")
    counts = comparison.counts()
    summary = ", ".join(f"{count} {verdict}" for verdict, count
                        in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(comparison.verdicts)} cases: {summary}"
                 + (f"; {column_notes} resource-column notes"
                    if column_notes else ""))
    return "\n".join(lines)


def render_artifact(artifact: dict[str, Any]) -> str:
    """One artifact as a human-readable table."""
    env = artifact["environment"]
    config = artifact["config"]
    lines = [
        f"BENCH {artifact['label']} — suite={artifact['suite']}, "
        f"{len(artifact['cases'])} cases, reps={config['reps']} "
        f"(+{config['warmup']} warmup)",
        f"  python {env['python']} ({env['implementation']}) on "
        f"{env['platform']}; commit={env['commit']} "
        f"at {env['timestamp']}",
        "",
        f"{'case':<38} {'p50 ms':>9} {'p95 ms':>9} {'min ms':>9} "
        f"{'max ms':>9} {'spans':>6} {'edges/s':>10} {'peakKB':>8}",
    ]
    for case in artifact["cases"]:
        stats = case["stats"]
        eps = _column_value(case, "edges_per_sec")
        peak = _column_value(case, "peak_alloc_kb")
        eps_text = f"{eps:>10.0f}" if eps is not None else f"{'—':>10}"
        peak_text = (f"{peak:>8.1f}" if peak is not None
                     else f"{'—':>8}")
        lines.append(
            f"{case['name']:<38} {stats['p50']:>9.3f} "
            f"{stats['p95']:>9.3f} {stats['min']:>9.3f} "
            f"{stats['max']:>9.3f} {case['spans']['total']:>6} "
            f"{eps_text} {peak_text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_extra(suite: BenchSuite, path: str) -> None:
    """Load a python file exposing ``register(suite)`` -- the hook the
    ``benchmarks/suite.py`` adapter plugs in through."""
    import importlib.util

    file = Path(path)
    spec = importlib.util.spec_from_file_location(
        f"_bench_extra_{file.stem}", file)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load bench module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    register = getattr(module, "register", None)
    if not callable(register):
        raise ValueError(
            f"{path!r} does not expose a register(suite) function")
    register(suite)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.bench_cases import default_suite

    suite = default_suite()
    for extra in args.extra or ():
        _load_extra(suite, extra)
    if args.list:
        for case in suite.cases():
            tags = f"  [{', '.join(case.tags)}]" if case.tags else ""
            print(f"{case.name}{tags}  {case.params}")
        return 0
    artifact = run_suite(
        suite, args.label, reps=args.reps, warmup=args.warmup,
        patterns=args.cases,
        progress=(None if args.quiet
                  else lambda name: print(f"  running {name} ...",
                                          file=sys.stderr)))
    path = write_artifact(artifact,
                          artifact_path(args.label, args.out_dir))
    print(render_artifact(artifact))
    print(f"\nwrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare(
        load_artifact(args.baseline), load_artifact(args.current),
        rel_threshold=args.threshold, min_effect_ms=args.min_effect_ms)
    if args.json:
        payload = {
            "baseline": comparison.baseline_label,
            "current": comparison.current_label,
            "rel_threshold": comparison.rel_threshold,
            "min_effect_ms": comparison.min_effect_ms,
            "verdicts": [
                {"name": v.name, "verdict": v.verdict,
                 "baseline_ms": v.baseline_ms,
                 "current_ms": v.current_ms,
                 "delta_ms": v.delta_ms,
                 "columns": [
                     {"column": c.column, "verdict": c.verdict,
                      "baseline": c.baseline, "current": c.current}
                     for c in v.columns]}
                for v in comparison.verdicts],
            "exit_code": comparison.exit_code,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_comparison(comparison))
    return comparison.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_artifact(load_artifact(args.artifact)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Run the benchmark suite, write BENCH_<label>.json "
                    "artifacts, and compare them for regressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run the suite and write BENCH_<label>.json")
    run_p.add_argument("--label", required=True,
                       help="artifact label (BENCH_<label>.json)")
    run_p.add_argument("--reps", type=int, default=5)
    run_p.add_argument("--warmup", type=int, default=1)
    run_p.add_argument("--cases", nargs="*", default=None,
                       metavar="GLOB",
                       help="only cases matching these glob patterns")
    run_p.add_argument("--out-dir", default=".",
                       help="directory for the artifact (default: .)")
    run_p.add_argument("--extra", action="append", default=None,
                       metavar="FILE.py",
                       help="additionally load cases from a python "
                            "file exposing register(suite) — e.g. "
                            "benchmarks/suite.py")
    run_p.add_argument("--list", action="store_true",
                       help="list registered cases and exit")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-case progress on stderr")
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="compare two artifacts; exit 1 on regression")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("current")
    cmp_p.add_argument("--threshold", type=float, default=REL_THRESHOLD,
                       help="relative change guard (default %(default)s)")
    cmp_p.add_argument("--min-effect-ms", type=float,
                       default=MIN_EFFECT_MS,
                       help="absolute change guard in ms "
                            "(default %(default)s)")
    cmp_p.add_argument("--json", action="store_true")
    cmp_p.set_defaults(fn=_cmd_compare)

    rep_p = sub.add_parser("report",
                           help="render one artifact as a text table")
    rep_p.add_argument("artifact")
    rep_p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":
    sys.exit(main())
