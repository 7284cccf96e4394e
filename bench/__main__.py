"""``python -m bench``: run the benchmark from the repository root.

    python -m bench run [--workload W] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out FILE]
    python -m bench repeat --runs N [--sets K] [--seed N] [--out FILE]

``run`` starts one child process per workload, prints every end-to-end
metric with its unit, the oracle verdict, and one JSON line per
workload: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace`` it runs each workload a second time with the per-layer
wrappers installed, prints the per-layer metrics and the traced/untraced
ratios, and the JSON line carries the per-layer metrics instead.

``BENCHMARK.json``'s ``command`` is ``python3 -m bench run``. A runner
that reads it appends ``--workload W --seed N --seconds S --trace 0|1``
for one measured run, with S its ``run_seconds``; without them ``run``
covers every workload for ``run_seconds``.

``repeat`` runs every workload for ``run_seconds`` on seeds S..S+N-1
(S = ``--seed``, N = ``--runs``), ``--sets`` times over, and prints each
metric's median, quartiles and spread, flagging a spread wider than the
metric's bound in ``BENCHMARK.json`` and, across sets, a median that
moved the wrong way by more than it.

Exit status: 0 when every oracle passed, 1 when one failed, 2 when a
workload could not run (no JSON line is printed for it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any

from bench import procs, spec, stats
from bench.trace import complete, per_layer_metrics


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              smoke: bool) -> dict[str, Any]:
    """One workload in a fresh process group; its JSON result."""
    cmd = procs.python("-m", "bench.child", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "1" if traced else "0")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=spec.ROOT, env=procs.child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=30 + 4 * seconds)
    except BaseException:
        # Timeout or interrupt: the group holds the child's server too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(result: dict[str, Any], seed: int,
                     seconds: float) -> None:
    w = spec.workload(result["workload"])
    e2e, n = result["end_to_end"], result["samples"]
    print(f"{w.name}  seed {seed}, {seconds:g} s, untraced")
    notes = {"ops_per_s": (f"{n} operations completed" if w.kind == "serve"
                           else "1000 / op_p50_ms"),
             "op_p50_ms": f"n={n}"}
    for metric in spec.END_TO_END:
        print(f"  {metric.name:<12} {_fmt(e2e[metric.name]):>12} "
              f"{metric.unit:<4} {notes.get(metric.name, '')}")
    # The workload's tail is fixed; say when this run's count would
    # have chosen another, as a faster or slower commit can.
    rule = stats.tail_percentile(n) or 50  # 50: none above the median
    moved = ("" if rule == w.tail else
             f" (at n={n} the rule gives "
             f"{'none' if rule == 50 else f'p{rule}'})")
    if w.tail == 50:
        print(f"  tail: none above the median for this workload{moved}")
    else:
        print(f"  {f'op_p{w.tail}_ms':<12} {_fmt(result['tail_ms']):>12} "
              f"ms   n={n}, {stats.samples_beyond(n, w.tail)} beyond; "
              f"reported, not gated{moved}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<12} {_fmt(failed / attempted):>12}      "
          f"{failed} of {attempted} failed")
    for key, value in result["detail"].items():
        print(f"  detail {key}: {value}")
    print_verdict(result)


def print_verdict(result: dict[str, Any]) -> None:
    if result["correct"]:
        print("  oracle: pass")
    else:
        print("  oracle: FAIL")
        for error in result["errors"] or ["no operation completed"]:
            print(f"    {error}")


def print_traced(traced: dict[str, Any], untraced: dict[str, Any]) -> None:
    print(f"{traced['workload']}  traced")
    units = {m.name: m.unit for m in per_layer_metrics()}
    for name, value in traced.get("per_layer", {}).items():
        if value:
            print(f"  {name:<52} {_fmt(value):>12} {units[name]}")
    before, after = untraced["end_to_end"], traced["end_to_end"]
    ratios = ", ".join(f"{name} {after[name] / before[name]:.3f}"
                       for name in ("ops_per_s", "op_p50_ms")
                       if before[name])
    print(f"  traced/untraced: {ratios}")
    attribution = traced.get("attribution")
    if attribution:
        print(f"  attribution: layers {attribution['layers_ms_per_op']:.4f}"
              f" ms/op, measured {attribution['measured_ms_per_op']:.4f}"
              f" ms/op")
    print_verdict(traced)


def contract_line(results: list[dict[str, Any]], traced: bool) -> str:
    """The result line a runner reads for one workload's run(s)."""
    last = results[-1]
    if traced:
        units = {m.name: m.unit for m in per_layer_metrics()}
        values = last.get("per_layer") or complete({})
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
        values = last["end_to_end"]
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def cmd_run(args: argparse.Namespace) -> int:
    status = 0
    collected: dict[str, list[dict[str, Any]]] = {}
    for name in args.workload:
        untraced = run_child(name, args.seed, args.seconds, False,
                             args.smoke)
        print_end_to_end(untraced, args.seed, args.seconds)
        results = [untraced]
        if args.trace:
            traced = run_child(name, args.seed, args.seconds, True,
                               args.smoke)
            print_traced(traced, untraced)
            results.append(traced)
        collected[name] = results
        if not all(r["correct"] for r in results):
            status = 1
        print(contract_line(results, bool(args.trace)), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": collected}, fh, indent=1)
    return status


def cmd_repeat(args: argparse.Namespace) -> int:
    bounds = {m["name"]: m["bound"]
              for m in spec.load_benchmark_json()["end_to_end"]}
    better = {m.name: m.better for m in spec.END_TO_END}
    # values[workload][metric][set] -> one value per run
    values: dict[str, dict[str, list[list[float]]]] = {
        name: {m.name: [[] for _ in range(args.sets)]
               for m in spec.END_TO_END}
        for name in args.workload}
    status = 0
    for s in range(args.sets):
        for i in range(args.runs):
            for name in args.workload:
                result = run_child(name, args.seed + i, args.seconds,
                                   False, args.smoke)
                if not result["correct"]:
                    status = 1
                    print(f"{name} seed {args.seed + i}: oracle FAIL "
                          f"{result['errors']}")
                for metric, value in result["end_to_end"].items():
                    values[name][metric][s].append(value)
                print(f"set {s + 1} run {i + 1} {name}: "
                      + ", ".join(f"{k} {_fmt(v)}" for k, v in
                                  result["end_to_end"].items()),
                      flush=True)
    for name in args.workload:
        print(f"\n{name}: {args.runs} runs x {args.sets} sets")
        print(f"  {'metric':<12} {'median':>10} {'Q1':>10} {'Q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for metric, sets in values[name].items():
            bound = bounds[metric]
            for s, runs in enumerate(sets):
                q1, median, q3 = stats.quartiles(runs)
                share = stats.spread(runs)
                flag = ("WIDE" if share > bound
                        else "<1/3" if share < bound / 3 else "")
                print(f"  {metric:<12} {_fmt(median):>10} {_fmt(q1):>10} "
                      f"{_fmt(q3):>10} {share:>7.3f} {bound:>6.2f} {flag}")
            first = statistics.median(sets[0])
            for s, runs in enumerate(sets[1:], start=2):
                change = (statistics.median(runs) - first) / first
                worse = change if better[metric] == "lower" else -change
                flag = "WORSE" if worse > bound else "ok"
                print(f"  {metric:<12} set {s} vs set 1: {change:+.3%} "
                      f"{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Seeded end-to-end benchmark of the repro program.")
    sub = parser.add_subparsers(dest="command", required=True)
    run, repeat = sub.add_parser("run"), sub.add_parser("repeat")
    run.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                     help="default: every workload")
    run.add_argument("--seconds", type=float,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                     const=1, default=0,
                     help="also run traced and report per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and runs, for the self-tests")
    repeat.add_argument("--runs", type=int, required=True)
    repeat.add_argument("--sets", type=int, default=1)
    repeat.set_defaults(workload=None, seconds=None, smoke=False)
    for p in (run, repeat):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", help="also write the results here")
    args = parser.parse_args(argv)

    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the program is not at {spec.SRC / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    args.workload = ([args.workload] if args.workload
                     else list(spec.WORKLOAD_NAMES))
    if args.seconds is None:
        args.seconds = (0.3 if args.smoke else
                        spec.load_benchmark_json()["run_seconds"])
    try:
        return cmd_run(args) if args.command == "run" else cmd_repeat(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
