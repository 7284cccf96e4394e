"""CFG rules: the repo's config DSLs and bench cases as pure checkers.

Every config here already has a validator at its point of use — the
``parse`` classmethods of :class:`~repro.dist.faults.FaultPlan`,
:class:`~repro.serve.traffic.TrafficMix`,
:class:`~repro.obs.slo.SLOSpec` and
:class:`~repro.serve.resilience.BreakerConfig`, and
:meth:`repro.obs.bench.BenchSuite.add` — but those fire mid-run or at
boot, after the expensive work started. Re-using them here turns the
same logic into a pre-flight check that reports ``file:line`` findings
instead of raising from inside a coordinator, a load test or a bench
sweep.

The string-literal DSLs share one shape: :data:`LITERAL_CHECKERS`
maps the ``Class.parse`` callee the scanner looks for to its checker,
and every checker except the fault plan's (which splits CFG001 from
CFG002) is the same lazy parse-or-finding wrapper.

* **CFG001** — a fault-plan spec string fails to parse;
* **CFG002** — a fault plan schedules two faults for the same
  worker/superstep slot (previously last-write-wins silent);
* **CFG003** — a bench case is malformed (callable takes required
  arguments, or params are not JSON-serializable for the artifact);
* **CFG004** — a bench case's ``baseline_case`` names an unregistered
  case;
* **CFG005** — a traffic-mix spec string is invalid (unknown op name,
  negative weight, or weights that do not sum to 1) — the
  :meth:`repro.serve.traffic.TrafficMix.parse` validation as a
  pre-flight instead of a mid-load-test failure;
* **CFG006** — an SLO spec string is invalid (bad grammar, unknown
  request op, non-positive latency threshold, or a target outside
  (0, 1]) — the :meth:`repro.obs.slo.SLOSpec.parse` validation before
  a monitor ever evaluates it;
* **CFG007** — a circuit-breaker/deadline config literal is invalid
  (unknown key, non-numeric value, out-of-range threshold or window)
  — the :meth:`repro.serve.resilience.BreakerConfig.parse` validation
  as a pre-flight instead of a boot-time failure of the armed server.
"""

from __future__ import annotations

import importlib
import inspect
import json
from typing import TYPE_CHECKING, Callable

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.registry import finding, register_rule
from repro.dist.faults import FaultPlan, duplicate_faults

if TYPE_CHECKING:
    from repro.obs.bench import BenchSuite

#: bumped whenever rule behavior changes; keys the scan-result cache.
RULE_VERSION = "2"

register_rule(
    "CFG001", "config", Severity.ERROR,
    "fault-plan spec string fails to parse")
register_rule(
    "CFG002", "config", Severity.ERROR,
    "fault plan schedules duplicate faults for the same "
    "worker/superstep slot")
register_rule(
    "CFG003", "config", Severity.ERROR,
    "bench case is malformed (non-nullary callable or "
    "non-JSON-serializable params)")
register_rule(
    "CFG004", "config", Severity.ERROR,
    "bench case baseline_case references an unregistered case")


def check_fault_plan(spec: str, *, file: str = "<fault-plan>",
                     line: int = 0) -> AnalysisReport:
    """Validate a fault-plan DSL string without arming anything."""
    report = AnalysisReport()
    report.note_target(file)
    try:
        plan = FaultPlan.parse(spec)
    except ValueError as error:
        rule_id = "CFG002" if "duplicate" in str(error) else "CFG001"
        report.add(finding(rule_id, str(error), file=file, line=line))
        return report
    report.extend(check_fault_plan_object(plan, file=file, line=line))
    return report


def check_fault_plan_object(plan: FaultPlan, *,
                            file: str = "<fault-plan>",
                            line: int = 0) -> AnalysisReport:
    """Validate an already-built plan (builder API bypasses parse)."""
    report = AnalysisReport()
    for description in duplicate_faults(plan.faults):
        report.add(finding(
            "CFG002",
            f"duplicate fault: {description}; the duplicate would "
            f"re-fire on replay instead of being a no-op",
            file=file, line=line))
    return report


def _parse_checker(rule_id: str, summary: str, target: str,
                   default_file: str) -> Callable[..., AnalysisReport]:
    """Register ``rule_id`` and return a checker that runs
    ``target``'s ``parse`` over a spec string, turning its
    ``ValueError`` into one ``rule_id`` finding.

    ``target`` is ``"module:Class"``, imported on first use: the
    serve stack behind a traffic-mix or breaker literal is only loaded
    when such a literal is actually checked.
    """
    register_rule(rule_id, "config", Severity.ERROR, summary)
    module, _, name = target.partition(":")

    def check(spec: str, *, file: str = default_file,
              line: int = 0) -> AnalysisReport:
        parse = getattr(importlib.import_module(module), name).parse
        report = AnalysisReport()
        report.note_target(file)
        try:
            parse(spec)
        except ValueError as error:
            report.add(finding(rule_id, str(error), file=file, line=line))
        return report

    check.__doc__ = f"Validate one ``{name}.parse`` literal ({rule_id})."
    return check


check_traffic_mix = _parse_checker(
    "CFG005", "traffic-mix spec is invalid (unknown op, negative "
    "weight, or weights not summing to 1)",
    "repro.serve.traffic:TrafficMix", "<traffic-mix>")
check_slo_spec = _parse_checker(
    "CFG006", "SLO spec is invalid (bad grammar, unknown op, "
    "non-positive threshold, or target outside (0, 1])",
    "repro.obs.slo:SLOSpec", "<slo>")
check_breaker_config = _parse_checker(
    "CFG007", "breaker/deadline config is invalid (unknown key, "
    "non-numeric value, or out-of-range "
    "window/threshold/probes/cooldown)",
    "repro.serve.resilience:BreakerConfig", "<breaker>")

#: Callee suffix -> checker for the config DSLs whose string literals
#: the scanner lints. A new DSL is one row, its checker usually one
#: ``_parse_checker(rule id, summary, "module:Class", default file)``.
LITERAL_CHECKERS: dict[str, Callable[..., AnalysisReport]] = {
    "FaultPlan.parse": check_fault_plan,
    "TrafficMix.parse": check_traffic_mix,
    "BreakerConfig.parse": check_breaker_config,
    "SLOSpec.parse": check_slo_spec,
}


def check_bench_cases(suite: "BenchSuite") -> AnalysisReport:
    """Validate every registered case of a bench suite."""
    report = AnalysisReport()
    names = set(suite.names())
    for case in suite.cases():
        file, line = _case_location(case)
        report.note_target(f"bench:{case.name}")
        signature = None
        try:
            signature = inspect.signature(case.fn)
        except (TypeError, ValueError):
            pass
        if signature is not None:
            required = [
                p for p in signature.parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind in (p.POSITIONAL_ONLY,
                               p.POSITIONAL_OR_KEYWORD,
                               p.KEYWORD_ONLY)
            ]
            if required:
                report.add(finding(
                    "CFG003",
                    f"bench case {case.name!r}: fn takes required "
                    f"argument(s) "
                    f"{[p.name for p in required]}; cases must be "
                    f"nullary (close over inputs)",
                    file=file, line=line, symbol=case.name))
        try:
            json.dumps(case.params)
        except (TypeError, ValueError):
            report.add(finding(
                "CFG003",
                f"bench case {case.name!r}: params are not "
                f"JSON-serializable; the BENCH artifact embeds them",
                file=file, line=line, symbol=case.name))
        baseline = case.params.get("baseline_case")
        if baseline is not None and baseline not in names:
            report.add(finding(
                "CFG004",
                f"bench case {case.name!r}: baseline_case "
                f"{baseline!r} is not registered (known: "
                f"{sorted(names)})",
                file=file, line=line, symbol=case.name))
    return report


def _case_location(case) -> tuple[str, int]:
    try:
        file = inspect.getsourcefile(case.fn) or "<bench>"
        _, line = inspect.getsourcelines(case.fn)
        return file, line
    except (OSError, TypeError):
        return "<bench>", 0
