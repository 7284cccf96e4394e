"""File/directory scanning: the ``python -m repro.analysis`` engine.

Walks Python sources, finds the analyzable artifacts in each module,
and runs the matching rule families:

* functions following the vertex-program calling convention (a single
  ``ctx``/``context`` or ``VertexContext``-annotated parameter) get
  the DET determinism and CKPT checkpoint-safety lints;
* ``FaultPlan.parse("...")``, ``TrafficMix.parse("...")``,
  ``BreakerConfig.parse("...")`` and ``SLOSpec.parse("...")`` string
  literals get their CFG checks, one row each in
  :data:`~repro.analysis.config_check.LITERAL_CHECKERS`;
* ``run_query(graph, "...")`` / ``repro.query.parse("...")`` string
  literals get the QRY parse + unbound-variable checks (schema-aware
  checks need a live :class:`~repro.graphs.schema.GraphSchema`, so
  file scans run the program-independent subset);
* every module gets the RACE concurrency pass, the LEAK/DLC
  resource-and-deadline pass, and ``# repro: ignore[...]``
  suppression handling (stale markers surface as SUP001).

Unparseable files are findings (``SRC001``), not crashes — a CI gate
must not die on the code it gates.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from repro.analysis import (
    checkpoint_safety,
    concurrency,
    config_check,
    determinism,
    query_check,
    resources,
    suppressions as suppressions_mod,
)
from repro.analysis.astutils import (
    ProgramAst,
    const_str,
    dotted_name,
    find_vertex_programs,
    local_names,
    imports_from_nodes,
)
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.query_check import check_query
from repro.analysis.config_check import LITERAL_CHECKERS
from repro.analysis.registry import finding, register_rule
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    extract_suppressions,
)

register_rule(
    "SRC001", "source", Severity.ERROR,
    "file fails to parse as Python")

#: directories never worth descending into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: composite version of every rule family; cached per-file results
#: are invalid the moment any family's RULE_VERSION bumps.
_RULES_VERSION = "|".join((
    f"det:{determinism.RULE_VERSION}",
    f"ckpt:{checkpoint_safety.RULE_VERSION}",
    f"qry:{query_check.RULE_VERSION}",
    f"cfg:{config_check.RULE_VERSION}",
    f"race:{concurrency.RULE_VERSION}",
    f"leak:{resources.RULE_VERSION}",
    f"sup:{suppressions_mod.RULE_VERSION}",
))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through),
    deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS
                           for part in candidate.parts):
                    yield candidate


def _query_literal(node: ast.Call) -> tuple[str, ast.expr] | None:
    """(query text, literal node) when ``node`` is a recognizable
    query-parse/execute call with a string-literal query."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    tail = dotted.rsplit(".", 1)[-1]
    if tail == "run_query" and len(node.args) >= 2:
        text = const_str(node.args[1])
        if text is not None:
            return text, node.args[1]
    return None


def _config_literal(node: ast.Call) -> tuple[
        Callable[..., AnalysisReport], ast.expr, str] | None:
    """(checker, literal node, text) when ``node`` calls a config
    DSL's ``Class.parse`` with a string literal. The callee must *be*
    that dotted name or end in ``.`` + it: ``LegacyFaultPlan.parse``
    is not ``FaultPlan.parse``."""
    dotted = dotted_name(node.func)
    if dotted is None or not node.args:
        return None
    checker = LITERAL_CHECKERS.get(".".join(dotted.rsplit(".", 2)[-2:]))
    text = const_str(node.args[0])
    if checker is None or text is None:
        return None
    return checker, node.args[0], text


# Parsed-AST cache, keyed by file path. ``analysis.full_sweep`` is
# ~20x the next-slowest bench case and most of that is ast.parse over
# files re-visited across repetitions/rule sweeps; source files do not
# change mid-run, so parses (plus the file's suppression markers) are
# cached against an (mtime_ns, size) stat signature and reused until
# the file changes on disk. Syntax errors cache too — a broken file is
# re-reported, not re-parsed. A second layer caches each file's
# *findings* keyed by the same signature plus ``_RULES_VERSION``, so
# an unchanged file under unchanged rules skips the rule sweep
# entirely; a result-cache hit counts as a (logical) parse-cache hit
# since the cached parse's work is what gets reused.
_AST_CACHE: dict[str, tuple[
    tuple[int, int], ast.Module | SyntaxError,
    tuple[Suppression, ...]]] = {}
_RESULT_CACHE: dict[str, tuple[
    tuple[int, int], str, tuple[Finding, ...]]] = {}
_CACHE_STATS = {"hits": 0, "misses": 0, "result_hits": 0}

#: wall-clock milliseconds attributed to each rule family this
#: process (reset by :func:`clear_ast_cache`).
_FAMILY_MS: dict[str, float] = {}

_T = TypeVar("_T")


def _timed(family: str, check: Callable[..., _T],
           *args, **kwargs) -> _T:
    start = time.perf_counter()
    result = check(*args, **kwargs)
    _FAMILY_MS[family] = _FAMILY_MS.get(family, 0.0) + (
        time.perf_counter() - start) * 1000.0
    return result


def clear_ast_cache() -> None:
    """Drop every cached parse/result and zero all counters."""
    _AST_CACHE.clear()
    _RESULT_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0
    _FAMILY_MS.clear()


def ast_cache_stats() -> dict[str, object]:
    """Current cache effectiveness (hits, misses, entries,
    result_hits) plus per-rule-family sweep milliseconds."""
    return {"hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
            "entries": len(_AST_CACHE),
            "result_hits": _CACHE_STATS["result_hits"],
            "family_ms": rule_timings()}


def rule_timings() -> dict[str, float]:
    """Milliseconds spent per rule family since the last cache
    clear, rounded for display."""
    return {family: round(ms, 3)
            for family, ms in sorted(_FAMILY_MS.items())}


def _signature(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


def _parse_cached(
        path: Path, signature: tuple[int, int] | None) -> tuple[
            ast.Module | SyntaxError, tuple[Suppression, ...]]:
    """The file's parse tree (or its SyntaxError) plus its suppression
    markers, via the cache."""
    key = str(path)
    if signature is not None:
        cached = _AST_CACHE.get(key)
        if cached is not None and cached[0] == signature:
            _CACHE_STATS["hits"] += 1
            return cached[1], cached[2]
    _CACHE_STATS["misses"] += 1
    source = path.read_text(encoding="utf-8")
    try:
        parsed: ast.Module | SyntaxError = ast.parse(source)
    except SyntaxError as error:
        parsed = error
    markers = extract_suppressions(source)
    if signature is not None:
        _AST_CACHE[key] = (signature, parsed, markers)
    return parsed, markers


def _syntax_report(error: SyntaxError, file: str) -> AnalysisReport:
    report = AnalysisReport()
    report.note_target(file)
    report.add(finding(
        "SRC001", f"does not parse: {error.msg}", file=file,
        line=error.lineno or 0))
    return report


def _scan_tree(
        tree: ast.Module, file: str,
        suppressions: tuple[Suppression, ...] = ()) -> AnalysisReport:
    """Run every rule family over one parsed module."""
    report = AnalysisReport()
    report.note_target(file)

    # One walk feeds every family: config/query literals and import
    # aliases here, plus the class and function lists the RACE/LEAK
    # rules share.
    classes: list[ast.ClassDef] = []
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    import_nodes: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes.append(node)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            import_nodes.append(node)
            continue
        if not isinstance(node, ast.Call):
            continue
        config_literal = _config_literal(node)
        if config_literal is not None:
            checker, literal, text = config_literal
            sub = _timed("config", checker, text,
                         file=file, line=literal.lineno)
            report.findings.extend(sub.findings)
            continue
        query_literal = _query_literal(node)
        if query_literal is not None:
            text, literal = query_literal
            sub = _timed("query", check_query, text,
                         file=file, line=literal.lineno)
            report.findings.extend(sub.findings)

    imports = imports_from_nodes(import_nodes)
    for func, ctx_name in find_vertex_programs(tree):
        program_ast = ProgramAst(
            func=func, ctx_name=ctx_name, file=file, imports=imports,
            locals=local_names(func))
        report.extend(_timed(
            "determinism", determinism.check_program, program_ast))
        report.extend(_timed(
            "checkpoint-safety", checkpoint_safety.check_program,
            program_ast))

    report.extend(_timed(
        "concurrency", concurrency.check_module, tree, file,
        imports=imports, classes=classes, functions=functions))
    report.extend(_timed(
        "resources", resources.check_module, tree, file,
        imports=imports, classes=classes, functions=functions))
    if suppressions:
        report.findings = _timed(
            "suppression", apply_suppressions, report.findings,
            suppressions, file)
    return report


def scan_source(source: str, file: str = "<source>") -> AnalysisReport:
    """Analyze one module's source text (uncached — text has no path
    identity to key a cache on)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return _syntax_report(error, file)
    return _scan_tree(tree, file,
                      suppressions=extract_suppressions(source))


def scan_file(path: str | Path) -> AnalysisReport:
    path = Path(path)
    key = str(path)
    signature = _signature(path)
    if signature is not None:
        cached = _RESULT_CACHE.get(key)
        if cached is not None and cached[0] == signature \
                and cached[1] == _RULES_VERSION:
            _CACHE_STATS["hits"] += 1
            _CACHE_STATS["result_hits"] += 1
            report = AnalysisReport()
            report.note_target(key)
            report.findings = list(cached[2])
            return report
    try:
        parsed, markers = _parse_cached(path, signature)
    except OSError as error:
        report = AnalysisReport()
        report.note_target(key)
        report.add(finding("SRC001", f"unreadable: {error}",
                           file=key))
        return report
    if isinstance(parsed, SyntaxError):
        report = _syntax_report(parsed, key)
    else:
        report = _scan_tree(parsed, key, suppressions=markers)
    if signature is not None:
        _RESULT_CACHE[key] = (
            signature, _RULES_VERSION, tuple(report.findings))
    return report


def analyze_paths(paths: Iterable[str | Path]) -> AnalysisReport:
    """Scan every Python file under ``paths`` into one report."""
    report = AnalysisReport()
    for path in iter_python_files(paths):
        report.extend(scan_file(path))
    return report
