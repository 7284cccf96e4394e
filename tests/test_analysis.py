"""repro.analysis: rules, golden fixture corpus, reporters, CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisReport,
    Finding,
    Severity,
    analyze_paths,
    analyze_program,
    check_bench_cases,
    check_fault_plan,
    check_fault_plan_object,
    check_query,
    render_json,
    render_rule_catalog,
    render_text,
)
from repro.analysis.cli import main as cli_main
from repro.analysis.registry import all_rules, match_selection
from repro.dist import FaultPlan, duplicate_faults
from repro.graphs.property_graph import PropertyType
from repro.graphs.schema import GraphSchema

FIXTURES = Path(__file__).parent / "fixtures" / "bad_programs"
GOLDEN = json.loads((FIXTURES / "golden.json").read_text())


class TestFindings:
    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("WARNING") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_finding_render_has_location_and_rule(self):
        f = Finding(rule="DET001", severity=Severity.ERROR,
                    message="boom", file="prog.py", line=12,
                    symbol="rank")
        assert f.render() == "prog.py:12: error DET001: boom [rank]"
        assert f.location == "prog.py:12"

    def test_report_exit_code_policy(self):
        report = AnalysisReport()
        report.add(Finding(rule="CKPT003", severity=Severity.WARNING,
                           message="w"))
        assert report.ok  # warnings do not gate
        assert report.exit_code() == 0
        assert report.exit_code(fail_on=Severity.WARNING) == 1
        report.add(Finding(rule="DET001", severity=Severity.ERROR,
                           message="e"))
        assert not report.ok
        assert report.exit_code() == 1

    def test_report_dict_shape(self):
        report = AnalysisReport()
        report.note_target("x.py")
        report.add(Finding(rule="DET001", severity=Severity.ERROR,
                           message="e", file="x.py", line=3))
        payload = report.to_dict()
        assert payload["schema"] == "repro.analysis/v1"
        assert payload["targets"] == 1
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "DET001"


class TestRegistry:
    def test_catalog_covers_every_family(self):
        rules = {info.rule_id for info in all_rules()}
        families = {info.family for info in all_rules()}
        assert {"determinism", "checkpoint-safety", "query", "config",
                "source"} <= families
        assert {"concurrency", "resources", "deadline-coverage",
                "suppression"} <= families
        assert rules >= {"DET001", "DET002", "DET003", "CKPT001",
                         "CKPT002", "CKPT003", "QRY001", "QRY002",
                         "QRY003", "QRY004", "QRY005", "QRY006",
                         "CFG001", "CFG002", "CFG003", "CFG004",
                         "SRC001", "RACE001", "RACE002", "RACE003",
                         "RACE004", "LEAK001", "LEAK002", "LEAK003",
                         "DLC001", "SUP001"}

    def test_match_selection_prefixes(self):
        assert match_selection("DET001", ("DET",), ())
        assert not match_selection("DET001", ("QRY",), ())
        assert not match_selection("DET001", None, ("DET001",))
        assert match_selection("DET002", None, ())


class TestGoldenCorpus:
    """Each seeded-bad fixture yields exactly its golden findings."""

    @pytest.mark.parametrize("fixture", sorted(GOLDEN))
    def test_fixture_matches_golden(self, fixture):
        report = analyze_paths([FIXTURES / fixture])
        actual = [[f.rule, f.line, f.severity.name]
                  for f in report.sorted_findings()]
        assert actual == GOLDEN[fixture]

    def test_every_rule_family_is_exercised(self):
        fired = {rule for findings in GOLDEN.values()
                 for rule, _, _ in findings}
        assert {r[:3] for r in fired} >= {"DET", "CKP", "QRY", "CFG",
                                          "SRC", "RAC", "LEA", "DLC",
                                          "SUP"}

    def test_findings_anchor_to_real_lines(self):
        report = analyze_paths([FIXTURES])
        for finding in report.findings:
            assert finding.line > 0
            assert Path(finding.file).name in GOLDEN


class TestDeterminismOnLivePrograms:
    def test_clean_program_passes(self):
        def program(ctx):
            total = ctx.value
            for message in sorted(ctx.messages):
                total += message
            ctx.vote_to_halt()
            return total

        assert analyze_program(program).ok

    def test_entropy_flagged_through_alias(self):
        import random as rnd

        def program(ctx):
            ctx.send_to_neighbors(rnd.random())
            return ctx.value

        report = analyze_program(program)
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.findings[0].file.endswith("test_analysis.py")

    def test_closure_mutation_flagged(self):
        state = {"count": 0}

        def program(ctx):
            state["count"] += 1
            ctx.vote_to_halt()
            return ctx.value

        rules = [f.rule for f in analyze_program(program).findings]
        assert rules == ["DET003"]


class TestFaultPlanChecks:
    def test_parse_rejects_duplicate_chunks(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.parse("w1@3, w1@3")

    def test_builder_duplicates_reported_not_raised(self):
        plan = (FaultPlan()
                .kill("w1", at_superstep=3)
                .kill("w1", at_superstep=3))
        assert duplicate_faults(plan.faults)
        report = check_fault_plan_object(plan)
        assert [f.rule for f in report.findings] == ["CFG002"]

    def test_distinct_slots_are_clean(self):
        plan = (FaultPlan()
                .kill("w1", at_superstep=3)
                .kill("w2", at_superstep=3)
                .kill("w1", at_superstep=4))
        assert not duplicate_faults(plan.faults)
        assert check_fault_plan("w1@3, w2@3, drop@4").ok

    def test_unparseable_spec_is_cfg001(self):
        report = check_fault_plan("definitely not a fault spec")
        assert [f.rule for f in report.findings] == ["CFG001"]

    def test_config_literals_match_whole_dotted_names(self):
        from repro.analysis.scanner import scan_source

        source = (
            'LegacyFaultPlan.parse("nonsense")\n'
            'MyTrafficMix.parse("nonsense")\n'
            'x.OldBreakerConfig.parse("nonsense")\n'
            'NotSLOSpec.parse("nonsense")\n'
            'dist.FaultPlan.parse("nonsense")\n'
            'FaultPlan.parse("nonsense")\n')
        report = scan_source(source, "demo.py")
        assert [(f.rule, f.line) for f in report.findings] == \
            [("CFG001", 5), ("CFG001", 6)]


class TestQueryChecks:
    @pytest.fixture()
    def schema(self):
        return (GraphSchema()
                .require_vertex_property("Person", "age",
                                         PropertyType.NUMERIC)
                .require_vertex_property("Person", "name",
                                         PropertyType.STRING))

    def test_unknown_label(self, schema):
        report = check_query("MATCH (a:Alien) RETURN a", schema)
        assert [f.rule for f in report.findings] == ["QRY003"]

    def test_unknown_property(self, schema):
        report = check_query(
            "MATCH (a:Person) WHERE a.height > 3 RETURN a", schema)
        assert [f.rule for f in report.findings] == ["QRY005"]

    def test_type_mismatch(self, schema):
        report = check_query(
            "MATCH (a:Person) WHERE a.age = 'forty' RETURN a", schema)
        assert [f.rule for f in report.findings] == ["QRY006"]

    def test_well_typed_query_is_clean(self, schema):
        report = check_query(
            "MATCH (a:Person) WHERE a.age > 21 RETURN a.name", schema)
        assert report.ok and not report.findings

    def test_parse_and_unbound_without_schema(self):
        assert [f.rule for f in check_query("MATCH (a:").findings] \
            == ["QRY001"]
        assert [f.rule
                for f in check_query("MATCH (a) RETURN b").findings] \
            == ["QRY002"]


class TestBenchConfigChecks:
    def test_default_suite_is_clean(self):
        from repro.obs.bench_cases import default_suite

        report = check_bench_cases(default_suite())
        assert report.ok and not report.findings

    def test_non_nullary_case_flagged(self):
        from repro.obs.bench import BenchSuite

        suite = BenchSuite("bad")
        suite.add("needs_args", lambda graph: graph)
        rules = [f.rule for f in check_bench_cases(suite).findings]
        assert rules == ["CFG003"]

    def test_missing_baseline_flagged(self):
        from repro.obs.bench import BenchSuite

        suite = BenchSuite("bad")
        suite.add("solo", lambda: 1, baseline_case="ghost")
        rules = [f.rule for f in check_bench_cases(suite).findings]
        assert rules == ["CFG004"]


class TestReporters:
    @pytest.fixture()
    def report(self):
        return analyze_paths([FIXTURES / "det_unseeded_random.py"])

    def test_text_reporter(self, report):
        text = render_text(report)
        assert "det_unseeded_random.py:8: error DET001" in text
        assert "error(s)" in text

    def test_json_reporter(self, report):
        payload = json.loads(render_json(report))
        assert payload["schema"] == "repro.analysis/v1"
        assert payload["counts"]["error"] == 2

    def test_rule_catalog_lists_all_rules(self):
        catalog = render_rule_catalog()
        for info in all_rules():
            assert info.rule_id in catalog


class TestCli:
    def test_bad_corpus_exits_nonzero(self, capsys):
        assert cli_main(["check", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "QRY001" in out

    def test_bare_paths_default_to_check(self, capsys):
        assert cli_main([str(FIXTURES / "det_hidden_state.py")]) == 1
        assert "DET003" in capsys.readouterr().out

    def test_select_filters_rules(self, capsys):
        code = cli_main(["check", str(FIXTURES), "--select", "QRY"])
        out = capsys.readouterr().out
        assert code == 1
        assert "QRY001" in out and "DET001" not in out

    def test_ignore_everything_exits_zero(self, capsys):
        code = cli_main([
            "check", str(FIXTURES),
            "--ignore", "DET,CKPT,QRY,CFG,SRC,RACE,LEAK,DLC,SUP"])
        capsys.readouterr()
        assert code == 0

    def test_json_output(self, capsys):
        cli_main(["check", str(FIXTURES), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis/v1"

    def test_fail_on_warning(self, capsys):
        target = str(FIXTURES / "ckpt_bad_value.py")
        assert cli_main(["check", target, "--select", "CKPT003"]) == 0
        capsys.readouterr()
        assert cli_main(["check", target, "--select", "CKPT003",
                         "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_rules_subcommand(self, capsys):
        assert cli_main(["rules"]) == 0
        assert "DET001" in capsys.readouterr().out
