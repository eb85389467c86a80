"""Tests for the workflow orchestration, report formatting and case studies."""

import pytest

from repro.analysis import (
    AnalysisResult,
    CaseStudyTable,
    InterpretableAnalysis,
    analyze_trace,
    failure_study,
    format_rule_table,
    full_case_study,
    misc_study,
    select_diverse_rules,
    underutilization_study,
)
from repro.core import MiningConfig, mine_keyword_rules
from repro.traces import get_trace


@pytest.fixture(scope="module")
def sc_analysis(supercloud_table):
    return analyze_trace("supercloud", table=supercloud_table)


class TestWorkflow:
    def test_runs_all_keywords(self, sc_analysis):
        assert set(sc_analysis.keyword_results) == {
            "underutilization", "failure", "killed",
        }

    def test_itemsets_shared_across_keywords(self, sc_analysis):
        assert len(sc_analysis.itemsets) > 100

    def test_getitem_and_missing_key(self, sc_analysis):
        assert sc_analysis["failure"].keyword.render() == "Failed"
        with pytest.raises(KeyError, match="no keyword study"):
            sc_analysis["ghost"]

    def test_summary_text(self, sc_analysis):
        text = sc_analysis.summary()
        assert "transactions : " in text
        assert "underutilization" in text

    def test_workflow_on_custom_keywords(self, supercloud_table):
        workflow = InterpretableAnalysis(
            get_trace("supercloud").make_preprocessor(), MiningConfig()
        )
        result = workflow.run(supercloud_table, {"power": "GPU Power = Bin1"})
        assert "power" in result.keyword_results


class TestReport:
    def test_format_rule_table_labels(self, sc_analysis):
        table = format_rule_table(sc_analysis["failure"], "t", 4, 2)
        labels = [row.label for row in table.rows]
        assert labels == [f"C{i+1}" for i in range(len(table.cause_rows))] + [
            f"A{i+1}" for i in range(len(table.characteristic_rows))
        ]
        assert len(table.cause_rows) <= 4
        assert len(table.characteristic_rows) <= 2

    def test_table_renders_paper_columns(self, sc_analysis):
        table = format_rule_table(sc_analysis["failure"], "Failure rules", 3, 2)
        text = str(table)
        assert "Antecedent" in text and "Lift" in text
        assert "Failure rules" in text

    def test_select_diverse_rules_caps_and_orders(self, sc_analysis):
        rules = list(sc_analysis["underutilization"].characteristic)
        picked = select_diverse_rules(rules, 5)
        assert len(picked) <= 5
        lifts = [r.lift for r in picked]
        assert lifts == sorted(lifts, reverse=True)

    def test_select_diverse_rules_similarity(self, sc_analysis):
        rules = list(sc_analysis["underutilization"].characteristic)
        picked = select_diverse_rules(rules, 10, max_similarity=0.3)
        for i, a in enumerate(picked):
            for b in picked[i + 1:]:
                inter = len(a.item_ids & b.item_ids)
                union = len(a.item_ids | b.item_ids)
                assert inter / union <= 0.3

    def test_row_render_format(self, sc_analysis):
        table = format_rule_table(sc_analysis["failure"], "t", 1, 0)
        label, ant, cons, supp, conf, lift = table.rows[0].render()
        assert label == "C1"
        float(supp), float(conf), float(lift)  # parseable numbers

    def test_empty_ruleset_gives_empty_table(self, supercloud_db):
        empty = mine_keyword_rules(supercloud_db, "unobtainium", MiningConfig())
        table = format_rule_table(empty, "empty")
        assert table.rows == []

    def test_negative_max_rules_rejected(self, sc_analysis):
        with pytest.raises(ValueError):
            select_diverse_rules(list(sc_analysis["failure"].cause), -1)


class TestCaseStudies:
    def test_underutilization_study(self, supercloud_table, sc_analysis):
        _, table = underutilization_study("supercloud", analysis=sc_analysis)
        assert isinstance(table, CaseStudyTable)
        assert table.rows
        assert "SuperCloud" in table.title
        # cause rows carry the keyword in the consequent
        for row in table.cause_rows:
            assert any(i.render() == "SM Util = 0%" for i in row.rule.consequent)

    def test_failure_study(self, sc_analysis):
        _, table = failure_study("supercloud", analysis=sc_analysis)
        for row in table.cause_rows:
            assert any(i.render() == "Failed" for i in row.rule.consequent)
        for row in table.characteristic_rows:
            assert any(i.render() == "Failed" for i in row.rule.antecedent)

    def test_misc_study_supercloud(self, supercloud_table):
        tables = misc_study("supercloud", table=supercloud_table)
        assert "killed" in tables

    def test_pai_misc_study_needs_the_job_table(self, pai_table):
        # the model rules mine the labelled rows of the raw table, which
        # the analysis does not carry
        analysis = analyze_trace("pai", table=pai_table)
        with pytest.raises(ValueError, match="job table"):
            misc_study("pai", analysis=analysis)

    def test_misc_study_philly(self, philly_table):
        tables = misc_study("philly", table=philly_table)
        assert "multi_gpu" in tables
        table = tables["multi_gpu"]
        assert table.rows

    def test_full_case_study_renders(self, philly_table):
        study = full_case_study("philly", table=philly_table)
        text = study.render()
        assert "Philly" in text
        assert "underutilization" in study.tables
        assert "failure" in study.tables
