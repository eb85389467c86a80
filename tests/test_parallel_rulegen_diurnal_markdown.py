"""Tests for diurnal arrivals and markdown export."""

import numpy as np
import pytest

from repro.analysis import format_rule_table
from repro.analysis.report import case_study_markdown, format_table_markdown
from repro.core import MiningConfig, mine_keyword_rules
from repro.cluster import JobRequest
from repro.traces.synthetic.base import diurnal_arrivals


class TestDiurnalArrivals:
    def _jobs(self, n):
        return [
            JobRequest(job_id=i, user="u", submit_time=0.0, runtime=1.0)
            for i in range(n)
        ]

    def test_assigns_sorted_times_in_range(self):
        rng = np.random.default_rng(1)
        jobs = self._jobs(500)
        diurnal_arrivals(rng, jobs, duration_s=5 * 86400.0, peak_ratio=3.0)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= 5 * 86400.0

    def test_peak_hours_busier(self):
        rng = np.random.default_rng(2)
        jobs = self._jobs(20_000)
        diurnal_arrivals(rng, jobs, duration_s=10 * 86400.0, peak_ratio=4.0,
                         peak_hour=15.0)
        hours = np.asarray([(j.submit_time % 86400.0) / 3600.0 for j in jobs])
        peak = ((hours >= 13) & (hours < 17)).sum()
        trough = ((hours >= 1) & (hours < 5)).sum()
        assert peak > 2.0 * trough

    def test_peak_ratio_one_is_uniform(self):
        rng = np.random.default_rng(3)
        jobs = self._jobs(5000)
        diurnal_arrivals(rng, jobs, duration_s=86400.0, peak_ratio=1.0)
        hours = np.asarray([j.submit_time / 3600.0 for j in jobs])
        counts, _ = np.histogram(hours, bins=6)
        assert counts.max() < 1.5 * counts.min()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(np.random.default_rng(0), self._jobs(2), 100.0, 0.5)

    def test_empty_jobs_noop(self):
        diurnal_arrivals(np.random.default_rng(0), [], 100.0)


class TestMarkdownExport:
    def test_table_markdown_structure(self, supercloud_db):
        result = mine_keyword_rules(supercloud_db, "Failed", MiningConfig())
        table = format_rule_table(result, "Failure rules", 2, 1)
        md = format_table_markdown(table)
        assert md.startswith("### Failure rules")
        assert "| C1 |" in md
        assert md.splitlines()[3] == "|---|---|---|---|---|---|"

    def test_case_study_markdown(self, supercloud_db):
        result = mine_keyword_rules(supercloud_db, "Failed", MiningConfig())
        tables = {"failure": format_rule_table(result, "Failure rules", 2, 1)}
        md = case_study_markdown(tables, "SuperCloud")
        assert md.startswith("## SuperCloud")
        assert "### Failure rules" in md

    def test_empty_table_markdown(self, supercloud_db):
        result = mine_keyword_rules(supercloud_db, "unobtainium", MiningConfig())
        md = format_table_markdown(format_rule_table(result, "none"))
        assert "### none" in md
