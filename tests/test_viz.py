"""Tests for the figure-data substrate (CDF, box stats, scatter, ascii)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig, generate_rule_table, mine_frequent_itemsets
from repro.viz import (
    bar_chart,
    box_chart,
    box_stats,
    cdf_chart,
    empirical_cdf,
    pruning_scatter,
    rule_scatter,
    series_table,
)


class TestCDF:
    def test_basic_staircase(self):
        cdf = empirical_cdf(np.asarray([1.0, 2.0, 2.0, 4.0]))
        assert cdf.at(0.5) == 0.0
        assert cdf.at(1.0) == pytest.approx(0.25)
        assert cdf.at(2.0) == pytest.approx(0.75)
        assert cdf.at(100.0) == 1.0

    def test_quantile_inverse(self):
        cdf = empirical_cdf(np.arange(100, dtype=float))
        assert cdf.quantile(0.5) == pytest.approx(49.0)
        assert cdf.quantile(1.0) == 99.0

    def test_nan_dropped(self):
        cdf = empirical_cdf(np.asarray([np.nan, 1.0]))
        assert cdf.at(1.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.asarray([]))

    def test_invalid_quantile(self):
        cdf = empirical_cdf(np.asarray([1.0]))
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_near_zero_share_fig4_usage(self):
        values = np.asarray([0.0] * 46 + list(range(1, 55)), dtype=float)
        cdf = empirical_cdf(values)
        assert cdf.share_at_most(0.0) == pytest.approx(0.46)

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_0_1(self, values):
        cdf = empirical_cdf(np.asarray(values))
        assert (np.diff(cdf.fractions) >= -1e-12).all()
        assert cdf.fractions[-1] == pytest.approx(1.0)


class TestBoxStats:
    def test_five_numbers(self):
        s = box_stats(np.arange(1, 102, dtype=float))
        assert s.minimum == 1.0
        assert s.median == 51.0
        assert s.maximum == 101.0
        assert s.q1 == 26.0 and s.q3 == 76.0
        assert s.iqr == 50.0

    def test_outliers_beyond_whiskers(self):
        values = np.asarray([1.0] * 50 + [2.0] * 50 + [100.0])
        s = box_stats(values)
        assert s.n_outliers == 1
        assert s.whisker_high < 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_as_dict(self):
        d = box_stats([1.0, 2.0, 3.0]).as_dict()
        assert d["median"] == 2.0

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_ordering_invariants(self, values):
        s = box_stats(np.asarray(values))
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert s.whisker_low <= s.whisker_high or s.n == 0


def _toy_rules(db):
    cfg = MiningConfig(min_support=0.2, min_lift=0.0)
    return generate_rule_table(
        mine_frequent_itemsets(db, cfg),
        min_lift=cfg.min_lift, min_confidence=cfg.min_confidence,
    )


class TestScatter:
    def test_rule_scatter_coordinates(self, toy_db):
        rules = _toy_rules(toy_db)
        scatter = rule_scatter(rules)
        assert len(scatter) == len(rules)
        assert scatter.lift.shape == scatter.support.shape

    def test_pruning_scatter_panels(self, toy_db):
        rules = _toy_rules(toy_db)
        panels = pruning_scatter(rules, rules.select(range(2)))
        assert len(panels["before"]) == len(rules)
        assert len(panels["after"]) == 2


class TestAscii:
    def test_bar_chart_renders_values(self):
        text = bar_chart({"failed": 0.25, "completed": 0.75}, title="Fig5")
        assert "Fig5" in text and "25.0%" in text and "█" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="t") == "t"

    def test_cdf_chart(self):
        cdf = empirical_cdf(np.asarray([0.0, 0.0, 50.0, 100.0]))
        text = cdf_chart(cdf, [0, 50, 100])
        assert "≤0" in text and "≤100" in text

    def test_box_chart(self):
        text = box_chart({"pai": box_stats([1.0, 2.0, 3.0])})
        assert "pai" in text and "median" in text

    def test_series_table(self):
        text = series_table("supp", [0.01, 0.05], {"PAI": [100, 10]})
        assert "PAI" in text and "0.05" in text

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError):
            series_table("x", [1], {"s": [1, 2]})
