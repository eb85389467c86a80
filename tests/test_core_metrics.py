"""Unit + property tests for the scalar rule metrics (Eqs. 1–4), the
reference the vectorised scoring is checked against."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .oracles import compute_metrics, confidence, conviction, leverage, lift


class TestConfidence:
    def test_definition(self):
        assert confidence(0.1, 0.2) == pytest.approx(0.5)

    def test_zero_antecedent(self):
        assert confidence(0.0, 0.0) == 0.0

    def test_paper_example(self):
        # "a rule with support 0.1, confidence 0.8" → supp(X) = 0.125
        assert confidence(0.1, 0.125) == pytest.approx(0.8)


class TestLift:
    def test_independence_is_one(self):
        assert lift(0.06, 0.2, 0.3) == pytest.approx(1.0)

    def test_paper_example(self):
        # supp 0.1, conf 0.8, lift 2 → supp(Y) = 0.4
        assert lift(0.1, 0.125, 0.4) == pytest.approx(2.0)

    def test_symmetry(self):
        assert lift(0.05, 0.1, 0.5) == pytest.approx(lift(0.05, 0.5, 0.1))

    def test_zero_sides(self):
        assert lift(0.0, 0.0, 0.5) == 0.0


class TestLeverage:
    def test_zero_under_independence(self):
        assert leverage(0.06, 0.2, 0.3) == pytest.approx(0.0)

    def test_positive_dependence(self):
        assert leverage(0.1, 0.2, 0.3) == pytest.approx(0.04)


class TestConviction:
    def test_perfect_implication_infinite(self):
        assert conviction(0.2, 0.2, 0.5) == math.inf

    def test_independence_is_one(self):
        assert conviction(0.06, 0.2, 0.3) == pytest.approx(1.0)


class TestComputeMetrics:
    def test_bundle_consistency(self):
        m = compute_metrics(0.1, 0.125, 0.4)
        assert m.support == 0.1
        assert m.confidence == pytest.approx(0.8)
        assert m.lift == pytest.approx(2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            compute_metrics(0.5, -0.1, 0.5)


# -- properties over consistent support triples ----------------------------------

@st.composite
def support_triple(draw):
    """(supp_xy, supp_x, supp_y) consistent with a real database."""
    supp_x = draw(st.floats(min_value=0.01, max_value=1.0))
    supp_y = draw(st.floats(min_value=0.01, max_value=1.0))
    upper = min(supp_x, supp_y)
    lower = max(0.0, supp_x + supp_y - 1.0)  # inclusion–exclusion floor
    lower = min(lower, upper)  # guard float rounding at the boundary
    supp_xy = draw(st.floats(min_value=lower, max_value=upper))
    return supp_xy, supp_x, supp_y


@given(t=support_triple())
@settings(max_examples=200, deadline=None)
def test_metric_identities(t):
    supp_xy, supp_x, supp_y = t
    m = compute_metrics(supp_xy, supp_x, supp_y)
    # conf = supp_xy / supp_x
    assert m.confidence == pytest.approx(supp_xy / supp_x)
    # lift = conf / supp_y (Eq. 4's first form)
    assert m.lift == pytest.approx(m.confidence / supp_y, rel=1e-9)
    # confidence bounded
    assert 0.0 <= m.confidence <= 1.0 + 1e-9
    # leverage sign agrees with lift vs 1
    if m.lift > 1.0 + 1e-9:
        assert m.leverage > -1e-12
    if m.lift < 1.0 - 1e-9:
        assert m.leverage < 1e-12


@given(t=support_triple())
@settings(max_examples=200, deadline=None)
def test_lift_symmetry_property(t):
    supp_xy, supp_x, supp_y = t
    assert lift(supp_xy, supp_x, supp_y) == pytest.approx(
        lift(supp_xy, supp_y, supp_x)
    )
