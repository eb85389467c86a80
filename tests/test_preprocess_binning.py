"""Unit + property tests for discretisation (Sec. III-E binning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess import (
    BinningSpec,
    Discretizer,
    equal_width_edges,
)

from .oracles import bin_label


def rowwise(d: Discretizer, values) -> list:
    """Sec. III-E per row: the oracle's label of every value."""
    return [bin_label(v, d) for v in np.asarray(values, dtype=float).tolist()]


class TestEdges:
    def test_equal_width_uniform_spacing(self):
        edges = equal_width_edges(np.asarray([0.0, 100.0]), 4)
        assert edges.tolist() == [25.0, 50.0, 75.0]

    def test_constant_values_no_edges(self):
        assert equal_width_edges(np.asarray([5.0, 5.0]), 4).size == 0


class TestDiscretizer:
    def test_quartile_labels(self):
        values = np.arange(100, dtype=float)
        labels = Discretizer().fit_transform(values)
        assert labels[0] == "Bin1"
        assert labels[99] == "Bin4"
        counts = {b: labels.count(b) for b in set(labels)}
        # roughly equal occupancy
        assert all(20 <= c <= 30 for c in counts.values())

    def test_nan_maps_to_none(self):
        d = Discretizer().fit(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert d.transform(np.asarray([np.nan]))[0] is None

    def test_zero_label(self):
        spec = BinningSpec(zero_label="0%")
        values = np.asarray([0.0] * 50 + list(range(1, 51)), dtype=float)
        labels = Discretizer(spec).fit_transform(values)
        assert labels[:50] == ["0%"] * 50
        assert labels[50] == "Bin1"

    def test_std_label_detected(self):
        # half the jobs request exactly 600 CPUs — the paper's Std bin
        spec = BinningSpec(std_label="Std", std_threshold=0.3)
        values = np.asarray([600.0] * 50 + list(np.linspace(1, 1200, 50)))
        d = Discretizer(spec).fit(values)
        assert d.std_value == 600.0
        labels = d.transform(np.asarray([600.0, 3.0]))
        assert labels[0] == "Std"
        assert labels[1] == "Bin1"

    def test_std_not_detected_below_threshold(self):
        spec = BinningSpec(std_label="Std", std_threshold=0.5)
        values = np.asarray([600.0] * 10 + list(np.linspace(1, 1200, 90)))
        assert Discretizer(spec).fit(values).std_value is None

    def test_zero_and_std_combined(self):
        spec = BinningSpec(zero_label="0GB", std_label="Std", std_threshold=0.3)
        values = np.asarray([0.0] * 30 + [8.0] * 40 + list(np.linspace(1, 32, 30)))
        d = Discretizer(spec).fit(values)
        out = d.transform(np.asarray([0.0, 8.0, 1.5]))
        assert out[0] == "0GB"
        assert out[1] == "Std"
        assert out[2].startswith("Bin")

    def test_ties_at_minimum_stay_in_bin1(self):
        # heavy mass at the minimum (zero queue delays) must label Bin1
        values = np.asarray([0.0] * 60 + list(np.linspace(1, 100, 40)))
        labels = Discretizer().fit_transform(values)
        assert labels[0] == "Bin1"

    def test_max_value_in_top_bin(self):
        values = np.linspace(0, 100, 101)
        d = Discretizer().fit(values)
        assert d.transform(np.asarray([100.0]))[0] == f"Bin{d.n_regular_bins()}"

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Discretizer().transform(np.asarray([1.0]))

    def test_bin_ranges_cover_data(self):
        values = np.linspace(10, 50, 100)
        d = Discretizer().fit(values)
        ranges = d.bin_ranges()
        assert ranges["Bin1"][0] == pytest.approx(10.0)
        assert ranges[f"Bin{d.n_regular_bins()}"][1] == pytest.approx(50.0)

    def test_bin_ranges_include_specials(self):
        spec = BinningSpec(zero_label="0%", std_label="Std", std_threshold=0.2)
        values = np.asarray([0.0] * 30 + [7.0] * 30 + list(np.linspace(1, 20, 40)))
        d = Discretizer(spec).fit(values)
        ranges = d.bin_ranges()
        assert ranges["0%"] == (0.0, 0.0)
        assert ranges["Std"] == (7.0, 7.0)

    def test_equal_width_scheme(self):
        spec = BinningSpec(scheme="equal_width")
        values = np.asarray([0.0, 1.0, 2.0, 100.0])
        labels = Discretizer(spec).fit_transform(values)
        # long tail: low values crowd Bin1 (the paper's argument against
        # equal width for runtime-like features)
        assert labels[:3] == ["Bin1", "Bin1", "Bin1"]
        assert labels[3] == "Bin4"

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BinningSpec(n_bins=0)
        with pytest.raises(ValueError):
            BinningSpec(std_threshold=0.0)
        with pytest.raises(ValueError):
            BinningSpec(scheme="fancy")


# -- properties -------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(values=st.lists(finite_floats, min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_every_value_gets_a_label(values):
    arr = np.asarray(values)
    labels = Discretizer().fit_transform(arr)
    assert len(labels) == len(values)
    assert all(label is not None for label in labels)


@given(values=st.lists(finite_floats, min_size=4, max_size=200))
@settings(max_examples=100, deadline=None)
def test_labels_monotone_in_value(values):
    """Sorting values must sort their bin indices (monotone binning)."""
    arr = np.sort(np.asarray(values))
    labels = Discretizer().fit_transform(arr)
    indices = [int(label[3:]) for label in labels]
    assert indices == sorted(indices)


@given(
    values=st.lists(finite_floats, min_size=10, max_size=300),
    n_bins=st.integers(2, 8),
)
@settings(max_examples=100, deadline=None)
def test_equal_frequency_balance(values, n_bins):
    """With all-distinct values, no bin exceeds ~2/n of the mass."""
    arr = np.asarray(sorted(set(values)), dtype=float)
    if arr.size < n_bins:
        return
    labels = Discretizer(BinningSpec(n_bins=n_bins)).fit_transform(arr)
    counts = {b: labels.count(b) for b in set(labels)}
    assert max(counts.values()) <= int(np.ceil(2.2 * arr.size / n_bins))


class TestZeroMinRegression:
    """The zero special bin must win over Bin1 when the minimum is 0.

    With an all-zero minimum and heavy ties, quantile edges collapse onto
    the minimum; ``searchsorted(side="right")`` then lands exact zeros
    past the collapsed duplicate edges.  Both the fit-min clamp and the
    zero overlay apply to the same rows — the zero label must take
    precedence over Bin1, as it does row by row in :mod:`tests.oracles`.
    """

    VALUES = np.asarray([0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 9.0])

    def _fitted(self):
        return Discretizer(BinningSpec(zero_label="0GB")).fit(self.VALUES)

    def test_zero_wins_over_bin1(self):
        d = self._fitted()
        labels = d.transform(self.VALUES)
        assert labels[:4] == ["0GB"] * 4
        assert "Bin1" not in labels[:4]

    def test_codes_match_rowwise(self):
        d = self._fitted()
        assert d.transform(self.VALUES) == rowwise(d, self.VALUES)

    def test_holdout_zero_still_special(self):
        # zeros seen only at transform time (not fit) get the same label
        d = Discretizer(BinningSpec(zero_label="0GB")).fit(
            np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        )
        holdout = np.asarray([0.0, 0.5, 7.0, np.nan])
        assert d.transform(holdout) == rowwise(d, holdout)
        assert d.transform(holdout)[0] == "0GB"

    def test_fit_min_clamp_without_zero_label(self):
        # nonzero minimum with collapsed edges: ties at the min stay Bin1
        values = np.asarray([2.0, 2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 9.0])
        d = Discretizer().fit(values)
        labels = d.transform(values)
        assert labels[:4] == ["Bin1"] * 4
        assert labels == rowwise(d, values)

    def test_code_labels_roundtrip(self):
        d = self._fitted()
        codes = d.transform_codes(self.VALUES)
        labels = d.code_labels()
        assert [labels[c] for c in codes] == d.transform(self.VALUES)
