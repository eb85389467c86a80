"""Property tests for the linear-time ingest kernels (DESIGN.md §9).

Each kernel is checked against the plainer statement it replaced:
edge counting against ``np.searchsorted(side="right")`` plus the
special-bin overlays, the sorted-array fit against ``np.quantile`` and
the ``np.unique`` mode,
CSR assembly against :meth:`TransactionDatabase.from_itemsets` of the
row sets, tier labelling against a per-row lookup, and the kept item
counts against a fresh ``np.bincount``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Item, ItemVocabulary, TransactionDatabase
from repro.dataframe import BooleanColumn, CategoricalColumn, ColumnTable
from repro.preprocess import BinningSpec, Discretizer, FeatureSpec, TransactionEncoder
from repro.preprocess.aggregation import compute_activity_tiers
from repro.preprocess.binning import _sorted_quantiles, equal_width_edges
from repro.preprocess.encoding import _ranges_increase
from repro.preprocess.pipeline import _tier_column

#: few distinct values, so quantile edges collapse and values hit edges
POOL = [0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 600.0, -4.0, 1e9]

fit_values = st.lists(
    st.one_of(st.sampled_from(POOL), st.floats(-1e6, 1e6, allow_nan=False)),
    min_size=0,
    max_size=60,
)
specs = st.builds(
    BinningSpec,
    scheme=st.sampled_from(["equal_frequency", "equal_width"]),
    n_bins=st.integers(1, 7),
    zero_label=st.sampled_from([None, "0%"]),
    std_label=st.sampled_from([None, "Std"]),
    std_threshold=st.sampled_from([0.1, 0.3, 1.0]),
)


def searchsorted_codes(disc: Discretizer, arr: np.ndarray) -> np.ndarray:
    """The binary-search statement of ``transform_codes``."""
    spec, labels = disc.spec, disc.code_labels()
    codes = np.searchsorted(disc.edges, arr, side="right").astype(np.int64)
    if disc._fit_min is not None:
        codes[arr == disc._fit_min] = 0
    if disc.std_value is not None:
        codes[arr == disc.std_value] = labels.index(spec.std_label)
    if spec.zero_label is not None:
        codes[arr == 0.0] = len(disc.edges) + 1
    codes[np.isnan(arr)] = -1
    return codes


@settings(max_examples=300, deadline=None)
@given(fit=fit_values, spec=specs, extra=fit_values)
def test_edge_counts_equal_searchsorted_with_overlays(fit, spec, extra):
    disc = Discretizer(spec).fit(np.asarray(fit + [np.nan], dtype=float))
    # every edge, the fit minimum, the specials, ±inf and NaN as inputs
    probes = [*fit, *extra, *disc.edges.tolist(), 0.0, -0.0, np.inf, -np.inf, np.nan]
    if disc._fit_min is not None:
        probes.append(disc._fit_min)
    arr = np.asarray(probes, dtype=float)
    codes = disc.transform_codes(arr)
    assert codes.dtype == np.int8
    assert codes.tolist() == searchsorted_codes(disc, arr).tolist()


quantile_values = st.lists(
    st.one_of(
        st.sampled_from([*POOL, -0.0, np.inf, -np.inf]),
        st.floats(allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


def same_floats(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal as floats: NaN equals NaN, and 0.0 equals -0.0."""
    return got.shape == expected.shape and bool(
        np.all((got == expected) | (np.isnan(got) & np.isnan(expected)))
    )


@settings(max_examples=300, deadline=None)
@given(values=quantile_values, n_bins=st.integers(1, 7))
@example(values=[0.0, -0.0, 1.0, -0.0], n_bins=4)
def test_sorted_quantiles_equal_np_quantile(values, n_bins):
    arr = np.asarray(values, dtype=float)
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.quantile(arr, qs)
        got = _sorted_quantiles(np.sort(arr), qs)
    assert same_floats(got, expected)
    assert not np.signbit(got[got == 0.0]).any()  # every zero edge is +0.0


def reference_fit(spec: BinningSpec, values: np.ndarray) -> Discretizer:
    """The fit stated with ``np.unique`` + ``argmax`` for the Std mode and
    ``np.quantile`` / min / max over what remains."""
    arr = values[~np.isnan(values)]
    if spec.zero_label is not None:
        arr = arr[arr != 0.0]
    disc = Discretizer(spec)
    disc.std_value = None
    if spec.std_label is not None and arr.size:
        uniq, counts = np.unique(arr, return_counts=True)
        mode = int(np.argmax(counts))
        if counts[mode] / arr.size >= spec.std_threshold:
            disc.std_value = float(uniq[mode])
            arr = arr[arr != disc.std_value]
    disc._fit_min = float(arr.min()) if arr.size else None
    disc._fit_max = float(arr.max()) if arr.size else None
    if spec.scheme == "equal_width":
        disc.edges = equal_width_edges(arr, spec.n_bins)
    elif arr.size:
        disc.edges = np.quantile(arr, np.linspace(0, 1, spec.n_bins + 1)[1:-1])
    else:
        disc.edges = np.asarray([], dtype=np.float64)
    labels = [f"Bin{k + 1}" for k in range(len(disc.edges) + 1)]
    if spec.zero_label is not None:
        labels.append(spec.zero_label)
    if disc.std_value is not None and spec.std_label is not None:
        labels.append(spec.std_label)
    disc._code_labels = labels
    return disc


@settings(max_examples=300, deadline=None)
@given(values=quantile_values, spec=specs, extra=fit_values)
def test_sorted_fit_equals_the_unique_and_quantile_fit(values, spec, extra):
    arr = np.asarray([*values, np.nan], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        disc = Discretizer(spec).fit(arr)
        expected = reference_fit(spec, arr)
    assert same_floats(disc.edges, expected.edges)
    assert not np.signbit(disc.edges[disc.edges == 0.0]).any()
    assert disc.std_value == expected.std_value
    assert (disc._fit_min, disc._fit_max) == (expected._fit_min, expected._fit_max)
    assert disc.code_labels() == expected.code_labels()
    probes = np.asarray([*values, *extra, 0.0, -0.0, np.inf, -np.inf, np.nan])
    assert disc.transform_codes(probes).tolist() == (
        expected.transform_codes(probes).tolist()
    )


def test_fit_calls_neither_np_unique_nor_np_quantile(monkeypatch):
    # a bare np.unique (np.quantile calls one) imports numpy.ma
    def refuse(*args, **kwargs):
        raise AssertionError("fit must read its statistics from one sort")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "quantile", refuse)
    values = np.asarray([600.0] * 6 + [0.0, 1.0, 2.0, 3.0, np.nan])
    disc = Discretizer(BinningSpec(zero_label="0", std_label="Std")).fit(values)
    assert disc.std_value == 600.0
    assert disc.edges.tolist() == [1.5, 2.0, 2.5]


# -- CSR assembly ------------------------------------------------------------------

NAMES = ["Freq User", "Rare", "T4", "V100", "Multi-GPU"]


@st.composite
def encoded_tables(draw):
    """A table of label, categorical and flag columns whose items may
    coincide across specs, plus an optional vocabulary interleaving them."""
    n = draw(st.integers(0, 25))
    cell = st.one_of(st.none(), st.sampled_from(NAMES))
    data = {
        "user": draw(st.lists(cell, min_size=n, max_size=n)),
        "gpu": draw(st.lists(cell, min_size=n, max_size=n)),
        "multi": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        "freq": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }
    specs = [
        FeatureSpec("user", kind="label"),
        FeatureSpec("gpu", item_feature="GPU", kind="categorical"),
        FeatureSpec("multi", kind="flag", true_label="Multi-GPU"),
        FeatureSpec("freq", kind="flag", true_label=draw(st.sampled_from(NAMES))),
        FeatureSpec("gpu", item_feature="Card", kind="label"),
    ]
    specs = draw(st.permutations(specs))[: draw(st.integers(1, len(specs)))]
    vocabulary = None
    if draw(st.booleans()):
        known = [Item.flag(name) for name in NAMES] + [Item("GPU", v) for v in NAMES]
        vocabulary = ItemVocabulary(draw(st.permutations(known)))
    return data, specs, vocabulary


def row_sets(data, specs):
    """Sec. III-E per row: the items each spec contributes to each job."""
    n = len(data["user"])
    rows = [set() for _ in range(n)]
    for spec in specs:
        for row, value in zip(rows, data[spec.column]):
            if spec.kind == "label" and value is not None:
                row.add(Item.flag(value))
            elif spec.kind == "categorical" and value is not None:
                row.add(Item(spec.feature_name, value))
            elif spec.kind == "flag" and value:
                row.add(Item.flag(spec.true_label))
    return rows


@settings(max_examples=300, deadline=None)
@given(case=encoded_tables())
def test_assembly_equals_the_itemset_oracle(case):
    data, specs, vocabulary = case
    table = ColumnTable({
        name: (BooleanColumn if name in ("multi", "freq") else
               CategoricalColumn.from_values)(values)
        for name, values in data.items()
    })
    db = TransactionEncoder(specs).fit(table).transform(table, vocabulary)
    oracle = TransactionDatabase.from_itemsets(
        [list(row) for row in row_sets(data, specs)],
        vocabulary=ItemVocabulary(db.vocabulary),
    )
    assert np.array_equal(db.indptr, oracle.indptr)
    assert np.array_equal(db.indices, oracle.indices)
    for j in range(len(db)):
        assert np.all(np.diff(db.transaction(j)) > 0)


def test_overlapping_ranges_are_detected_from_the_tables():
    assert _ranges_increase([np.array([0, 1]), np.array([2]), np.array([3, 4])])
    # a code never seen in the data holds no id
    absent = np.iinfo(np.int32).max
    assert _ranges_increase([np.array([0, absent, 1]), np.array([2])])
    # a label equal to an earlier flag reuses that flag's id
    assert not _ranges_increase([np.array([0]), np.array([1, 0])])
    # a supplied vocabulary can interleave two specs' ids
    assert not _ranges_increase([np.array([0, 2]), np.array([1, 3])])


# -- tiers -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    categories=st.permutations("abcdefgh"),
    codes=st.lists(st.integers(-1, 7), max_size=40),
    leading_missing=st.integers(0, 5),
)
def test_tiers_keep_first_appearance_order(categories, codes, leading_missing):
    # category order need not be row order, and the leading rows may be
    # missing (code -1)
    codes = [-1] * leading_missing + codes
    source = CategoricalColumn(np.asarray(codes, dtype=np.int32), list(categories))
    fitted = compute_activity_tiers(ColumnTable({"user": source}), "user",
                                    frequent_label="F", moderate_label="M",
                                    rare_label="R")
    tiers = _tier_column(source, fitted)
    expected = CategoricalColumn.from_values(
        [None if code < 0 else fitted.tier_of(categories[code]) for code in codes]
    )
    assert tiers.categories == expected.categories
    assert tiers.to_list() == expected.to_list()


# -- item counts -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.sets(st.integers(0, 11), max_size=6), max_size=30),
    keeps=st.lists(st.sets(st.integers(0, 11)), min_size=1, max_size=3),
    counted_first=st.booleans(),
)
def test_kept_counts_equal_a_fresh_bincount(rows, keeps, counted_first):
    vocabulary = ItemVocabulary(Item.flag(f"i{k}") for k in range(12))
    db = TransactionDatabase.from_itemsets([sorted(r) for r in rows], vocabulary)
    if counted_first:
        db.item_support_counts()
    for keep in keeps:
        db = db.restrict_items(keep)
        counts = db.item_support_counts()
        assert not counts.flags.writeable
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(db.indices, minlength=12).tolist()


def test_counts_follow_a_grown_vocabulary():
    vocabulary = ItemVocabulary([Item.flag("a")])
    db = TransactionDatabase.from_itemsets([["a"], ["a"]], vocabulary)
    assert db.item_support_counts().tolist() == [2]
    vocabulary.intern(Item.flag("b"))
    assert db.item_support_counts().tolist() == [2, 0]
