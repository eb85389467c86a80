"""Columnar ingest equivalence: vectorised paths vs the Sec. III-E oracle.

The columnar ingest kernel (integer-coded binning/encoding, vectorised
tier columns, cached preprocess stage, batched trace generation) must
give the answer of the per-row statement of preprocessing in
:func:`tests.oracles.preprocess_rows`: on any table,
:meth:`TracePreprocessor.run` produces a byte-identical transaction
database — same CSR arrays, same vocabulary interning order, same
content fingerprint — and drops the same skewed items.  (Test names
with ``legacy`` date from the frozen per-row twin the oracle replaced.)
"""

import numpy as np
import pytest

from repro.dataframe import CategoricalColumn, ColumnTable, NumericColumn
from repro.preprocess import (
    BinningSpec,
    Discretizer,
    FeatureSpec,
    TracePreprocessor,
    TransactionEncoder,
    clear_preprocess_cache,
    preprocess_cache_stats,
)
from repro.preprocess.pipeline import LRUCache, TierSpec
from repro.traces import (
    PAIConfig,
    PhillyConfig,
    SuperCloudConfig,
    generate_pai,
    generate_philly,
    generate_supercloud,
    pai_preprocessor,
    philly_preprocessor,
    supercloud_preprocessor,
)

from .conftest import SMALL_N
from .oracles import bin_label, preprocess_rows


def assert_db_equal(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert [str(i) for i in a.vocabulary] == [str(i) for i in b.vocabulary]
    assert a.fingerprint() == b.fingerprint()


def assert_matches_oracle(pre, table):
    vec = pre.run(table, use_cache=False)
    database, dropped, _tiers = preprocess_rows(pre, table)
    assert_db_equal(vec.database, database)
    assert vec.dropped_items == dropped
    return vec


# --------------------------------------------------------------------------
# full pipeline: vectorised == oracle on all three traces
# --------------------------------------------------------------------------

class TestPipelineEquivalence:
    def test_pai(self, pai_table):
        pre = pai_preprocessor()
        vec = assert_matches_oracle(pre, pai_table)
        # every value lies inside the reported range of its bin label
        for spec in pre.features:
            if spec.column not in vec.bin_ranges:
                continue
            values = vec.table[spec.column].values
            disc = Discretizer(spec.binning).fit(values)
            for value in values.tolist():
                label = bin_label(value, disc)
                if label is not None:
                    low, high = vec.bin_ranges[spec.column][label]
                    assert low <= value <= high, (spec.column, label, value)

    def test_supercloud(self, supercloud_table):
        assert_matches_oracle(supercloud_preprocessor(), supercloud_table)

    def test_philly(self, philly_table):
        assert_matches_oracle(philly_preprocessor(), philly_table)

    def test_pai_with_model_column(self, pai_table):
        sub = pai_table.filter_mask(pai_table["model_name"].codes >= 0)
        assert_matches_oracle(pai_preprocessor(include_model=True), sub)

    @pytest.mark.parametrize("generate, config, preprocessor", [
        (generate_pai, PAIConfig, pai_preprocessor),
        (generate_supercloud, SuperCloudConfig, supercloud_preprocessor),
        (generate_philly, PhillyConfig, philly_preprocessor),
    ], ids=["pai", "supercloud", "philly"])
    def test_unscheduled_tables(self, generate, config, preprocessor):
        table = generate(config(n_jobs=SMALL_N, use_scheduler=False))
        assert_matches_oracle(preprocessor(), table)

    def test_tier_columns_match_legacy(self, pai_table):
        pre = pai_preprocessor()
        vec = pre.run(pai_table, use_cache=False)
        _database, _dropped, tiers = preprocess_rows(pre, pai_table)
        for name in ("user_tier", "group_tier"):
            labels = tiers[name]
            assert vec.table[name].to_list() == labels
            # categories in order of first appearance
            assert vec.table[name].categories == list(
                dict.fromkeys(label for label in labels if label is not None)
            )


# --------------------------------------------------------------------------
# randomised BinningSpec sweep: int-coded encoding == per-row labels
# --------------------------------------------------------------------------

def encoded_rows(features, table):
    """The oracle's encoding alone: no tiers, and no item is skewed."""
    pre = TracePreprocessor(features=features, skew_max_share=1.0)
    return preprocess_rows(pre, table)[0]


def _random_spec(rng: np.random.Generator) -> BinningSpec:
    kwargs = {"n_bins": int(rng.integers(2, 12))}
    if rng.random() < 0.4:
        kwargs["zero_label"] = "0X"
    if rng.random() < 0.4:
        kwargs["std_label"] = "Std"
        kwargs["std_threshold"] = float(rng.uniform(0.1, 0.5))
    if rng.random() < 0.3:
        kwargs["scheme"] = "equal_width"
    return BinningSpec(**kwargs)


class TestRandomisedEncoding:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_specs_over_trace_columns(self, pai_table, seed):
        rng = np.random.default_rng(seed)
        numeric = [
            name
            for name in pai_table.column_names
            if isinstance(pai_table[name], NumericColumn)
        ]
        chosen = rng.choice(numeric, size=3, replace=False)
        features = [
            FeatureSpec(str(name), item_feature=str(name), binning=_random_spec(rng))
            for name in chosen
        ]
        assert_db_equal(
            TransactionEncoder(features).fit_transform(pai_table),
            encoded_rows(features, pai_table),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_tie_columns(self, seed):
        # many repeated values → collapsed quantile edges, the regime where
        # searchsorted and the scalar elif chain could disagree
        rng = np.random.default_rng(100 + seed)
        n = 500
        values = rng.choice([0.0, 0.0, 1.0, 5.0, 5.0, 9.0, np.nan], size=n)
        table = ColumnTable({"x": NumericColumn(values)})
        spec = BinningSpec(zero_label="0X", std_label="Std", std_threshold=0.3)
        features = [FeatureSpec("x", item_feature="X", binning=spec)]
        assert_db_equal(
            TransactionEncoder(features).fit_transform(table),
            encoded_rows(features, table),
        )


# --------------------------------------------------------------------------
# vectorised tier columns
# --------------------------------------------------------------------------

class TestTierColumns:
    def test_output_column_collision_raises(self):
        table = ColumnTable(
            {
                "user": CategoricalColumn.from_values(["a", "b", "a", "b"] * 25),
                "user_tier": NumericColumn(np.zeros(100)),
            }
        )
        pre = TracePreprocessor(
            features=[FeatureSpec("user_tier", kind="label")],
            tier_specs=[TierSpec("user", "user_tier")],
        )
        with pytest.raises(ValueError, match="user_tier"):
            pre.run(table, use_cache=False)


# --------------------------------------------------------------------------
# preprocess result cache
# --------------------------------------------------------------------------

class TestPreprocessCache:
    def test_hit_on_same_content(self, pai_table):
        clear_preprocess_cache()
        pre = pai_preprocessor()
        first, status1 = pre.run_with_status(pai_table)
        second, status2 = pre.run_with_status(pai_table.copy())
        assert (status1, status2) == ("miss", "hit")
        assert second is first
        stats = preprocess_cache_stats()
        assert stats.hits >= 1 and stats.misses >= 1

    def test_off_when_disabled(self, pai_table):
        clear_preprocess_cache()
        pre = pai_preprocessor()
        _, status = pre.run_with_status(pai_table, use_cache=False)
        assert status == "off"
        assert preprocess_cache_stats().size == 0

    def test_distinct_specs_miss(self, pai_table):
        clear_preprocess_cache()
        r1, s1 = pai_preprocessor().run_with_status(pai_table)
        r2, s2 = pai_preprocessor(include_model=True).run_with_status(pai_table)
        assert (s1, s2) == ("miss", "miss")
        assert r1 is not r2

    def test_legacy_path_bypasses_cache(self, pai_table):
        # an uncached run neither reads nor fills the cache
        clear_preprocess_cache()
        before = preprocess_cache_stats()
        pai_preprocessor().run(pai_table, use_cache=False)
        after = preprocess_cache_stats()
        # counters are lifetime; the uncached path must not move them
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert after.size == 0

    def test_lru_eviction(self):
        cache = LRUCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put((key,), key)
        stats = cache.stats()
        assert (stats.size, stats.evictions) == (2, 1)
        # the oldest entry was evicted: looking it up is a miss
        assert cache.get(("a",)) is None
        assert cache.get(("c",)) == "c"

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_spec_key_deterministic(self):
        assert pai_preprocessor().spec_key() == pai_preprocessor().spec_key()
        assert (
            pai_preprocessor().spec_key()
            != pai_preprocessor(include_model=True).spec_key()
        )


# --------------------------------------------------------------------------
# table fingerprint (the cache key's content half)
# --------------------------------------------------------------------------

class TestTableFingerprint:
    def test_stable_across_copies(self, pai_table):
        assert pai_table.fingerprint() == pai_table.copy().fingerprint()

    def test_changes_on_edit(self):
        t1 = ColumnTable({"x": NumericColumn(np.arange(10.0))})
        t2 = t1.copy()
        t2.add_column("y", NumericColumn(np.zeros(10)))
        assert t1.fingerprint() != t2.fingerprint()
        t3 = ColumnTable({"x": NumericColumn(np.arange(10.0) + 1)})
        assert t1.fingerprint() != t3.fingerprint()


# --------------------------------------------------------------------------
# columnar PAI generation
# --------------------------------------------------------------------------

class TestColumnarGeneration:
    @pytest.fixture(scope="class")
    def tables(self):
        obj = generate_pai(PAIConfig(n_jobs=4000, use_scheduler=False))
        col = generate_pai(PAIConfig(n_jobs=4000, use_scheduler=False, columnar=True))
        return obj, col

    def test_schema_matches_object_path(self, tables):
        obj, col = tables
        assert obj.column_names == col.column_names
        for name in obj.column_names:
            assert type(obj[name]) is type(col[name]), name

    def test_deterministic(self, tables):
        _, col = tables
        again = generate_pai(
            PAIConfig(n_jobs=4000, use_scheduler=False, columnar=True)
        )
        assert col.fingerprint() == again.fingerprint()

    def test_archetype_mixture_close(self, tables):
        obj, col = tables
        n = len(obj)
        for table in (obj, col):
            arch = table["archetype"]
            share = {
                c: float(arch.equals_scalar(c).mean()) for c in arch.categories
            }
            assert share["debug_template"] == pytest.approx(0.30, abs=0.05)
            assert share["production_train"] == pytest.approx(0.33, abs=0.05)
        assert n == len(col)

    def test_zero_sm_mass(self, tables):
        # Fig. 4: PAI has a large exactly-zero SM-utilisation mass
        _, col = tables
        zero_share = float((col["sm_util"].values == 0.0).mean())
        assert 0.35 <= zero_share <= 0.65

    def test_preprocess_equivalence_on_columnar_table(self, tables):
        _, col = tables
        assert_matches_oracle(pai_preprocessor(), col)

    def test_columnar_with_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            PAIConfig(columnar=True, use_scheduler=True)
