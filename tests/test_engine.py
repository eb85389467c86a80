"""Tests for the unified mining engine: serial mining, cache, instrumentation."""

import pytest

from repro.core import MiningConfig, TransactionDatabase, fpgrowth
from repro.engine import (
    EngineStats,
    ItemsetCache,
    MiningEngine,
    StageStats,
    default_engine,
)
from repro.traces import get_trace


# -- serial mining ----------------------------------------------------------------

ALGORITHM_NAMES = ["fpgrowth", "apriori", "eclat"]


class TestSerialMining:
    @pytest.fixture(scope="class")
    def trace_dbs(self, supercloud_db, philly_db):
        return {"supercloud": supercloud_db, "philly": philly_db}

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_algorithms_agree(self, trace_dbs, algorithm):
        """fpgrowth/apriori/eclat through the engine are bit-exact."""
        config = MiningConfig(min_support=0.05, max_len=3, algorithm=algorithm)
        for name, db in trace_dbs.items():
            reference = fpgrowth(db, 0.05, 3)
            mined = MiningEngine(cache=False).mine(db, config)
            assert mined.counts == reference, f"{algorithm} on {name}"
            assert len(mined) > 0

    def test_empty_database(self):
        db = TransactionDatabase.from_itemsets([])
        engine = MiningEngine(cache=False)
        assert len(engine.mine(db, MiningConfig())) == 0

    def test_backend_argument_rejected(self):
        """Serial is the only plan: asking for another one fails loudly."""
        with pytest.raises(TypeError):
            MiningEngine(backend="process")


# -- itemset cache ---------------------------------------------------------------


class TestItemsetCache:
    def test_hit_after_miss(self, toy_db):
        engine = MiningEngine()
        config = MiningConfig(min_support=0.4)
        first, status1 = engine.mine_with_status(toy_db, config)
        second, status2 = engine.mine_with_status(toy_db, config)
        assert (status1, status2) == ("miss", "hit")
        assert second is first
        stats = engine.cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_content_addressed_across_instances(self, toy_db):
        """A rebuilt database with identical content hits the cache."""
        engine = MiningEngine()
        clone = TransactionDatabase.from_itemsets(
            [
                [str(toy_db.vocabulary.item_of(i)) for i in ids]
                for ids in toy_db.iter_id_transactions()
            ]
        )
        assert clone.fingerprint() == toy_db.fingerprint()
        engine.mine(toy_db, MiningConfig(min_support=0.4))
        _, status = engine.mine_with_status(clone, MiningConfig(min_support=0.4))
        assert status == "hit"

    def test_config_projection(self, toy_db):
        """Rule-level knobs share one itemset entry; mining knobs do not."""
        engine = MiningEngine()
        engine.mine(toy_db, MiningConfig(min_support=0.4, min_lift=1.5))
        _, status = engine.mine_with_status(
            toy_db, MiningConfig(min_support=0.4, min_lift=3.0)
        )
        assert status == "hit"
        _, status = engine.mine_with_status(toy_db, MiningConfig(min_support=0.6))
        assert status == "miss"

    def test_disabled_cache(self, toy_db):
        engine = MiningEngine(cache=False)
        _, status = engine.mine_with_status(toy_db, MiningConfig(min_support=0.4))
        assert status == "off"
        assert engine.cache_stats() is None

    def test_lru_eviction(self):
        cache = ItemsetCache(max_entries=2)
        engine = MiningEngine(cache=cache)
        dbs = [
            TransactionDatabase.from_itemsets([[f"x{i}", "y"], ["y"]])
            for i in range(3)
        ]
        for db in dbs:
            engine.mine(db, MiningConfig(min_support=0.5))
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        # the first db was evicted: mining it again is a miss
        _, status = engine.mine_with_status(dbs[0], MiningConfig(min_support=0.5))
        assert status == "miss"

    def test_shared_cache_between_engines(self, toy_db):
        cache = ItemsetCache()
        a = MiningEngine(cache=cache)
        b = MiningEngine(cache=cache)
        a.mine(toy_db, MiningConfig(min_support=0.4))
        _, status = b.mine_with_status(toy_db, MiningConfig(min_support=0.4))
        assert status == "hit"

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ItemsetCache(max_entries=0)


# -- staged pipeline + instrumentation -------------------------------------------


class TestAnalyzePipeline:
    @pytest.fixture()
    def definition(self):
        return get_trace("supercloud")

    def test_stats_schema(self, supercloud_table, definition):
        engine = MiningEngine()
        result = engine.analyze(
            definition.make_preprocessor(),
            supercloud_table,
            {"failure": "Failed"},
            MiningConfig(),
        )
        stats = result.stats
        assert isinstance(stats, EngineStats)
        assert [s.name for s in stats.stages] == [
            "preprocess",
            "mine",
            "generate-rules",
            "prune",
        ]
        d = stats.as_dict()
        assert d["backend"] == "serial"
        assert {"name", "seconds", "n_in", "n_out", "cache", "kernels"} == set(
            d["stages"][0]
        )
        assert stats.stage("mine").n_in == len(supercloud_table)
        assert stats.stage("mine").n_out == len(result.itemsets)
        assert stats.stage("prune").n_out == sum(
            len(r) for r in result.keyword_results.values()
        )
        assert "backend=serial" in stats.render()

    def test_second_study_hits_cache(self, supercloud_table, definition):
        """Acceptance: a second keyword study re-mines nothing."""
        engine = MiningEngine()
        pre = definition.make_preprocessor()
        first = engine.analyze(
            pre, supercloud_table, {"underutilization": "SM Util = 0%"}, MiningConfig()
        )
        assert first.stats.stage("mine").cache == "miss"
        second = engine.analyze(
            pre, supercloud_table, {"failure": "Failed"}, MiningConfig()
        )
        assert second.stats.stage("mine").cache == "hit"
        assert second.stats.cache_hits >= 1
        assert second.itemsets is first.itemsets  # no second mining pass
        assert len(second["failure"]) > 0

    def test_unknown_keyword_empty(self, supercloud_table, definition):
        engine = MiningEngine()
        result = engine.analyze(
            definition.make_preprocessor(),
            supercloud_table,
            {"ghost": "No Such Item"},
            MiningConfig(),
        )
        assert len(result["ghost"]) == 0
        assert result.stats.stage("generate-rules").n_out == 0

    def test_workflow_delegates_to_engine(self, supercloud_table, definition):
        from repro.analysis import InterpretableAnalysis

        engine = MiningEngine()
        workflow = InterpretableAnalysis(
            definition.make_preprocessor(), MiningConfig(), engine
        )
        result = workflow.run(supercloud_table, {"failure": "Failed"})
        assert result.stats is not None
        assert result.stats.backend == "serial"

    def test_keyword_rules_matches_core(self, toy_db):
        from repro.core import mine_keyword_rules

        engine = MiningEngine()
        config = MiningConfig(min_support=0.4, min_lift=1.0)
        a = engine.keyword_rules(toy_db, "beer", config)
        b = mine_keyword_rules(toy_db, "beer", config)
        assert [str(r) for r in a.all_rules] == [str(r) for r in b.all_rules]


class TestStageStats:
    def test_invalid_cache_state_rejected(self):
        with pytest.raises(ValueError, match="cache must be one of"):
            StageStats("mine", 0.0, 1, 1, cache="maybe")

    def test_engine_stats_counters(self):
        stats = EngineStats(backend="serial")
        stats.add(StageStats("mine", 0.1, 10, 5, cache="hit"))
        stats.add(StageStats("prune", 0.2, 5, 2))
        assert stats.cache_hits == 1 and stats.cache_misses == 0
        assert stats.total_seconds == pytest.approx(0.3)
        with pytest.raises(KeyError):
            stats.stage("nope")


class TestDefaultEngine:
    def test_singleton(self):
        assert default_engine() is default_engine()

    def test_one_call_helpers_share_cache(self, toy_db):
        """mine_frequent_itemsets routes through the shared engine."""
        from repro.core import mine_frequent_itemsets
        from repro.engine import set_default_engine

        previous = set_default_engine(MiningEngine())
        try:
            config = MiningConfig(min_support=0.4)
            first = mine_frequent_itemsets(toy_db, config)
            second = mine_frequent_itemsets(toy_db, config)
            assert second is first  # cache answered, no re-mining
            stats = default_engine().cache_stats()
            assert stats.hits >= 1
        finally:
            set_default_engine(previous)
