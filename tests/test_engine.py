"""Tests for the mining engine: serial mining, instrumentation."""

import pytest

from repro.core import MiningConfig, TransactionDatabase
from repro.core.apriori import apriori
from repro.core.eclat import eclat
from repro.core.fpgrowth import fpgrowth
from repro.engine import EngineStats, MiningEngine, StageStats
from repro.traces import get_trace


# -- serial mining ----------------------------------------------------------------

MINERS = {"fpgrowth": fpgrowth, "apriori": apriori, "eclat": eclat}


class TestSerialMining:
    @pytest.fixture(scope="class")
    def trace_dbs(self, supercloud_db, philly_db):
        return {"supercloud": supercloud_db, "philly": philly_db}

    @pytest.mark.parametrize("algorithm", list(MINERS))
    def test_algorithms_agree(self, trace_dbs, algorithm):
        """The engine's itemsets equal fpgrowth's, apriori's and eclat's."""
        config = MiningConfig(min_support=0.05, max_len=3)
        for name, db in trace_dbs.items():
            reference = MINERS[algorithm](db, 0.05, 3)
            mined = MiningEngine().mine(db, config)
            assert mined.counts == reference, f"{algorithm} on {name}"
            assert len(mined) > 0

    def test_empty_database(self):
        db = TransactionDatabase.from_itemsets([])
        engine = MiningEngine()
        assert len(engine.mine(db, MiningConfig())) == 0

    def test_backend_argument_rejected(self):
        """Serial is the only plan: asking for another one fails loudly."""
        with pytest.raises(TypeError):
            MiningEngine(backend="process")

    def test_cache_argument_rejected(self):
        """The engine keeps nothing between calls: there is no cache to set."""
        with pytest.raises(TypeError):
            MiningEngine(cache=False)

    def test_each_call_mines(self, toy_db):
        """Two calls, two passes: equal counts, distinct results."""
        engine = MiningEngine()
        config = MiningConfig(min_support=0.4)
        first = engine.mine(toy_db, config)
        second = engine.mine(toy_db, config)
        assert second is not first
        assert second.counts == first.counts


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

    def test_second_study_reuses_the_analysis(self, supercloud_table, definition):
        """Acceptance: a second keyword study handed the analysis re-mines
        (and re-preprocesses) nothing."""
        from repro.analysis import misc_study
        from repro.obs import stage

        analysis = MiningEngine().analyze(
            definition.make_preprocessor(),
            supercloud_table,
            {"killed": "Job Killed"},
            MiningConfig(),
        )
        outer = EngineStats()
        with stage(outer, "second study", 0):
            tables = misc_study("supercloud", analysis=analysis)
        kernels = [name for name, _, _ in outer.stage("second study").kernels]
        assert not [k for k in kernels if k.startswith(("fpgrowth", "ingest"))]
        assert "Job-kill rules" in str(tables["killed"])

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
