"""The unified mining engine — single entry point for every caller.

:class:`MiningEngine` composes one serial mining pass with a
content-addressed itemset cache (whether the pass needs to run at all)
and the staged pipeline ``preprocess → mine → generate-rules → prune``
that instruments each stage into :class:`EngineStats`.

Every layer of the stack routes through here: the one-call helpers in
:mod:`repro.core.mining`, the :class:`InterpretableAnalysis` workflow and
case studies, the streaming refresher's remine, the CLI, and the
benchmark harness.  A module-level default engine gives them a shared
cache, so a support sweep or a second keyword study on the same trace
content never mines twice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..core.itemsets import FrequentItemsets
from ..core.items import Item
from ..core.mining import ALGORITHMS, KeywordRuleSet, MiningConfig, keyword_rule_set
from ..core.rules import score_counts
from ..core.ruletable import RuleTable
from ..core.transactions import TransactionDatabase
from ..obs import EngineStats, StageStats, kernel_timer, stage
from .cache import CacheStats, ItemsetCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis.workflow import AnalysisResult
    from ..dataframe import ColumnTable
    from ..preprocess import TracePreprocessor
    from ..streaming.bitwindow import StreamingBitmapWindow
    from ..streaming.refresh import TrackedRules

__all__ = ["MiningEngine", "default_engine", "set_default_engine"]


def _mine_pass(db: TransactionDatabase, config: MiningConfig) -> FrequentItemsets:
    """One in-process pass of the configured algorithm."""
    counts = ALGORITHMS[config.algorithm](db, config.min_support, config.max_len)
    return FrequentItemsets(
        counts,
        db.vocabulary,
        len(db),
        min_support=config.min_support,
        max_len=config.max_len,
    )


class SerialBackend:
    """The engine's one mining pass, under the old backend interface.

    Stays only for ``benchmarks/e2e/mine.py``, whose traced pass reads
    ``engine.backend.resolve(db).effective_plan``; delete it with
    :attr:`MiningEngine.backend` at the next change to that benchmark.
    """

    name = "serial"
    effective_plan = "serial"

    def mine(self, db: TransactionDatabase, config: MiningConfig) -> FrequentItemsets:
        return _mine_pass(db, config)

    def resolve(self, db: TransactionDatabase) -> "SerialBackend":
        return self


class MiningEngine:
    """Serial mining + cache + instrumented pipeline, in one object.

    Parameters
    ----------
    cache:
        ``True`` (own LRU cache), ``False``/``None`` (no caching), or an
        :class:`ItemsetCache` instance to share between engines.
    """

    #: stays only for ``benchmarks/e2e/mine.py`` (see :class:`SerialBackend`)
    backend = SerialBackend()

    def __init__(self, *, cache: bool | ItemsetCache | None = True):
        if cache is True:
            self.cache: ItemsetCache | None = ItemsetCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache

    def __repr__(self) -> str:
        return (
            f"MiningEngine(cache={'off' if self.cache is None else len(self.cache)})"
        )

    # -- mining ------------------------------------------------------------------
    def cache_key(self, db: TransactionDatabase, config: MiningConfig) -> tuple:
        """Content-addressed key: database fingerprint × itemset config."""
        return (db.fingerprint(), config.itemset_key)

    def mine(
        self, db: TransactionDatabase, config: MiningConfig = MiningConfig()
    ) -> FrequentItemsets:
        """Frequent itemsets of *db* — cached, one serial pass on a miss."""
        itemsets, _ = self.mine_with_status(db, config)
        return itemsets

    def mine_with_status(
        self, db: TransactionDatabase, config: MiningConfig = MiningConfig()
    ) -> tuple[FrequentItemsets, str]:
        """Like :meth:`mine`, also reporting ``"hit"``/``"miss"``/``"off"``."""
        if self.cache is None:
            return _mine_pass(db, config), "off"
        key = self.cache_key(db, config)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, "hit"
        itemsets = _mine_pass(db, config)
        self.cache.put(key, itemsets)
        return itemsets, "miss"

    def cache_stats(self) -> CacheStats | None:
        """Lifetime counters of the attached cache (None when disabled)."""
        return None if self.cache is None else self.cache.stats()

    # -- keyword rules ----------------------------------------------------------
    def keyword_rules(
        self,
        db: TransactionDatabase,
        keyword: Item | str,
        config: MiningConfig = MiningConfig(),
        itemsets: FrequentItemsets | None = None,
    ) -> KeywordRuleSet:
        """Full keyword workflow (mine → generate → prune), engine-cached."""
        if itemsets is None:
            itemsets = self.mine(db, config)
        return keyword_rule_set(itemsets, keyword, config)

    # -- incremental recount (streaming) -----------------------------------------
    def recount_rules(
        self, window: "StreamingBitmapWindow", tracked: "TrackedRules"
    ) -> RuleTable:
        """Re-score a tracked rulebook against a streaming window's counts.

        The incremental entry point of the streaming subsystem: *tracked*
        maps every rule of a rulebook to the window-maintained supports
        of its antecedent, consequent and union itemsets, so re-scoring
        the whole book costs three gathers plus the vectorised metric
        batch — no mining pass, no snapshot rebuild.  Rule generation
        scores with the same function,
        :func:`~repro.core.rules.score_counts`, which is what makes an
        incremental recount bit-identical to a full-window remine for
        the same counts.  Recorded under the
        ``stream-recount`` kernel (CLI ``--profile``).
        """
        with kernel_timer("stream-recount"):
            n = len(window)
            if n == 0:
                raise ValueError("cannot recount over an empty window")
            counts = window.tracked_counts()
            table = tracked.table
            return RuleTable(
                table.vocabulary,
                table.ant_indptr, table.ant_ids,
                table.cons_indptr, table.cons_ids,
                *score_counts(
                    counts[tracked.union_idx], counts[tracked.ant_idx],
                    counts[tracked.cons_idx], n,
                ),
            )

    # -- the staged pipeline ------------------------------------------------------
    def analyze(
        self,
        preprocessor: "TracePreprocessor",
        table: "ColumnTable",
        keywords: dict[str, Item | str],
        config: MiningConfig = MiningConfig(),
    ) -> "AnalysisResult":
        """Run ``preprocess → mine → generate-rules → prune`` on *table*.

        One (cached) mining pass is shared across all keywords of the
        study; each stage's wall time, cardinalities and cache status are
        recorded into the result's :attr:`~AnalysisResult.stats`.
        """
        from ..analysis.workflow import AnalysisResult

        stats = EngineStats()

        # the preprocess result cache follows the engine's cache switch:
        # --no-cache disables both layers
        with stage(stats, "preprocess", len(table)) as s:
            preprocess, s.cache = preprocessor.run_with_status(
                table, use_cache=self.cache is not None
            )
            db = preprocess.database
            s.n_out = len(db)

        with stage(stats, "mine", len(db)) as s:
            itemsets, s.cache = self.mine_with_status(db, config)
            s.n_out = len(itemsets)

        result = AnalysisResult(
            config=config, preprocess=preprocess, itemsets=itemsets, stats=stats
        )

        n_generated = n_kept = 0
        kept_tables: list[RuleTable] = []
        with stage(stats, "generate-rules", len(itemsets)) as s:
            for name, keyword in keywords.items():
                ruleset = keyword_rule_set(itemsets, keyword, config)
                n_generated += ruleset.n_rules_before_pruning
                n_kept += ruleset.report.n_kept
                if ruleset.table is not None and len(ruleset.table):
                    kept_tables.append(ruleset.table)
                result.keyword_results[name] = ruleset
            s.n_out = n_generated

        # the ``prune-*`` kernels and their seconds are the prune stage,
        # the rest of the keyword loop is generation
        loop = stats.stages.pop()
        prune = tuple(k for k in loop.kernels if k[0].startswith("prune-"))
        generate = tuple(k for k in loop.kernels if not k[0].startswith("prune-"))
        prune_seconds = sum(seconds for _, seconds, _ in prune)
        stats.add(replace(loop, seconds=loop.seconds - prune_seconds, kernels=generate))
        stats.add(StageStats("prune", prune_seconds, n_generated, n_kept, kernels=prune))
        if kept_tables:
            result.rule_table = RuleTable.concat(kept_tables).dedup()
        else:
            result.rule_table = RuleTable.empty(db.vocabulary)
        return result


#: process-wide default engine: serial mining, shared content-addressed
#: cache — what the one-call helpers and the workflow use unless told
#: otherwise
_DEFAULT_ENGINE: MiningEngine | None = None


def default_engine() -> MiningEngine:
    """The process-wide shared engine (created on first use)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = MiningEngine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: MiningEngine | None) -> MiningEngine | None:
    """Replace the shared engine (None resets to a fresh lazy default)."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous
