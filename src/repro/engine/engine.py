"""The unified mining engine — single entry point for every caller.

:class:`MiningEngine` composes one serial mining pass with a
content-addressed itemset cache (whether the pass needs to run at all)
and the staged pipeline ``preprocess → mine → generate-rules → prune``
that instruments each stage into :class:`EngineStats`.

Every layer of the stack routes through here: the one-call helpers in
:mod:`repro.core.mining`, the :class:`InterpretableAnalysis` workflow and
case studies, the streaming window miner, the CLI, and the benchmark
harness.  A module-level default engine gives them a shared cache, so a
support sweep, a second keyword study or a repeated benchmark run on the
same trace content never mines twice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.bitmap import kernel_delta, kernel_snapshot, kernel_timer
from ..core.itemsets import FrequentItemsets
from ..core.items import Item, as_item
from ..core.mining import ALGORITHMS, KeywordRuleSet, MiningConfig
from ..core.pruning import prune_rule_table
from ..core.rules import generate_rule_table
from ..core.ruletable import RuleTable
from ..core.transactions import TransactionDatabase
from .cache import CacheStats, ItemsetCache
from .stats import EngineStats, StageStats, StageTimer

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
        kw = as_item(keyword)
        generated = self._generate_for_keyword(db, kw, itemsets, config)
        if generated is None:
            return _empty_ruleset(kw)
        return _prune_into_ruleset(generated, kw, config)

    def _generate_for_keyword(
        self,
        db: TransactionDatabase,
        kw: Item,
        itemsets: FrequentItemsets,
        config: MiningConfig,
    ) -> RuleTable | None:
        """Lift/confidence-filtered rule table touching *kw*; None if unseen."""
        kw_id = db.vocabulary.get_id(kw)
        if kw_id is None:
            return None
        return generate_rule_table(
            itemsets,
            min_lift=config.min_lift,
            min_confidence=config.min_confidence,
            keyword_ids=(kw_id,),
        )

    # -- incremental recount (streaming) -----------------------------------------
    def recount_rules(
        self, window: "StreamingBitmapWindow", tracked: "TrackedRules"
    ) -> RuleTable:
        """Re-score a tracked rulebook against a streaming window's counts.

        The incremental entry point of the streaming subsystem: *tracked*
        maps every rule of a rulebook to the window-maintained supports
        of its antecedent, consequent and union itemsets, so re-scoring
        the whole book costs three gathers plus the vectorised metric
        batch — no mining pass, no snapshot rebuild.  The metric
        arithmetic is operation-for-operation the batch scoring of
        :func:`~repro.core.rules.generate_rule_table`, which is what
        makes an incremental recount bit-identical to a full-window
        remine for the same counts.  Recorded under the
        ``stream-recount`` kernel (CLI ``--profile``).
        """
        with kernel_timer("stream-recount"):
            n = len(window)
            if n == 0:
                raise ValueError("cannot recount over an empty window")
            counts = window.tracked_counts()
            table = tracked.table
            supp_xy = counts[tracked.union_idx].astype(np.float64) / n
            supp_x = counts[tracked.ant_idx].astype(np.float64) / n
            supp_y = counts[tracked.cons_idx].astype(np.float64) / n
            denom = supp_x * supp_y
            with np.errstate(divide="ignore", invalid="ignore"):
                conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
                lift_arr = np.where(denom > 0.0, supp_xy / denom, 0.0)
                conviction_arr = np.where(
                    conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf)
                )
            leverage_arr = supp_xy - denom
            return RuleTable(
                table.vocabulary,
                table.ant_indptr, table.ant_ids,
                table.cons_indptr, table.cons_ids,
                supp_xy, conf, lift_arr, leverage_arr, conviction_arr,
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
        before = kernel_snapshot()
        with StageTimer() as t:
            preprocess, pre_status = preprocessor.run_with_status(
                table, use_cache=self.cache is not None
            )
        pre_kernels = kernel_delta(before, kernel_snapshot())
        db = preprocess.database
        stats.add(
            StageStats(
                "preprocess",
                t.seconds,
                len(table),
                len(db),
                pre_status,
                kernels=pre_kernels,
            )
        )

        before = kernel_snapshot()
        with StageTimer() as t:
            itemsets, cache_status = self.mine_with_status(db, config)
        mine_kernels = kernel_delta(before, kernel_snapshot())
        stats.add(
            StageStats(
                "mine",
                t.seconds,
                len(db),
                len(itemsets),
                cache_status,
                kernels=mine_kernels,
            )
        )

        result = AnalysisResult(
            config=config, preprocess=preprocess, itemsets=itemsets, stats=stats
        )

        generate_seconds = prune_seconds = 0.0
        n_generated = n_kept = 0
        kept_tables: list[RuleTable] = []
        before = kernel_snapshot()
        for name, keyword in keywords.items():
            kw = as_item(keyword)
            with StageTimer() as t:
                table = self._generate_for_keyword(db, kw, itemsets, config)
            generate_seconds += t.seconds
            if table is None:
                result.keyword_results[name] = _empty_ruleset(kw)
                continue
            n_generated += len(table)
            with StageTimer() as t:
                ruleset = _prune_into_ruleset(table, kw, config)
            prune_seconds += t.seconds
            n_kept += len(ruleset)
            if ruleset.table is not None and len(ruleset.table):
                kept_tables.append(ruleset.table)
            result.keyword_results[name] = ruleset

        # one kernel delta covers the whole loop; attribute ``prune-*``
        # kernels to the prune stage and the rest to generation
        loop_kernels = kernel_delta(before, kernel_snapshot())
        generate_kernels = tuple(
            k for k in loop_kernels if not k[0].startswith("prune-")
        )
        prune_kernels = tuple(k for k in loop_kernels if k[0].startswith("prune-"))
        stats.add(
            StageStats(
                "generate-rules",
                generate_seconds,
                len(itemsets),
                n_generated,
                kernels=generate_kernels,
            )
        )
        stats.add(
            StageStats(
                "prune", prune_seconds, n_generated, n_kept, kernels=prune_kernels
            )
        )
        if kept_tables:
            result.rule_table = RuleTable.concat(kept_tables).dedup()
        else:
            result.rule_table = RuleTable.empty(db.vocabulary)
        return result


def _empty_ruleset(kw: Item) -> KeywordRuleSet:
    """The keyword never appears in the trace; nothing to analyse."""
    return KeywordRuleSet(kw)


def _prune_into_ruleset(
    table: RuleTable, kw: Item, config: MiningConfig
) -> KeywordRuleSet:
    """Apply Conditions 1–4; cause ("C") / characteristic ("A") rules are
    lazy views of the kept table, so no rule object is built here."""
    kept_table, report = prune_rule_table(table, kw, config.pruning)
    return KeywordRuleSet(
        keyword=kw,
        report=report,
        n_rules_before_pruning=len(table),
        table=kept_table,
    )


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
