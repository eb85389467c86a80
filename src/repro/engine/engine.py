"""The mining engine — the staged pipeline every caller runs.

:class:`MiningEngine` runs ``preprocess → mine → generate-rules → prune``
on a job table and instruments each stage into :class:`EngineStats`.
The mine stage is one serial pass
(:func:`~repro.core.mining.mine_frequent_itemsets`) shared by every
keyword of the study; the engine keeps nothing between calls, so a
caller that needs one pass's itemsets again passes them on (the
case studies take ``analysis=``).

The workflow and case studies, the streaming refresher's remine, the
CLI and the benchmark harness all build their engine here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..core.itemsets import FrequentItemsets
from ..core.items import Item
from ..core.mining import MiningConfig, keyword_rule_set, mine_frequent_itemsets
from ..core.rules import score_counts
from ..core.ruletable import RuleTable
from ..core.transactions import TransactionDatabase
from ..obs import EngineStats, StageStats, kernel_timer, stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis.workflow import AnalysisResult
    from ..dataframe import ColumnTable
    from ..preprocess import TracePreprocessor
    from ..streaming.bitwindow import StreamingBitmapWindow
    from ..streaming.refresh import TrackedRules

__all__ = ["MiningEngine"]


class SerialBackend:
    """The one mining plan, under the old backend interface.

    Stays only for ``benchmarks/e2e/mine.py``, whose traced pass reads
    ``engine.backend.resolve(db).effective_plan``; delete it with
    :attr:`MiningEngine.backend` at the next change to that benchmark.
    """

    effective_plan = "serial"

    def resolve(self, db: TransactionDatabase) -> "SerialBackend":
        return self


class MiningEngine:
    """Serial mining + instrumented pipeline, in one stateless object."""

    #: stays only for ``benchmarks/e2e/mine.py`` (see :class:`SerialBackend`)
    backend = SerialBackend()

    def mine(
        self, db: TransactionDatabase, config: MiningConfig = MiningConfig()
    ) -> FrequentItemsets:
        """Frequent itemsets of *db* — one serial pass."""
        return mine_frequent_itemsets(db, config)

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

        One preprocessing and one mining pass are shared across all
        keywords of the study, and nothing is kept for the next call;
        each stage's wall time and cardinalities are recorded into the
        result's :attr:`~AnalysisResult.stats`.
        """
        from ..analysis.workflow import AnalysisResult

        stats = EngineStats()

        with stage(stats, "preprocess", len(table)) as s:
            preprocess, s.cache = preprocessor.run_with_status(
                table, use_cache=False
            )
            db = preprocess.database
            s.n_out = len(db)

        with stage(stats, "mine", len(db)) as s:
            itemsets = self.mine(db, config)
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

