"""The interpretable-analysis workflow (Sec. III, end to end).

:class:`InterpretableAnalysis` chains the pieces exactly as the paper
describes:

    job table ──preprocess──▶ transactions ──FP-Growth──▶ frequent
    itemsets ──rule generation (min-lift)──▶ rules ──keyword pruning──▶
    cause ("C") and characteristic ("A") rule sets per keyword

Execution is delegated to the :class:`~repro.engine.MiningEngine` staged
pipeline: one mining pass per run is shared across all keywords of the
study, mirroring the paper's "generating all high-quality rules in a
single execution" (Sec. V), and every stage reports wall time and
cardinalities into :attr:`AnalysisResult.stats`.  Nothing is kept
between runs: a further study of the same trace reads the
:class:`AnalysisResult` it is handed (its ``itemsets``) instead of
mining again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core import FrequentItemsets, KeywordRuleSet, MiningConfig
from ..core.ruletable import RuleTable
from ..dataframe import ColumnTable
from ..engine import EngineStats, MiningEngine
from ..preprocess import PreprocessResult, TracePreprocessor

if TYPE_CHECKING:  # pragma: no cover - typing only (serve sits above analysis)
    from ..serve import RuleBook

__all__ = ["AnalysisResult", "InterpretableAnalysis"]


@dataclass(slots=True)
class AnalysisResult:
    """Everything one analysis run produces.

    ``rule_table`` is the columnar union of every keyword study's kept
    rules (deduplicated across studies, keyword iteration order); the
    persistence layer builds the :class:`~repro.serve.RuleBook` straight
    from its columns instead of re-pooling rule objects.
    """

    config: MiningConfig
    preprocess: PreprocessResult
    itemsets: FrequentItemsets
    keyword_results: dict[str, KeywordRuleSet] = field(default_factory=dict)
    stats: EngineStats | None = None
    rule_table: RuleTable | None = None

    def __getitem__(self, keyword_name: str) -> KeywordRuleSet:
        try:
            return self.keyword_results[keyword_name]
        except KeyError:
            raise KeyError(
                f"no keyword study named {keyword_name!r}; "
                f"have {sorted(self.keyword_results)}"
            ) from None

    def to_rulebook(self, trace: str | None = None) -> "RuleBook":
        """Export every kept rule as a persistable, servable RuleBook.

        The hand-off from offline mining to online serving: the returned
        book carries the rules of all keyword studies plus the run's
        provenance (config, database fingerprint, mining plan) and
        round-trips through :meth:`~repro.serve.RuleBook.save` /
        :meth:`~repro.serve.RuleBook.load`.
        """
        # imported lazily: repro.serve sits one layer above repro.analysis
        from ..serve import RuleBook

        return RuleBook.from_analysis(self, trace=trace)

    def summary(self) -> str:
        lines = [
            f"transactions : {len(self.preprocess.database)}",
            f"items        : {self.preprocess.database.n_items}",
            f"freq itemsets: {len(self.itemsets)} (min_support={self.config.min_support})",
        ]
        for name, result in self.keyword_results.items():
            lines.append(
                f"keyword {name!r} ({result.keyword.render()}): "
                f"{len(result.cause)} cause + {len(result.characteristic)} "
                f"characteristic rules "
                f"(pruned {result.report.n_pruned}/{result.report.n_input})"
            )
        return "\n".join(lines)


class InterpretableAnalysis:
    """Configured workflow: run once per (trace table, keyword set)."""

    def __init__(
        self,
        preprocessor: TracePreprocessor,
        config: MiningConfig = MiningConfig(),
        engine: MiningEngine | None = None,
    ):
        self.preprocessor = preprocessor
        self.config = config
        self.engine = engine if engine is not None else MiningEngine()

    def run(
        self,
        table: ColumnTable,
        keywords: dict[str, str],
    ) -> AnalysisResult:
        """Execute the full staged pipeline on *table*.

        Parameters
        ----------
        keywords:
            study name → keyword item text (e.g. ``{"underutilization":
            "SM Util = 0%", "failure": "Failed"}``).  Each keyword gets
            its own pruned cause/characteristic rule sets; the expensive
            mining pass is shared by all of them.
        """
        return self.engine.analyze(self.preprocessor, table, keywords, self.config)
