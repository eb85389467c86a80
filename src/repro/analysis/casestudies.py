"""The paper's case studies (Sec. IV) as reusable functions.

Each study = generate/accept a trace table → run the workflow with the
study keyword(s) → curate a paper-style rule table.  The studies of one
trace share one mining pass: each takes the :class:`AnalysisResult` of
:func:`analyze_trace` as ``analysis=`` and reads its keyword rule sets
or itemsets.  Only the misc study's PAI model rules (Table VIII) mine
again, on the model-labelled subset, exactly as the paper does ("we have
filtered out the jobs whose model type label is NaN and applied the
analysis on the processed dataset").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.mining import MiningConfig, keyword_rule_set
from ..dataframe import ColumnTable
from ..traces import TraceDefinition, get_trace
from ..traces.synthetic.pai import pai_preprocessor
from .report import CaseStudyTable, format_rule_table
from .workflow import AnalysisResult, InterpretableAnalysis

__all__ = [
    "CaseStudy",
    "analyze_trace",
    "underutilization_study",
    "failure_study",
    "misc_study",
    "full_case_study",
]


@dataclass(slots=True)
class CaseStudy:
    """All rule tables produced for one trace."""

    trace: str
    analysis: AnalysisResult
    tables: dict[str, CaseStudyTable] = field(default_factory=dict)
    #: every analysis the study ran, ``analysis`` first
    passes: list[AnalysisResult] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"=== Case study: {self.trace} ===", self.analysis.summary(), ""]
        for table in self.tables.values():
            parts.append(str(table))
            parts.append("")
        return "\n".join(parts)


def _resolve(trace: str | TraceDefinition) -> TraceDefinition:
    return trace if isinstance(trace, TraceDefinition) else get_trace(trace)


def analyze_trace(
    trace: str | TraceDefinition,
    table: ColumnTable | None = None,
    config: MiningConfig = MiningConfig(),
    n_jobs: int | None = None,
) -> AnalysisResult:
    """Run the full workflow on a trace for its standard keywords."""
    definition = _resolve(trace)
    if table is None:
        table = definition.generate_scaled(n_jobs=n_jobs)
    workflow = InterpretableAnalysis(definition.make_preprocessor(), config)
    keywords = {
        name: kw
        for name, kw in definition.keywords.items()
        if name in ("underutilization", "failure", "killed")
    }
    return workflow.run(table, keywords)


def underutilization_study(
    trace: str | TraceDefinition,
    table: ColumnTable | None = None,
    config: MiningConfig = MiningConfig(),
    analysis: AnalysisResult | None = None,
) -> tuple[AnalysisResult, CaseStudyTable]:
    """Sec. IV-B: rules around jobs with 0 % GPU SM utilisation."""
    definition = _resolve(trace)
    if analysis is None:
        analysis = analyze_trace(definition, table=table, config=config)
    rule_table = format_rule_table(
        analysis["underutilization"],
        title=f"GPU underutilization rules — {definition.display_name} trace",
        max_cause=5,
        max_characteristic=3,
    )
    return analysis, rule_table


def failure_study(
    trace: str | TraceDefinition,
    table: ColumnTable | None = None,
    config: MiningConfig = MiningConfig(),
    analysis: AnalysisResult | None = None,
) -> tuple[AnalysisResult, CaseStudyTable]:
    """Sec. IV-C: rules around failed jobs."""
    definition = _resolve(trace)
    if analysis is None:
        analysis = analyze_trace(definition, table=table, config=config)
    rule_table = format_rule_table(
        analysis["failure"],
        title=f"Job failure rules — {definition.display_name} trace",
        max_cause=6,
        max_characteristic=2,
    )
    return analysis, rule_table


def misc_study(
    trace: str | TraceDefinition,
    table: ColumnTable | None = None,
    config: MiningConfig = MiningConfig(),
    analysis: AnalysisResult | None = None,
) -> dict[str, CaseStudyTable]:
    """Sec. IV-D: trace-specific rules (Table VIII).

    The rules under standard preprocessing come from *analysis* (mined
    from *table* at *config* when not given).  PAI's model rules mine
    the model-labelled rows of *table*, the job table of the analysis.
    """
    tables, _ = _misc_study(_resolve(trace), table, config, analysis)
    return tables


def _misc_study(
    definition: TraceDefinition,
    table: ColumnTable | None,
    config: MiningConfig,
    analysis: AnalysisResult | None,
) -> tuple[dict[str, CaseStudyTable], list[AnalysisResult]]:
    """:func:`misc_study`'s tables plus the further analyses it ran."""
    if analysis is None:
        if table is None:
            table = definition.generate_scaled()
        analysis = analyze_trace(definition, table=table, config=config)
    config = analysis.config

    def rules(keyword: str):
        return keyword_rule_set(analysis.itemsets, keyword, config)

    tables: dict[str, CaseStudyTable] = {}
    passes: list[AnalysisResult] = []
    if definition.name == "pai":
        if table is None:
            raise ValueError("the PAI misc study needs the job table of its analysis")
        # queue-behaviour rules, standard preprocessing
        tables["t4_queue"] = format_rule_table(
            rules("GPU Type = T4"), "T4 queueing rules — PAI (cf. PAI1)", 3, 2
        )
        tables["non_t4_queue"] = format_rule_table(
            rules("GPU Type = None T4"),
            "Non-T4 queueing rules — PAI (cf. PAI2)", 3, 2,
        )
        # model-specific rules on the labelled subset: a second pass
        model_workflow = InterpretableAnalysis(
            pai_preprocessor(include_model=True), config
        )
        model_result = model_workflow.run(
            table.dropna(["model_name"]),
            {"recsys": "Model = RecSys", "nlp": "Model = NLP"},
        )
        passes.append(model_result)
        tables["recsys"] = format_rule_table(
            model_result["recsys"], "RecSys workload rules — PAI (cf. PAI3)", 2, 2
        )
        tables["nlp"] = format_rule_table(
            model_result["nlp"], "NLP workload rules — PAI (cf. PAI4)", 2, 2
        )
    elif definition.name == "supercloud":
        tables["killed"] = format_rule_table(
            analysis["killed"], "Job-kill rules — SuperCloud (cf. CIR1)", 3, 2
        )
    elif definition.name == "philly":
        tables["multi_gpu"] = format_rule_table(
            rules("Multi-GPU"), "Multi-GPU rules — Philly (cf. PHI1)", 3, 3
        )
    else:  # pragma: no cover - registry is closed
        raise ValueError(f"no misc study defined for trace {definition.name!r}")
    return tables, passes


def full_case_study(
    trace: str | TraceDefinition,
    table: ColumnTable | None = None,
    config: MiningConfig = MiningConfig(),
    n_jobs: int | None = None,
) -> CaseStudy:
    """Everything Sec. IV reports for one trace, in one call."""
    definition = _resolve(trace)
    if table is None:
        table = definition.generate_scaled(n_jobs=n_jobs)
    analysis = analyze_trace(definition, table=table, config=config)
    study = CaseStudy(definition.display_name, analysis, passes=[analysis])
    _, study.tables["underutilization"] = underutilization_study(
        definition, config=config, analysis=analysis
    )
    _, study.tables["failure"] = failure_study(
        definition, config=config, analysis=analysis
    )
    misc_tables, misc_passes = _misc_study(definition, table, config, analysis)
    study.tables.update(misc_tables)
    study.passes.extend(misc_passes)
    return study
