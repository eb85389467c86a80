"""Analysis workflow and the paper's case studies (Sec. III–IV).

Nothing is imported until a name is first used (PEP 562).
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".workflow": ("InterpretableAnalysis", "AnalysisResult"),
    ".report": ("RuleRow", "CaseStudyTable", "format_rule_table", "select_diverse_rules"),
    ".casestudies": (
        "CaseStudy", "analyze_trace", "underutilization_study", "failure_study",
        "misc_study", "full_case_study",
    ),
    ".insights": ("Insight", "extract_insights", "DETECTORS"),
    ".drift": ("RuleDrift", "RuleChange", "diff_rules"),
}
#: public name → its module
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = importlib.import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value
