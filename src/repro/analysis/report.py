"""Rule-table reports in the paper's format.

The paper presents each case study as a table of C (cause) and A
(characteristic) rows with Antecedent / Consequent / Supp. / Conf. / Lift
columns (Tables II–VIII).  Pruning leaves far more rules than fit a table,
so :func:`select_diverse_rules` greedily picks high-lift rules whose item
sets are not near-duplicates of already-picked rows — the manual curation
step a system operator performs, made deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import AssociationRule, KeywordRuleSet

__all__ = ["RuleRow", "CaseStudyTable", "select_diverse_rules", "format_rule_table"]


@dataclass(frozen=True, slots=True)
class RuleRow:
    """One labelled row of a paper-style rule table."""

    label: str  # "C1", "A2", ...
    rule: AssociationRule

    def render(self) -> tuple[str, str, str, str, str, str]:
        r = self.rule
        return (
            self.label,
            ", ".join(i.render() for i in sorted(r.antecedent)),
            ", ".join(i.render() for i in sorted(r.consequent)),
            f"{r.support:.2f}",
            f"{r.confidence:.2f}",
            f"{r.lift:.2f}",
        )


@dataclass(slots=True)
class CaseStudyTable:
    """A full case-study table: C rows then A rows."""

    title: str
    rows: list[RuleRow]

    @property
    def cause_rows(self) -> list[RuleRow]:
        return [r for r in self.rows if r.label.startswith("C")]

    @property
    def characteristic_rows(self) -> list[RuleRow]:
        return [r for r in self.rows if r.label.startswith("A")]

    def __str__(self) -> str:
        return format_table_text(self)


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def select_diverse_rules(
    rules: list[AssociationRule],
    max_rules: int,
    max_similarity: float = 0.6,
) -> list[AssociationRule]:
    """Greedy top-lift selection skipping near-duplicate item sets.

    Rules are considered in decreasing lift order; a rule is kept when the
    Jaccard similarity of its item-id set to every kept rule is at most
    *max_similarity*.  This keeps each table row informative instead of
    listing every permutation of one strong itemset.
    """
    if max_rules < 0:
        raise ValueError("max_rules must be >= 0")
    ordered = sorted(rules, key=lambda r: (-r.lift, -r.confidence, -r.support))
    kept: list[AssociationRule] = []
    for rule in ordered:
        if len(kept) >= max_rules:
            break
        ids = rule.item_ids
        if all(_jaccard(ids, k.item_ids) <= max_similarity for k in kept):
            kept.append(rule)
    return kept


def format_rule_table(
    result: KeywordRuleSet,
    title: str,
    max_cause: int = 6,
    max_characteristic: int = 3,
    max_similarity: float = 0.6,
) -> CaseStudyTable:
    """Build a paper-style table from a keyword rule set."""
    cause = select_diverse_rules(list(result.cause), max_cause, max_similarity)
    char = select_diverse_rules(
        list(result.characteristic), max_characteristic, max_similarity
    )
    rows = [RuleRow(f"C{i + 1}", r) for i, r in enumerate(cause)]
    rows += [RuleRow(f"A{i + 1}", r) for i, r in enumerate(char)]
    return CaseStudyTable(title=title, rows=rows)


def format_table_text(table: CaseStudyTable) -> str:
    """Render a CaseStudyTable as aligned monospace text."""
    header = ("", "Antecedent", "Consequent", "Supp.", "Conf.", "Lift")
    rendered = [header] + [row.render() for row in table.rows]
    widths = [max(len(r[i]) for r in rendered) for i in range(len(header))]
    lines = [table.title, "-" * (sum(widths) + 3 * (len(widths) - 1))]
    for r in rendered:
        lines.append("   ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)
