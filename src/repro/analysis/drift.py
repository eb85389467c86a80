"""Rule drift: comparing rule sets mined at different times.

The paper's introduction motivates the whole workflow with change over
time: "due to advances in novel ML models and new GPU architectures, we
need to continuously update our understanding of the job characteristics"
— and its Sec. VI points to streaming mining for exactly this.  Given two
rule tables over the same items (e.g. last month's window vs this
month's), :func:`diff_rules` reports what appeared, what disappeared and
whose strength moved, keyed by the rule's (antecedent, consequent)
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.items import Item
from ..core.rules import AssociationRule
from ..core.ruletable import RuleTable

__all__ = ["RuleChange", "RuleDrift", "diff_rules"]

#: rules are keyed by their *item* structure (not raw ids) so two tables
#: whose vocabularies assign different ids — e.g. two canonical
#: RuleBooks, whose id-spaces are each densified independently — still
#: diff by rule identity
_Key = tuple[frozenset[Item], frozenset[Item]]

#: lift movement that makes a persisting rule strengthened or weakened
MIN_LIFT_DELTA = 0.5


def _rows_by_key(table: RuleTable) -> dict[_Key, int]:
    vocab = table.vocabulary
    return {
        (vocab.items_of(table.ant_row(i)), vocab.items_of(table.cons_row(i))): i
        for i in range(len(table))
    }


@dataclass(frozen=True, slots=True)
class RuleChange:
    """One rule present in both sets, with its metric movement."""

    before: AssociationRule
    after: AssociationRule

    @property
    def lift_delta(self) -> float:
        return self.after.lift - self.before.lift

    def __str__(self) -> str:
        return (
            f"{self.after!s}  [lift {self.before.lift:.2f} → {self.after.lift:.2f}]"
        )


@dataclass(slots=True)
class RuleDrift:
    """The full diff between two rule sets."""

    appeared: list[AssociationRule] = field(default_factory=list)
    disappeared: list[AssociationRule] = field(default_factory=list)
    changed: list[RuleChange] = field(default_factory=list)

    def strengthened(self) -> list[RuleChange]:
        """Persisting rules whose lift rose by at least :data:`MIN_LIFT_DELTA`."""
        return sorted(
            (c for c in self.changed if c.lift_delta >= MIN_LIFT_DELTA),
            key=lambda c: -c.lift_delta,
        )

    def weakened(self) -> list[RuleChange]:
        """Persisting rules whose lift fell by at least :data:`MIN_LIFT_DELTA`."""
        return sorted(
            (c for c in self.changed if c.lift_delta <= -MIN_LIFT_DELTA),
            key=lambda c: c.lift_delta,
        )

    def render(self, limit: int = 5) -> str:
        lines = [
            f"rule drift: +{len(self.appeared)} appeared, "
            f"-{len(self.disappeared)} disappeared, "
            f"{len(self.changed)} persisted",
        ]
        for title, rules in (
            ("appeared", self.appeared),
            ("disappeared", self.disappeared),
        ):
            for rule in sorted(rules, key=lambda r: -r.lift)[:limit]:
                lines.append(f"  {title}: {rule}")
        for change in self.strengthened()[:limit]:
            lines.append(f"  strengthened: {change}")
        for change in self.weakened()[:limit]:
            lines.append(f"  weakened: {change}")
        return "\n".join(lines)


def diff_rules(before: RuleTable, after: RuleTable) -> RuleDrift:
    """Diff two rule tables by (antecedent, consequent) item identity.

    Rules are keyed by their item structure, so the two tables may use
    different id-spaces (two independently canonicalised RuleBooks diff
    correctly); tables sharing no items are reported as full turnover
    (everything appeared + everything disappeared).  The reported rules
    are :class:`AssociationRule` views of the tables' rows.
    """
    before_rows = _rows_by_key(before)
    after_rows = _rows_by_key(after)
    drift = RuleDrift()
    for key, row in after_rows.items():
        if key in before_rows:
            drift.changed.append(
                RuleChange(before=before[before_rows[key]], after=after[row])
            )
        else:
            drift.appeared.append(after[row])
    for key, row in before_rows.items():
        if key not in after_rows:
            drift.disappeared.append(before[row])
    return drift
