"""Categorical aggregation (Sec. III-E, last paragraph).

Two transformations reduce the cardinality of categorical features so
their values reach minable support:

* **semantic grouping** — map model names into families ("resnet", "vgg",
  "inception" → "CV"; "bert", "nmt", "xlnet" → "NLP");
* **activity tiers** — rank users (or job groups) by submission count and
  label the most active ones covering the top share of jobs as
  "frequent", the least active tail as "rare", the rest "moderate".

The tier boundaries follow the paper: "grouped the most active users
responsible for 25% of the jobs in the trace as 'frequent user', and the
least active users" (the symmetric bottom-25 % cut).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataframe import CategoricalColumn, ColumnTable, value_counts

__all__ = [
    "MODEL_FAMILIES",
    "ActivityTiers",
    "compute_activity_tiers",
    "apply_semantic_grouping",
]

#: the paper's example model-name → family mapping for the PAI trace
MODEL_FAMILIES: dict[str, str] = {
    "resnet": "CV",
    "vgg": "CV",
    "inception": "CV",
    "bert": "NLP",
    "nmt": "NLP",
    "xlnet": "NLP",
    "ctr": "RecSys",
    "din": "RecSys",
    "dien": "RecSys",
    "graphsage": "GNN",
    "gcn": "GNN",
    "ppo": "RL",
    "dqn": "RL",
}


@dataclass(frozen=True, slots=True)
class ActivityTiers:
    """Fitted mapping of category label → activity tier label."""

    tiers: dict[str, str]
    frequent_label: str
    moderate_label: str
    rare_label: str

    def tier_of(self, label: str | None) -> str | None:
        """Tier of one category; unseen labels count as rare, None stays None."""
        if label is None:
            return None
        return self.tiers.get(label, self.rare_label)

    def counts(self) -> dict[str, int]:
        """Number of categories assigned to each tier."""
        out = {self.frequent_label: 0, self.moderate_label: 0, self.rare_label: 0}
        for tier in self.tiers.values():
            out[tier] += 1
        return out


def compute_activity_tiers(
    table: ColumnTable,
    key: str,
    top_share: float = 0.25,
    bottom_share: float = 0.25,
    frequent_label: str = "Freq",
    moderate_label: str = "Moderate",
    rare_label: str = "Rare",
) -> ActivityTiers:
    """Rank categories of *key* by job count and split into three tiers.

    The frequent tier is the shortest prefix of the descending count
    ranking whose cumulative share reaches *top_share*; the rare tier is
    the analogous suffix; everything else is moderate.  A category can
    never be both (frequent wins), so the tiers partition the labels.
    """
    if not 0.0 < top_share < 1.0 or not 0.0 < bottom_share < 1.0:
        raise ValueError("shares must be in (0, 1)")
    ranked = value_counts(table, key)
    total = sum(count for _, count in ranked)
    tiers: dict[str, str] = {}
    if total == 0:
        return ActivityTiers(tiers, frequent_label, moderate_label, rare_label)

    # frequent: prefix reaching top_share of jobs
    cum = 0
    frequent_cut = 0
    for i, (_, count) in enumerate(ranked):
        cum += count
        frequent_cut = i + 1
        if cum / total >= top_share:
            break

    # rare: suffix reaching bottom_share, not crossing the frequent prefix
    cum = 0
    rare_start = len(ranked)
    for i in range(len(ranked) - 1, frequent_cut - 1, -1):
        cum += ranked[i][1]
        rare_start = i
        if cum / total >= bottom_share:
            break

    for i, (label, _) in enumerate(ranked):
        if i < frequent_cut:
            tiers[str(label)] = frequent_label
        elif i >= rare_start:
            tiers[str(label)] = rare_label
        else:
            tiers[str(label)] = moderate_label
    return ActivityTiers(tiers, frequent_label, moderate_label, rare_label)


def apply_semantic_grouping(
    column: CategoricalColumn, mapping: dict[str, str] | None = None
) -> CategoricalColumn:
    """Relabel categories through a semantic family mapping.

    Matching is case-insensitive on the category name; unmapped labels
    pass through unchanged.
    """
    mapping = MODEL_FAMILIES if mapping is None else mapping
    lowered = {k.lower(): v for k, v in mapping.items()}
    effective = {
        cat: lowered[cat.lower()] for cat in column.categories if cat.lower() in lowered
    }
    return column.map_categories(effective)
