"""Rule scatter data (Fig. 3: support × lift, before vs after pruning)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ruletable import RuleTable

__all__ = ["RuleScatter", "rule_scatter", "pruning_scatter"]


@dataclass(frozen=True, slots=True)
class RuleScatter:
    """Point cloud of rules in (support, lift[, confidence]) space."""

    support: np.ndarray
    lift: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return self.support.shape[0]

def rule_scatter(rules: RuleTable) -> RuleScatter:
    """The scatter coordinates of a table's rules: copies of its columns."""
    return RuleScatter(
        support=rules.support.copy(),
        lift=rules.lift.copy(),
        confidence=rules.confidence.copy(),
    )


def pruning_scatter(before: RuleTable, after: RuleTable) -> dict[str, RuleScatter]:
    """The two panels of Fig. 3."""
    return {"before": rule_scatter(before), "after": rule_scatter(after)}
