"""Rule quality metrics (Sec. III-B of the paper).

:func:`repro.core.rules.score_counts` scores rules in vectorised batches;
this module holds the per-rule bundle :class:`RuleMetrics`.  All metrics
are derived from three supports: ``supp(X)``, ``supp(Y)`` and
``supp(X ∪ Y)``.  Besides the paper's support / confidence / lift triple we
provide leverage and conviction, two standard complements often consulted
when triaging rules.

Metrics take *relative* supports in ``[0, 1]`` and are defined for edge
cases as follows:

* ``confidence`` is 0 when the antecedent never occurs;
* ``lift`` is 0 when either side never occurs (an absent rule carries no
  dependence signal), ∞ never arises because supp(X∪Y) ≤ min side;
* ``conviction`` is ``inf`` for confidence 1 (the textbook convention).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuleMetrics"]


@dataclass(frozen=True, slots=True)
class RuleMetrics:
    """The full metric bundle for one rule."""

    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float
