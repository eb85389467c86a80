"""Differentially private frequent-itemset release.

The paper positions privacy-preserving rule mining as adjacent work its
pipeline can absorb: "since our pruning techniques are applied after the
rules are generated, we can integrate the other works into the workflow"
(Sec. VI).  This module provides the standard central-DP mechanism for
that integration point: Laplace-noised support counts over a fixed
candidate family, released once.

Model
-----
Each transaction is one job owned by one user-entity; neighbouring
databases differ in one transaction.  Releasing the support counts of a
fixed set of ``k`` candidate itemsets has L1 sensitivity ``k`` (one
transaction changes each count by at most 1), so adding Laplace noise of
scale ``k / ε`` to every count gives ε-differential privacy for the whole
release.  Working over the *mined candidates at a lowered threshold* (the
usual practice) keeps ``k`` small enough to be useful.

The quality trade-off is exactly what the ablation bench measures: as ε
shrinks, noisy counts cross the support threshold in both directions and
rule recovery degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.itemsets import FrequentItemsets
from ..core.mining import ALGORITHMS, MiningConfig
from ..core.transactions import TransactionDatabase, min_support_count

__all__ = ["DPConfig", "DPMiningResult", "dp_mine_frequent_itemsets", "recovery_f1"]


@dataclass(frozen=True, slots=True)
class DPConfig:
    """Privacy parameters of one release."""

    epsilon: float = 1.0
    #: candidate itemsets are mined at ``candidate_fraction × min_support``
    #: so borderline-frequent sets can survive positive noise
    candidate_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise ValueError("candidate_fraction must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class DPMiningResult:
    """A private release plus its accounting."""

    itemsets: FrequentItemsets
    epsilon: float
    n_candidates: int
    noise_scale: float


def dp_mine_frequent_itemsets(
    db: TransactionDatabase,
    config: MiningConfig = MiningConfig(),
    privacy: DPConfig = DPConfig(),
) -> DPMiningResult:
    """Release an ε-DP frequent-itemset table.

    1. mine candidates at the lowered threshold (non-private step over
       the curator's data — standard central-DP setting);
    2. add Laplace(k/ε) noise to every candidate count;
    3. keep candidates whose *noisy* count clears the real threshold.

    Released counts are the noisy ones (clipped into [0, |D|]), so any
    downstream rule metric is computed purely from private quantities.
    """
    n = len(db)
    miner = ALGORITHMS[config.algorithm]
    candidate_support = config.min_support * privacy.candidate_fraction
    candidates = miner(db, candidate_support, config.max_len)
    k = len(candidates)
    if k == 0:
        empty = FrequentItemsets({}, db.vocabulary, n, config.min_support, config.max_len)
        return DPMiningResult(empty, privacy.epsilon, 0, 0.0)

    scale = k / privacy.epsilon
    rng = np.random.default_rng(privacy.seed)
    noise = rng.laplace(0.0, scale, size=k)
    min_count = min_support_count(n, config.min_support)

    released: dict[frozenset[int], int] = {}
    for (itemset, count), eps_noise in zip(sorted(candidates.items(), key=lambda p: sorted(p[0])), noise):
        noisy = count + eps_noise
        if noisy >= min_count:
            released[itemset] = int(np.clip(round(noisy), 0, n))
    return DPMiningResult(
        itemsets=FrequentItemsets(
            released, db.vocabulary, n, config.min_support, config.max_len
        ),
        epsilon=privacy.epsilon,
        n_candidates=k,
        noise_scale=scale,
    )


def recovery_f1(
    private: FrequentItemsets, reference: FrequentItemsets
) -> float:
    """F1 of the private itemset *family* against the non-private one."""
    released = set(private.counts)
    truth = set(reference.counts)
    if not released and not truth:
        return 1.0
    tp = len(released & truth)
    precision = tp / len(released) if released else 0.0
    recall = tp / len(truth) if truth else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
