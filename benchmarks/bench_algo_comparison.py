"""Algorithm comparison — FP-Growth vs Apriori vs Eclat (Sec. III-C).

The paper chooses FP-Growth over Apriori for "performance issues
(exponential runtime and memory requirements) … when the database is
large".  This bench times the three miners on the same preprocessed PAI
database at the paper's parameters and checks they return identical
results (the choice is about speed, never about the answer).  Each
miner is called directly; the production workflow always runs FP-Growth.
"""

from __future__ import annotations

import pytest

from repro.core import MiningConfig
from repro.core.apriori import apriori, apriori_naive
from repro.core.eclat import eclat
from repro.core.fpgrowth import fpgrowth

from bench_util import write_artifact

MINERS = {"apriori": apriori, "eclat": eclat, "fpgrowth": fpgrowth}
PAPER = MiningConfig()


def mine(algorithm, db):
    """*db*'s frequent itemsets by *algorithm* at the paper's parameters."""
    return MINERS[algorithm](db, PAPER.min_support, PAPER.max_len)


@pytest.mark.parametrize("algorithm", sorted(MINERS))
def test_algo_runtime(benchmark, all_results, algorithm):
    db = all_results["PAI"].database
    result = benchmark.pedantic(lambda: mine(algorithm, db), rounds=3, iterations=1)
    assert len(result) > 0


def test_naive_apriori_runtime(benchmark, all_results):
    """The textbook per-transaction-scan Apriori the paper argues against.

    Run on a subsample (it is the slow baseline by design) and checked
    for answer equality against FP-Growth on the same subsample.
    """
    db = all_results["PAI"].database.sample(range(2000))
    result = benchmark.pedantic(
        lambda: apriori_naive(db, 0.05, 5), rounds=2, iterations=1
    )
    assert result == fpgrowth(db, 0.05, 5)


def test_algo_equivalence(benchmark, all_results):
    """All three miners agree bit-for-bit on every trace."""
    benchmark.pedantic(
        lambda: mine("eclat", all_results["Philly"].database), rounds=2, iterations=1
    )
    lines = ["Algorithm equivalence at min_support=0.05, max_len=5", ""]
    for name, result in all_results.items():
        counts = {
            algorithm: mine(algorithm, result.database) for algorithm in sorted(MINERS)
        }
        reference = counts["fpgrowth"]
        for algorithm, c in counts.items():
            assert c == reference, f"{algorithm} differs on {name}"
        lines.append(f"{name:<12} {len(reference):>7} itemsets — all algorithms agree")
    text = "\n".join(lines)
    write_artifact("algo_equivalence.txt", text)
    print("\n" + text)
