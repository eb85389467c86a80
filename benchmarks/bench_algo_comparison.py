"""Algorithm comparison — FP-Growth vs Apriori vs Eclat (Sec. III-C).

The paper chooses FP-Growth over Apriori for "performance issues
(exponential runtime and memory requirements) … when the database is
large".  This bench times the three miners on the same preprocessed PAI
database at the paper's parameters and checks they return identical
results (the choice is about speed, never about the answer).
"""

from __future__ import annotations

import pytest

from repro.core import ALGORITHMS, MiningConfig, mine_frequent_itemsets
from repro.engine import MiningEngine

from bench_util import write_artifact

#: cache disabled so every timed round measures a real mining pass —
#: the engine cache would answer rounds 2+ in microseconds otherwise
UNCACHED = MiningEngine(cache=False)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algo_runtime(benchmark, all_results, algorithm):
    db = all_results["PAI"].database
    config = MiningConfig(algorithm=algorithm)
    result = benchmark.pedantic(
        lambda: UNCACHED.mine(db, config), rounds=3, iterations=1
    )
    assert len(result) > 0


def test_naive_apriori_runtime(benchmark, all_results):
    """The textbook per-transaction-scan Apriori the paper argues against.

    Run on a subsample (it is the slow baseline by design) and checked
    for answer equality against FP-Growth on the same subsample.
    """
    from repro.core import apriori_naive, fpgrowth

    db = all_results["PAI"].database.sample(range(2000))
    result = benchmark.pedantic(
        lambda: apriori_naive(db, 0.05, 5), rounds=2, iterations=1
    )
    assert result == fpgrowth(db, 0.05, 5)


def test_algo_equivalence(benchmark, all_results):
    """All three miners agree bit-for-bit on every trace."""
    benchmark.pedantic(
        lambda: mine_frequent_itemsets(
            all_results["Philly"].database, MiningConfig(algorithm="eclat")
        ),
        rounds=2,
        iterations=1,
    )
    lines = ["Algorithm equivalence at min_support=0.05, max_len=5", ""]
    for name, result in all_results.items():
        counts = {}
        for algorithm in sorted(ALGORITHMS):
            fis = mine_frequent_itemsets(
                result.database, MiningConfig(algorithm=algorithm)
            )
            counts[algorithm] = fis.counts
        reference = counts["fpgrowth"]
        for algorithm, c in counts.items():
            assert c == reference, f"{algorithm} differs on {name}"
        lines.append(f"{name:<12} {len(reference):>7} itemsets — all algorithms agree")
    text = "\n".join(lines)
    write_artifact("algo_equivalence.txt", text)
    print("\n" + text)
