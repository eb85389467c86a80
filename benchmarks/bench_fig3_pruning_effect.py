"""Fig. 3 — rule scatter (support × lift) before vs after pruning, PAI.

The paper visualises every extracted GPU-underutilisation rule of the PAI
trace as a (support, lift) point and shows that Conditions 1–4 remove the
bulk of them — concentrated at low lift — leaving a human-readable set.
"""

from __future__ import annotations

import numpy as np

from repro.core import generate_rule_table, prune_rule_table
from repro.viz import pruning_scatter

from bench_util import write_artifact


def test_fig3_pruning_effect(benchmark, all_results, all_itemsets, paper_config):
    pai = all_results["PAI"]
    keyword = "SM Util = 0%"
    kw_id = pai.database.vocabulary.id_of(keyword)
    before = generate_rule_table(
        all_itemsets["PAI"], min_lift=paper_config.min_lift, keyword_ids=(kw_id,)
    )

    # timed step: the pruning pass itself
    after, report = benchmark.pedantic(
        lambda: prune_rule_table(before, keyword, paper_config.pruning),
        rounds=3,
        iterations=1,
    )

    panels = pruning_scatter(before, after)
    b, a = panels["before"], panels["after"]

    lines = [
        "Fig. 3 — PAI underutilization rules before/after pruning",
        "",
        f"rules before pruning : {len(b)}",
        f"rules after pruning  : {len(a)}",
        f"reduction            : {1 - len(a) / len(b):.1%}",
        str(report),
        "",
        f"lift  (before): median={np.median(b.lift):.2f}  p90={np.quantile(b.lift, 0.9):.2f}",
        f"lift  (after) : median={np.median(a.lift):.2f}  p90={np.quantile(a.lift, 0.9):.2f}",
        f"supp  (before): median={np.median(b.support):.3f}",
        f"supp  (after) : median={np.median(a.support):.3f}",
    ]
    text = "\n".join(lines)
    write_artifact("fig3_pruning_effect.txt", text)
    print("\n" + text)

    # shape: substantial reduction; the strongest rule family survives
    assert len(a) < 0.35 * len(b), "pruning must remove the bulk of rules"
    assert a.lift.max() >= 0.9 * b.lift.max()
    assert a.lift.min() >= 1.5  # the lift floor still holds after pruning
