"""Ablation — pruning parameters C_lift / C_supp (Sec. III-D).

The paper fixes C_lift = C_supp = 1.5 for all traces and argues the
thresholds "function more as filters rather than complex hyperparameters":
raising them prunes more, lowering them prunes less, monotonically.  This
bench sweeps both parameters on the PAI underutilisation rules and checks
that monotonicity — the property that makes the knobs easy to tune.
"""

from __future__ import annotations

from repro.core import PruningConfig, generate_rule_table, prune_rule_table
from repro.viz import series_table

from bench_util import write_artifact

SWEEP = [1.0, 1.25, 1.5, 2.0, 3.0]


def test_ablation_pruning_parameters(benchmark, all_results, all_itemsets, paper_config):
    keyword = "SM Util = 0%"
    db = all_results["PAI"].database
    kw_id = db.vocabulary.id_of(keyword)
    rules = generate_rule_table(
        all_itemsets["PAI"], min_lift=paper_config.min_lift, keyword_ids=(kw_id,)
    )

    benchmark.pedantic(
        lambda: prune_rule_table(rules, keyword, PruningConfig()), rounds=3, iterations=1
    )

    kept_by_clift = []
    for c in SWEEP:
        kept, _ = prune_rule_table(rules, keyword, PruningConfig(c_lift=c, c_supp=1.5))
        kept_by_clift.append(len(kept))
    kept_by_csupp = []
    for c in SWEEP:
        kept, _ = prune_rule_table(rules, keyword, PruningConfig(c_lift=1.5, c_supp=c))
        kept_by_csupp.append(len(kept))

    text = series_table(
        "C value",
        SWEEP,
        {"kept (C_lift sweep)": kept_by_clift, "kept (C_supp sweep)": kept_by_csupp},
        title=(
            f"Pruning ablation — PAI underutilization "
            f"({len(rules)} rules before pruning)"
        ),
    )
    write_artifact("ablation_pruning.txt", text)
    print("\n" + text)

    # a higher C_lift makes Conditions 1/3/4 fire more easily → fewer rules
    assert kept_by_clift == sorted(kept_by_clift, reverse=True)
    # every setting keeps at least something and prunes something
    assert 0 < min(kept_by_clift) and max(kept_by_clift) < len(rules)
