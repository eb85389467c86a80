"""Mining-throughput benchmark: packed-bitmap kernels vs legacy paths.

Times the production kernels against their pre-kernel references on a
synthetic PAI trace at the paper's operating point (support = 5 %,
max_len = 5):

* FP-Growth — mask-projected kernel (:func:`repro.core.fpgrowth.fpgrowth`)
  vs the object tree (:func:`~repro.core.fpgrowth.fpgrowth_object`);
* Eclat / Apriori — packed uint64 bitsets vs the dense boolean matrix
  (:mod:`repro.core.legacy`);
* SON phase-2 counting — packed vs dense candidate counting;
* rule generation — the columnar RuleTable kernel
  (:func:`~repro.core.rules.generate_rule_table`) vs the legacy
  per-split object path (:func:`~repro.core.rules.generate_rules_legacy`),
  asserted bit-identical (same rules, same order);
* keyword pruning — the Conditions 1–4 subset-join kernel
  (:func:`~repro.core.pruning.prune_rule_table`).

Every comparison asserts *answer equality first* — a speedup over a
wrong answer is worthless — then reports wall times, jobs/s, rules/s and
speedups.  Results go to ``BENCH_mining.json`` (machine-readable, repo
root) and ``benchmarks/output/mining_throughput.txt`` (human-readable).

Usage::

    PYTHONPATH=src python benchmarks/bench_mining_throughput.py \
        [--n-jobs 100000] [--repeats 2] [--check-only]

``--check-only`` runs the equality assertions on a small trace and skips
artifact writing — the CI perf-smoke job (answers must match on every
platform; speed is only asserted locally at full scale).  In this mode
the rule-generation and pruning sweep covers all three traces (PAI,
Philly, SuperCloud) and every paper keyword of each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import write_artifact  # noqa: E402

from repro.core import MiningConfig  # noqa: E402
from repro.core.bitmap import clear_bitmap_cache  # noqa: E402
from repro.core.fpgrowth import fpgrowth, fpgrowth_object  # noqa: E402
from repro.core.eclat import eclat  # noqa: E402
from repro.core.apriori import apriori  # noqa: E402
from repro.core.items import as_item  # noqa: E402
from repro.core.itemsets import FrequentItemsets  # noqa: E402
from repro.core.legacy import (  # noqa: E402
    apriori_dense,
    count_candidates_dense,
    eclat_dense,
)
from repro.core.pruning import prune_rule_table, prune_rules_legacy  # noqa: E402
from repro.core.rules import (  # noqa: E402
    generate_rule_table,
    generate_rules_legacy,
)
from repro.parallel.partition import count_candidates  # noqa: E402
from repro.traces import (  # noqa: E402
    PAI_KEYWORDS,
    PAIConfig,
    PHILLY_KEYWORDS,
    PhillyConfig,
    SUPERCLOUD_KEYWORDS,
    SuperCloudConfig,
    generate_pai,
    generate_philly,
    generate_supercloud,
    pai_preprocessor,
    philly_preprocessor,
    supercloud_preprocessor,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_mining.json"


def _best_of(fn, repeats: int):
    """(best wall seconds, last result) over *repeats* runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(n_jobs: int, repeats: int, check_only: bool) -> dict:
    config = MiningConfig()  # paper defaults: support=0.05, max_len=5
    table = generate_pai(PAIConfig(n_jobs=n_jobs))
    db = pai_preprocessor().run(table).database
    n = len(db)

    stages: dict[str, float] = {}

    # bitmap build (cold), then mining reuses the cached build
    clear_bitmap_cache()
    t0 = time.perf_counter()
    db.bitmaps()
    stages["bitmap-build"] = time.perf_counter() - t0

    pairs = {
        "fpgrowth": (fpgrowth, fpgrowth_object),
        "eclat": (eclat, eclat_dense),
        "apriori": (apriori, apriori_dense),
    }
    speedups: dict[str, float] = {}
    reference = None
    for name, (kernel_fn, legacy_fn) in pairs.items():
        k_sec, k_out = _best_of(
            lambda f=kernel_fn: f(db, config.min_support, config.max_len), repeats
        )
        l_sec, l_out = _best_of(
            lambda f=legacy_fn: f(db, config.min_support, config.max_len), repeats
        )
        assert k_out == l_out, f"{name}: kernel and legacy answers differ"
        if reference is None:
            reference = k_out
        else:
            assert k_out == reference, f"{name}: differs from fpgrowth"
        stages[f"mine-{name}-kernel"] = k_sec
        stages[f"mine-{name}-legacy"] = l_sec
        speedups[name] = l_sec / k_sec if k_sec > 0 else float("inf")

    # SON phase 2: exact candidate counting, packed vs dense
    candidates = set(reference)
    c_sec, packed_counts = _best_of(
        lambda: count_candidates(db, candidates), repeats
    )
    d_sec, dense_counts = _best_of(
        lambda: count_candidates_dense(db, candidates), repeats
    )
    assert packed_counts == dense_counts, "phase-2 counting answers differ"
    stages["count-candidates-kernel"] = c_sec
    stages["count-candidates-legacy"] = d_sec
    speedups["count-candidates"] = d_sec / c_sec if c_sec > 0 else float("inf")

    # rule generation over the mined itemsets: columnar kernel vs legacy
    # object path, bit-identical output in identical order
    itemsets = FrequentItemsets(
        dict(reference), db.vocabulary, n, config.min_support, config.max_len
    )
    rk_sec, rule_table = _best_of(
        lambda: generate_rule_table(itemsets, min_lift=config.min_lift), repeats
    )
    rl_sec, legacy_rules = _best_of(
        lambda: generate_rules_legacy(itemsets, min_lift=config.min_lift), repeats
    )
    rules = rule_table.to_rules()
    assert rules == legacy_rules, "generate-rules: kernel and legacy differ"
    stages["generate-rules-kernel"] = rk_sec
    stages["generate-rules-legacy"] = rl_sec
    speedups["generate-rules"] = rl_sec / rk_sec if rk_sec > 0 else float("inf")

    # keyword pruning (Conditions 1-4 kernel) on the paper's PAI
    # underutilisation keyword — the engine's prune stage
    prune_kw = as_item(PAI_KEYWORDS["underutilization"])
    kw_id = db.vocabulary.get_id(prune_kw)
    assert kw_id is not None, "PAI trace lost its underutilisation keyword"
    kw_table = generate_rule_table(
        itemsets, min_lift=config.min_lift, keyword_ids=(kw_id,)
    )
    p_sec, pruned = _best_of(
        lambda: prune_rule_table(kw_table, prune_kw), repeats
    )
    kept_table, prune_report = pruned
    stages["prune-kernel"] = p_sec

    kernel_mine = stages["mine-fpgrowth-kernel"]
    legacy_mine = stages["mine-fpgrowth-legacy"]
    rules_stage = stages["generate-rules-kernel"] + stages["prune-kernel"]
    payload = {
        "trace": "pai",
        "n_jobs": n_jobs,
        "n_transactions": n,
        "min_support": config.min_support,
        "max_len": config.max_len,
        "repeats": repeats,
        "n_itemsets": len(reference),
        "n_rules": len(rules),
        "n_keyword_rules": len(kw_table),
        "n_rules_kept_after_prune": len(kept_table),
        "answers_equal": True,
        "stages_seconds": stages,
        "jobs_per_s": {
            "kernel": n / kernel_mine if kernel_mine > 0 else float("inf"),
            "legacy": n / legacy_mine if legacy_mine > 0 else float("inf"),
        },
        "rules_per_s": {
            "kernel": len(rules) / rk_sec if rk_sec > 0 else float("inf"),
            "legacy": len(rules) / rl_sec if rl_sec > 0 else float("inf"),
        },
        "generate_plus_prune_seconds": rules_stage,
        "generate_plus_prune_vs_mine": (
            rules_stage / kernel_mine if kernel_mine > 0 else float("inf")
        ),
        "speedup": {**speedups, "end_to_end_mine": speedups["fpgrowth"]},
    }

    if not check_only:
        # merge-preserve: other benches (bench_shm_swap.py) park their
        # own sections in the same artifact
        doc = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
        doc.update(payload)
        JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        lines = [
            "Mining throughput — packed-bitmap kernels vs legacy paths",
            f"PAI trace, {n_jobs} jobs ({n} transactions), "
            f"support={config.min_support}, max_len={config.max_len}, "
            f"best of {repeats}",
            "",
            f"{'stage':<28} {'kernel':>10} {'legacy':>10} {'speedup':>9}",
        ]
        for name in (
            "fpgrowth",
            "eclat",
            "apriori",
            "count-candidates",
            "generate-rules",
        ):
            prefix = f"mine-{name}" if name in pairs else name
            k = stages[f"{prefix}-kernel"]
            l = stages[f"{prefix}-legacy"]
            lines.append(
                f"{name:<28} {k:>9.3f}s {l:>9.3f}s {speedups[name]:>8.2f}x"
            )
        lines += [
            f"{'bitmap-build':<28} {stages['bitmap-build']:>9.3f}s",
            f"{'prune-kernel':<28} {stages['prune-kernel']:>9.3f}s",
            "",
            f"jobs/s (fpgrowth mine): kernel {payload['jobs_per_s']['kernel']:,.0f}"
            f" / legacy {payload['jobs_per_s']['legacy']:,.0f}",
            f"rules/s (generation):   kernel {payload['rules_per_s']['kernel']:,.0f}"
            f" / legacy {payload['rules_per_s']['legacy']:,.0f}",
            f"generate+prune {rules_stage:.3f}s vs mine-fpgrowth-kernel "
            f"{kernel_mine:.3f}s "
            f"({payload['generate_plus_prune_vs_mine']:.2f}x of mine)",
            f"itemsets: {len(reference)}, rules: {len(rules)}, "
            f"keyword rules: {len(kw_table)} → {len(kept_table)} kept "
            f"({prune_report.n_pruned} pruned)"
            " — all kernel/legacy answers identical",
        ]
        text = "\n".join(lines)
        write_artifact("mining_throughput.txt", text)
        print(text)
    else:
        print(
            f"check-only [pai n={n_jobs}]: {len(reference)} itemsets, "
            f"{len(rules)} rules, prune kept {len(kept_table)}/{len(kw_table)} — "
            "kernel and legacy answers identical on all paths"
        )
    return payload


#: trace registry for the check-only rule/prune equality sweep
_SWEEP_TRACES = {
    "pai": (generate_pai, PAIConfig, pai_preprocessor, PAI_KEYWORDS),
    "philly": (generate_philly, PhillyConfig, philly_preprocessor, PHILLY_KEYWORDS),
    "supercloud": (
        generate_supercloud,
        SuperCloudConfig,
        supercloud_preprocessor,
        SUPERCLOUD_KEYWORDS,
    ),
}


def check_rules_sweep(n_jobs: int) -> None:
    """Assert kernel == legacy for generation AND pruning on every trace.

    For each of the three traces: the full rule table must match the
    legacy object path bit-for-bit (same rules, same order), and for
    every paper keyword the vectorised Conditions 1–4 kernel must keep
    exactly the rules the legacy oracle keeps, with identical
    per-condition prune counts.
    """
    config = MiningConfig()
    for trace, (generate, trace_config, preprocessor, keywords) in (
        _SWEEP_TRACES.items()
    ):
        db = preprocessor().run(generate(trace_config(n_jobs=n_jobs))).database
        counts = fpgrowth(db, config.min_support, config.max_len)
        itemsets = FrequentItemsets(
            dict(counts), db.vocabulary, len(db), config.min_support, config.max_len
        )
        table = generate_rule_table(itemsets, min_lift=config.min_lift)
        legacy = generate_rules_legacy(itemsets, min_lift=config.min_lift)
        assert table.to_rules() == legacy, (
            f"{trace}: generate-rules kernel and legacy differ"
        )
        n_pruned_checks = 0
        for kw_text in keywords.values():
            kw = as_item(kw_text)
            kw_id = db.vocabulary.get_id(kw)
            if kw_id is None:
                continue
            kw_table = generate_rule_table(
                itemsets, min_lift=config.min_lift, keyword_ids=(kw_id,)
            )
            kept_table, report = prune_rule_table(kw_table, kw)
            kept_legacy, report_legacy = prune_rules_legacy(kw_table.to_rules(), kw)
            assert kept_table.to_rules() == kept_legacy, (
                f"{trace}/{kw_text}: prune kernel and legacy keep different rules"
            )
            assert report.pruned_by_condition == report_legacy.pruned_by_condition, (
                f"{trace}/{kw_text}: per-condition prune counts differ"
            )
            assert (report.n_input, report.n_kept) == (
                report_legacy.n_input,
                report_legacy.n_kept,
            ), f"{trace}/{kw_text}: prune report totals differ"
            n_pruned_checks += 1
        print(
            f"check-only [{trace} n={n_jobs}]: {len(table)} rules bit-identical "
            f"to legacy; pruning equal on {n_pruned_checks} keyword(s)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-jobs", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="assert kernel/legacy answer equality only; write no artifacts",
    )
    args = parser.parse_args(argv)
    run(args.n_jobs, args.repeats, args.check_only)
    if args.check_only:
        check_rules_sweep(args.n_jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
