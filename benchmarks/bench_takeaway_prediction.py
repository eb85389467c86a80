"""Takeaway validation — rule-based prediction at the submission stage.

The paper's case-study takeaways make three falsifiable claims:

1. PAI underutilisation: "a prediction model can be used to identify jobs
   that tend to underutilize GPU cores at the job submission stage" —
   so a rule classifier over *submission-time* items must beat the base
   rate substantially.
2. PAI failure: "a simple rule-based or tree-based classifier will
   suffice for prediction of job failures" — same protocol, high
   precision.
3. SuperCloud failure: "more complex models such as neural networks will
   be needed" — the same simple classifier must do poorly there.

This bench runs the full protocol: mine on a 70 % train split, build the
CBA-style classifier, evaluate on the 30 % holdout.
"""

from __future__ import annotations

from repro.core import MiningConfig, generate_rule_table, mine_frequent_itemsets
from repro.predict import RuleClassifier, evaluate_predictions, split_database

from bench_util import write_artifact

#: features of a PAI job known before it runs (Sec. IV-B takeaway)
PAI_SUBMISSION_FEATURES = {
    "Freq User", "Moderate User", "Rare User",
    "Freq Group", "Moderate Group", "Rare Group",
    "GPU Request", "CPU Request", "Mem Request", "GPU Type",
    "Tensorflow", "PyTorch", "Other Framework", "Multiple Tasks",
}

#: SuperCloud submission-time features (no telemetry!)
SC_SUBMISSION_FEATURES = {
    "Freq User", "Moderate User", "Rare User", "New User",
}


def _evaluate(db, target, allowed, config, min_confidence):
    train, test = split_database(db, 0.7, seed=11)
    itemsets = mine_frequent_itemsets(train, config)
    table = generate_rule_table(itemsets, min_lift=config.min_lift)
    clf = RuleClassifier.from_table(
        table, target, allowed_features=allowed, min_confidence=min_confidence
    )
    report = evaluate_predictions(clf.predict(test), clf.labels(test))
    return clf, report


def test_takeaway_prediction(benchmark, all_results, paper_config):
    pai_db = all_results["PAI"].database
    sc_db = all_results["SuperCloud"].database

    # timed step: the full train→classify→evaluate protocol on PAI failure
    clf_fail, pai_fail = benchmark.pedantic(
        lambda: _evaluate(pai_db, "Failed", PAI_SUBMISSION_FEATURES, paper_config, 0.6),
        rounds=2,
        iterations=1,
    )

    _, pai_idle = _evaluate(
        pai_db, "SM Util = 0%", PAI_SUBMISSION_FEATURES, paper_config, 0.6
    )
    _, sc_fail = _evaluate(
        sc_db, "Failed", SC_SUBMISSION_FEATURES, paper_config, 0.2
    )

    lines = [
        "Takeaway validation — rule classifier at the submission stage",
        "",
        f"PAI: predict SM Util = 0%   {pai_idle}",
        f"PAI: predict Failed         {pai_fail}  ({len(clf_fail)} rules)",
        f"SuperCloud: predict Failed  {sc_fail}",
        "",
        "claims: PAI precision >> base rate (simple classifier suffices);",
        "SuperCloud F1 low (complex models needed).",
    ]
    text = "\n".join(lines)
    write_artifact("takeaway_prediction.txt", text)
    print("\n" + text)

    # 1+2: PAI targets are predictable from submission metadata alone
    assert pai_idle.precision > 1.3 * pai_idle.base_rate
    assert pai_idle.recall > 0.3
    assert pai_fail.precision > 1.5 * pai_fail.base_rate
    assert pai_fail.recall > 0.3
    # 3: the same classifier fails to capture SuperCloud failures
    assert sc_fail.f1 < 0.5
    assert sc_fail.f1 < pai_fail.f1
