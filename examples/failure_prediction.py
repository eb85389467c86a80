"""From rules to predictors — validating the paper's classifier takeaways.

The paper concludes that PAI job failures have "multiple strong rules",
so "a simple rule-based or tree-based classifier will suffice", while for
SuperCloud "more complex models such as neural networks will be needed".
This example runs that experiment end to end:

    python examples/failure_prediction.py [n_jobs]

1. mine failure rules on a 70 % train split of each trace, using only
   *submission-time* features for PAI (the information available before
   the job runs);
2. build the CBA-style rule classifier;
3. evaluate on the 30 % holdout and compare against the base rate.
"""

import sys

from repro import MiningConfig, RuleClassifier, evaluate_predictions, split_database
from repro.core import generate_rule_table, mine_frequent_itemsets
from repro.traces import get_trace

PAI_SUBMISSION_FEATURES = {
    "Freq User", "Moderate User", "Rare User",
    "Freq Group", "Moderate Group", "Rare Group",
    "GPU Request", "CPU Request", "Mem Request", "GPU Type",
    "Tensorflow", "PyTorch", "Other Framework", "Multiple Tasks",
}


def run(trace_name: str, n_jobs: int, allowed, min_confidence: float) -> None:
    definition = get_trace(trace_name)
    table = definition.generate_scaled(n_jobs=n_jobs)
    db = definition.make_preprocessor().run(table).database
    train, test = split_database(db, 0.7, seed=7)

    config = MiningConfig()
    rules = generate_rule_table(mine_frequent_itemsets(train, config), min_lift=1.5)
    clf = RuleClassifier.from_rules(
        rules, "Failed", allowed_features=allowed, min_confidence=min_confidence
    )
    report = evaluate_predictions(clf.predict(test), clf.labels(test))

    print(f"{definition.display_name}: {len(clf)} decision rules")
    print(f"  holdout: {report}")
    if clf.rules:
        print(f"  strongest rule: {clf.rules[0]}")
    if report.precision > 1.5 * report.base_rate and report.recall > 0.3:
        print("  → simple rule-based classifier suffices (paper's PAI takeaway)")
    else:
        print("  → weak; a more complex model would be needed "
              "(paper's SuperCloud/Philly takeaway)")
    print()


def main(n_jobs: int = 8000) -> None:
    run("pai", n_jobs, PAI_SUBMISSION_FEATURES, min_confidence=0.6)
    run("supercloud", n_jobs,
        {"Freq User", "Moderate User", "Rare User", "New User"},
        min_confidence=0.2)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8000)
