"""Streaming monitoring: watching failure rules drift in a live window.

The paper's workflow is batch, but its intro motivates continuous
re-analysis and its related work points at streaming miners.  This
example replays a SuperCloud trace as an event stream into a sliding
window, re-mines the failure rules periodically, and diffs consecutive
rule sets — simulating an operator dashboard that flags regime changes
(here: a planted mid-stream incident where one node pool starts killing
jobs).

    python examples/streaming_monitor.py
"""

import numpy as np

from repro.analysis.drift import diff_rules
from repro.core import MiningConfig, generate_rules
from repro.engine import MiningEngine
from repro.streaming import StreamingBitmapWindow
from repro.traces import SuperCloudConfig, generate_supercloud, supercloud_preprocessor


def main() -> None:
    # one fixed encoding for the whole stream, so windows share item ids
    table = generate_supercloud(SuperCloudConfig(n_jobs=9000, use_scheduler=False))
    db = supercloud_preprocessor().run(table).database

    # replay transactions in submission order; inject an incident in the
    # last third (a burst of failing, zero-utilisation jobs)
    incident = [
        ["Failed", "SM Util = 0%", "GMem Util = Bin1", "GPU Power = Bin1"]
    ] * 900

    config = MiningConfig(min_support=0.05, min_lift=1.5, max_len=3)
    engine = MiningEngine()
    # the window shares the trace's vocabulary (rounded up to whole
    # 64-transaction granules: it holds the last ~3,000 jobs)
    window = StreamingBitmapWindow(3000, vocabulary=db.vocabulary)
    kw_id = db.vocabulary.id_of("Failed")

    def mine_failure_rules():
        itemsets = engine.mine(window.snapshot(), config)
        return generate_rules(itemsets, min_lift=1.5, keyword_ids=(kw_id,))

    previous = None
    checkpoints = []
    stream = list(db.iter_item_transactions())
    stream = stream[:6000] + incident + stream[6000:]
    for position, txn in enumerate(stream, 1):
        window.observe(txn)
        if position % 3000 == 0:
            rules = mine_failure_rules()
            fail_rate = window.item_support("Failed")
            print(
                f"after {position:>5} jobs: window failure rate "
                f"{fail_rate:.1%}, {len(rules)} failure rules"
            )
            if previous is not None:
                drift = diff_rules(previous, rules)
                print("  " + drift.render(limit=2).replace("\n", "\n  "))
            checkpoints.append((position, fail_rate, len(rules)))
            previous = rules
            print()

    rates = [rate for _, rate, _ in checkpoints]
    print(f"failure-rate trajectory across windows: "
          f"{' → '.join(f'{r:.1%}' for r in rates)}")
    assert max(rates) > 1.5 * rates[0], "the incident must be visible"


if __name__ == "__main__":
    main()
