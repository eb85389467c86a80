"""Automated takeaways (paper Sec. IV–V).

The paper's rule tables end in "Takeaway" boxes; this example generates
them programmatically for every trace, behind the paper's observations
like "new users fail in Philly, frequent users fail in PAI":

    python examples/operational_insights.py [n_jobs]
"""

import sys

from repro.analysis import extract_insights
from repro.core import MiningConfig, mine_keyword_rules
from repro.traces import get_trace, list_traces


def main(n_jobs: int = 6000) -> None:
    config = MiningConfig()

    for name in list_traces():
        definition = get_trace(name)
        table = definition.generate_scaled(n_jobs=n_jobs)
        db = definition.make_preprocessor().run(table).database

        print(f"=== {definition.display_name} ===")
        for study, keyword in sorted(definition.keywords.items()):
            if study not in ("underutilization", "failure", "killed"):
                continue
            result = mine_keyword_rules(db, keyword, config)
            insights = extract_insights(result)
            if not insights:
                continue
            print(f"-- keyword {keyword!r}")
            for insight in insights:
                print(insight.render())
            print()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6000)
