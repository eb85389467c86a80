"""Quickstart — the analysis workflow in five minutes.

Runs the full interpretable-analysis pipeline of the paper on a small
synthetic SuperCloud trace and prints paper-style rule tables:

    python examples/quickstart.py

Steps shown:
1. generate a trace (a merged scheduler + telemetry job table);
2. run preprocessing → FP-Growth → rule generation → keyword pruning;
3. read the cause ("C") and characteristic ("A") rules.
"""

from repro import MiningConfig, full_case_study


def main() -> None:
    # One call drives everything: Sec. III preprocessing + mining with the
    # paper's parameters (min-support 5 %, max length 5, min-lift 1.5,
    # C_lift = C_supp = 1.5) and the Sec. IV case studies.
    study = full_case_study(
        "supercloud",
        n_jobs=6000,
        config=MiningConfig(),  # the paper's defaults, spelled out
    )
    print(study.render())

    # The analysis object gives programmatic access to everything the
    # report printed:
    underutil = study.analysis["underutilization"]
    print(f"kept {len(underutil)} underutilization rules "
          f"({underutil.report.n_pruned} pruned)")
    strongest = max(underutil.all_rules, key=lambda r: r.lift)
    print(f"strongest rule: {strongest}")


if __name__ == "__main__":
    main()
