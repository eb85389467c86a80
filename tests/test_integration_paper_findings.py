"""End-to-end integration: the workflow must recover the paper's findings.

Each test mines a synthetic trace with the paper's exact parameters
(min-support 5 %, max length 5, min-lift 1.5, C_lift = C_supp = 1.5) and
asserts that the *shape* of the corresponding table survives: the planted
antecedent→consequent families exist among the kept rules with lift above
the paper's floor.  Exact metric values are not asserted — the substrate
is a simulator, not the production clusters.
"""

import pytest

from repro.core import Item, MiningConfig, mine_keyword_rules, mine_frequent_itemsets


def rules_with(rules, antecedent_parts=(), consequent_parts=()):
    """Rules whose sides contain all the given item texts."""
    out = []
    for rule in rules:
        ant = {i.render() for i in rule.antecedent}
        cons = {i.render() for i in rule.consequent}
        if set(antecedent_parts) <= ant and set(consequent_parts) <= cons:
            out.append(rule)
    return out


@pytest.fixture(scope="module")
def pai_rules(pai_db):
    cfg = MiningConfig()
    fis = mine_frequent_itemsets(pai_db, cfg)
    return {
        "underutil": mine_keyword_rules(pai_db, "SM Util = 0%", cfg, itemsets=fis),
        "failure": mine_keyword_rules(pai_db, "Failed", cfg, itemsets=fis),
    }


@pytest.fixture(scope="module")
def sc_rules(supercloud_db):
    cfg = MiningConfig()
    fis = mine_frequent_itemsets(supercloud_db, cfg)
    return {
        "underutil": mine_keyword_rules(supercloud_db, "SM Util = 0%", cfg, itemsets=fis),
        "failure": mine_keyword_rules(supercloud_db, "Failed", cfg, itemsets=fis),
        "killed": mine_keyword_rules(supercloud_db, "Job Killed", cfg, itemsets=fis),
    }


@pytest.fixture(scope="module")
def philly_rules(philly_db):
    cfg = MiningConfig()
    fis = mine_frequent_itemsets(philly_db, cfg)
    return {
        "underutil": mine_keyword_rules(philly_db, "SM Util = 0%", cfg, itemsets=fis),
        "failure": mine_keyword_rules(philly_db, "Failed", cfg, itemsets=fis),
        "multi": mine_keyword_rules(philly_db, "Multi-GPU", cfg, itemsets=fis),
    }


class TestTable2PaiUnderutilization:
    def test_low_memory_signals_idle_gpu(self, pai_rules):
        # C2: Memory Used = Bin1 ⇒ SM Util = 0%
        hits = rules_with(
            pai_rules["underutil"].cause,
            antecedent_parts=["Memory Used = Bin1"],
        )
        assert hits
        assert max(r.confidence for r in hits) > 0.6

    def test_low_cpu_and_short_runtime_signal(self, pai_rules):
        # C4 family: CPU Util = Bin1 (+ Runtime = Bin1) ⇒ SM Util = 0%
        hits = rules_with(
            pai_rules["underutil"].all_rules,
            antecedent_parts=["CPU Util = Bin1"],
        )
        assert hits

    def test_characteristics_include_low_customisation(self, pai_rules):
        # A1/A2: idle jobs ⇒ {Tensorflow, GPU Type = None, Std requests}
        char = pai_rules["underutil"].characteristic
        tf = rules_with(char, consequent_parts=["Tensorflow"])
        assert tf, "Tensorflow must appear as an idle-job characteristic"
        none_type = rules_with(char, consequent_parts=["GPU Type = None"])
        assert none_type

    def test_all_rules_clear_paper_thresholds(self, pai_rules):
        for rule in pai_rules["underutil"].all_rules:
            assert rule.support >= 0.05 - 1e-9
            assert rule.lift >= 1.5
            assert len(rule.item_ids) <= 5


class TestTable5PaiFailure:
    def test_bulk_user_group_failures(self, pai_rules):
        # C1/C3 family: {CPU Request = Bin1, Freq Group} ⇒ Failed
        hits = rules_with(
            pai_rules["failure"].cause,
            antecedent_parts=["Freq Group"],
            consequent_parts=["Failed"],
        )
        assert hits
        assert max(r.confidence for r in hits) > 0.7  # paper: 0.91–0.95

    def test_zero_gmem_predicts_failure(self, pai_rules):
        # C4 family: GMem Used = 0GB ⇒ Failed
        hits = rules_with(
            pai_rules["failure"].all_rules,
            antecedent_parts=["GMem Used = 0GB"],
        )
        assert hits

    def test_failed_jobs_share_underutilization_traits(self, pai_rules):
        # A2: Failed ⇒ {…, SM Util = 0%}: the failure/underutilisation link
        hits = rules_with(
            pai_rules["failure"].characteristic,
            antecedent_parts=["Failed"],
            consequent_parts=["SM Util = 0%"],
        )
        assert hits


class TestTable3SuperCloudUnderutilization:
    def test_low_gmem_and_variance_cause_rules(self, sc_rules):
        hits = rules_with(
            sc_rules["underutil"].cause,
            antecedent_parts=["GMem Util = Bin1"],
        )
        assert hits
        assert max(r.confidence for r in hits) > 0.5

    def test_low_power_signal(self, sc_rules):
        # C2/C3: GPU Power = Bin1 appears among idle-GPU antecedents
        hits = rules_with(
            sc_rules["underutil"].all_rules,
            antecedent_parts=["GPU Power = Bin1"],
        )
        assert hits

    def test_idle_jobs_have_low_memory_profile(self, sc_rules):
        # A1: SM Util = 0% ⇒ GMem {Util, Used} = Bin1 …
        hits = rules_with(
            sc_rules["underutil"].characteristic,
            antecedent_parts=["SM Util = 0%"],
            consequent_parts=["GMem Util = Bin1"],
        )
        assert hits
        assert max(r.lift for r in hits) > 3.0  # paper: 4.3–10.6


class TestTable6SuperCloudFailure:
    def test_low_gmem_util_failure_lift(self, sc_rules):
        # C1: GMem Util = Bin1 ⇒ Failed (low conf, lift ≈ 2)
        hits = rules_with(
            sc_rules["failure"].cause,
            antecedent_parts=["GMem Util = Bin1"],
            consequent_parts=["Failed"],
        )
        assert hits
        best = max(hits, key=lambda r: r.lift)
        assert best.confidence < 0.6  # weak predictor, like the paper
        assert best.lift > 1.5

    def test_long_runtime_failures_exist(self, sc_rules):
        # A2: Failed ⇒ Runtime = Bin4 (late failures waste compute)
        hits = rules_with(
            sc_rules["failure"].characteristic,
            antecedent_parts=["Failed"],
            consequent_parts=["Runtime = Bin4"],
        )
        assert hits


class TestCir1SuperCloudKills:
    def test_new_users_kill_jobs(self, sc_rules):
        hits = rules_with(
            sc_rules["killed"].cause,
            antecedent_parts=["New User"],
            consequent_parts=["Job Killed"],
        )
        assert hits
        best = max(hits, key=lambda r: r.lift)
        assert best.lift > 1.5  # paper: 1.75


class TestTable4PhillyUnderutilization:
    def test_low_cpu_cause(self, philly_rules):
        # C2: CPU Util = Bin1 ⇒ SM Util = 0%
        hits = rules_with(
            philly_rules["underutil"].cause,
            antecedent_parts=["CPU Util = Bin1"],
            consequent_parts=["SM Util = 0%"],
        )
        assert hits
        assert max(r.confidence for r in hits) > 0.6  # paper: 0.69

    def test_min_sm_util_feature_used(self, philly_rules):
        # C1/A1 use the 1-minute-granularity min-SM feature
        hits = rules_with(
            philly_rules["underutil"].all_rules,
            antecedent_parts=["Min SM Util = 0%"],
        ) or rules_with(
            philly_rules["underutil"].all_rules,
            consequent_parts=["Min SM Util = 0%"],
        )
        assert hits


class TestTable7PhillyFailure:
    def test_multi_gpu_failure(self, philly_rules):
        # C1: Multi-GPU ⇒ Failed, lift ≈ 2.55
        hits = rules_with(
            philly_rules["failure"].cause,
            antecedent_parts=["Multi-GPU"],
            consequent_parts=["Failed"],
        )
        assert hits
        assert max(r.lift for r in hits) > 1.5

    def test_multi_gpu_failure_is_philly_only(self, philly_rules, sc_rules):
        # Sec. IV-C/V: the multi-GPU failure signal is specific to Philly;
        # no SuperCloud Failed rule mentions Multi-GPU on either side
        assert rules_with(
            philly_rules["failure"].cause,
            antecedent_parts=["Multi-GPU"],
            consequent_parts=["Failed"],
        )
        sc_failed = sc_rules["failure"].all_rules
        assert sc_failed
        assert not [
            r for r in sc_failed
            if any("Multi-GPU" in i.render() for i in r.antecedent | r.consequent)
        ]

    def test_new_user_failure(self, philly_rules):
        # C2: New User ⇒ Failed, lift ≈ 2.46
        hits = rules_with(
            philly_rules["failure"].cause,
            antecedent_parts=["New User"],
            consequent_parts=["Failed"],
        )
        assert hits

    def test_retry_characteristic(self, philly_rules):
        # A1: {Min SM Util = 0%, Failed} ⇒ Num Attempts > 1
        hits = rules_with(
            philly_rules["failure"].characteristic,
            antecedent_parts=["Failed"],
            consequent_parts=["Num Attempts > 1"],
        )
        assert hits


class TestPhi1PhillyMultiGpu:
    def test_multi_gpu_long_runtime(self, philly_rules):
        # PHI1: Multi-GPU ⇒ Runtime = Bin4
        hits = rules_with(
            philly_rules["multi"].characteristic,
            antecedent_parts=["Multi-GPU"],
            consequent_parts=["Runtime = Bin4"],
        )
        assert hits
        assert max(r.lift for r in hits) > 1.5  # paper: 2.01
