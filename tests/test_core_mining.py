"""Unit tests for the mining orchestrator and MiningConfig."""

import pytest

from repro.core import (
    KeywordRuleSet,
    MiningConfig,
    mine_frequent_itemsets,
    generate_rule_table,
    mine_keyword_rules,
)
from repro.core.apriori import apriori
from repro.core.eclat import eclat
from repro.core.fpgrowth import fpgrowth

MINERS = {"apriori": apriori, "eclat": eclat, "fpgrowth": fpgrowth}


class TestMiningConfig:
    def test_paper_defaults(self):
        cfg = MiningConfig()
        assert cfg.min_support == 0.05
        assert cfg.max_len == 5
        assert cfg.min_lift == 1.5
        assert cfg.c_lift == 1.5
        assert cfg.c_supp == 1.5

    def test_with_override(self):
        cfg = MiningConfig().with_(min_support=0.1)
        assert cfg.min_support == 0.1
        assert cfg.max_len == 5

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            MiningConfig(min_support=-0.1)

    def test_no_algorithm_field(self):
        # FP-Growth is the only production miner: there is nothing to pick
        with pytest.raises(TypeError):
            MiningConfig(algorithm="apriori")

    def test_invalid_min_lift(self):
        with pytest.raises(ValueError, match="min_lift must be >= 0"):
            MiningConfig(min_lift=-0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_invalid_min_confidence(self, value):
        with pytest.raises(ValueError, match=r"min_confidence must be in \[0, 1\]"):
            MiningConfig(min_confidence=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_invalid_max_len(self, value):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            MiningConfig(max_len=value)

    def test_max_len_none_allowed(self):
        assert MiningConfig(max_len=None).max_len is None

    @pytest.mark.parametrize("field", ["c_lift", "c_supp"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_invalid_pruning_constants(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            MiningConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = MiningConfig(min_lift=0.0, min_confidence=1.0, max_len=1)
        assert cfg.min_lift == 0.0

    def test_pruning_view(self):
        cfg = MiningConfig(c_lift=2.0, c_supp=3.0)
        assert cfg.pruning.c_lift == 2.0
        assert cfg.pruning.c_supp == 3.0


class TestMineFrequentItemsets:
    @pytest.mark.parametrize("algorithm", sorted(MINERS))
    def test_all_algorithms_run(self, toy_db, algorithm):
        counts = MINERS[algorithm](toy_db, 0.4, 5)
        assert len(counts) > 0

    def test_algorithms_agree_through_orchestrator(self, toy_db):
        fis = mine_frequent_itemsets(toy_db, MiningConfig(min_support=0.4))
        assert fis.n_transactions == len(toy_db)
        for miner in MINERS.values():
            assert fis.counts == miner(toy_db, 0.4, 5), miner.__name__


class TestMineKeywordRules:
    def test_split_into_cause_and_characteristic(self, toy_db):
        cfg = MiningConfig(min_support=0.4, min_lift=1.0)
        result = mine_keyword_rules(toy_db, "beer", cfg)
        assert isinstance(result, KeywordRuleSet)
        beer = result.keyword
        assert all(beer in r.consequent for r in result.cause)
        assert all(beer in r.antecedent for r in result.characteristic)
        assert len(result) == len(result.cause) + len(result.characteristic)

    def test_unknown_keyword_empty_result(self, toy_db):
        result = mine_keyword_rules(toy_db, "unobtainium", MiningConfig())
        assert len(result) == 0
        assert result.n_rules_before_pruning == 0

    def test_precomputed_itemsets_reused(self, toy_db):
        cfg = MiningConfig(min_support=0.4, min_lift=1.0)
        fis = mine_frequent_itemsets(toy_db, cfg)
        a = mine_keyword_rules(toy_db, "beer", cfg, itemsets=fis)
        b = mine_keyword_rules(toy_db, "beer", cfg)
        assert [str(r) for r in a.all_rules] == [str(r) for r in b.all_rules]

    def test_report_accounts_for_all_rules(self, toy_db):
        cfg = MiningConfig(min_support=0.2, min_lift=1.0)
        result = mine_keyword_rules(toy_db, "beer", cfg)
        assert result.report.n_kept == len(result)
        assert result.report.n_input == result.n_rules_before_pruning

    def test_str_smoke(self, toy_db):
        result = mine_keyword_rules(toy_db, "beer", MiningConfig(min_support=0.4))
        assert "beer" in str(result)


class TestMineRules:
    def test_lift_floor_respected(self, toy_db):
        cfg = MiningConfig(min_support=0.2, min_lift=1.2)
        rules = generate_rule_table(mine_frequent_itemsets(toy_db, cfg), min_lift=cfg.min_lift)
        assert rules
        assert all(r.lift >= 1.2 for r in rules)
