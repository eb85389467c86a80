"""Unit tests for categorical aggregation (tiers, semantic groups)."""

import pytest

from repro.dataframe import CategoricalColumn, ColumnTable
from repro.preprocess import (
    MODEL_FAMILIES,
    apply_semantic_grouping,
    compute_activity_tiers,
)


@pytest.fixture()
def jobs():
    # user a: 50 jobs, b: 30, c: 15, d: 4, e: 1
    users = ["a"] * 50 + ["b"] * 30 + ["c"] * 15 + ["d"] * 4 + ["e"] * 1
    return ColumnTable.from_dict({"user": users})


class TestActivityTiers:
    def test_frequent_prefix_reaches_top_share(self, jobs):
        tiers = compute_activity_tiers(jobs, "user", top_share=0.25, bottom_share=0.2)
        # user a alone covers 50 % ≥ 25 % → only a is frequent; the rare
        # suffix (e, d, c = 20 %) stops before b
        assert tiers.tier_of("a") == "Freq"
        assert tiers.tier_of("b") == "Moderate"
        assert tiers.tier_of("c") == "Rare"

    def test_rare_suffix_reaches_bottom_share(self, jobs):
        tiers = compute_activity_tiers(jobs, "user", bottom_share=0.05)
        assert tiers.tier_of("e") == "Rare"
        assert tiers.tier_of("d") == "Rare"  # cumulative 5/100 ≥ 5 %

    def test_partition_complete(self, jobs):
        tiers = compute_activity_tiers(jobs, "user")
        assert set(tiers.tiers) == {"a", "b", "c", "d", "e"}
        counts = tiers.counts()
        assert sum(counts.values()) == 5

    def test_unseen_label_counts_as_rare(self, jobs):
        tiers = compute_activity_tiers(jobs, "user")
        assert tiers.tier_of("ghost") == "Rare"
        assert tiers.tier_of(None) is None

    def test_custom_labels(self, jobs):
        tiers = compute_activity_tiers(
            jobs, "user", frequent_label="Freq User", rare_label="New-ish"
        )
        assert tiers.tier_of("a") == "Freq User"

    def test_single_user_is_frequent(self):
        t = ColumnTable.from_dict({"user": ["solo"] * 10})
        tiers = compute_activity_tiers(t, "user")
        assert tiers.tier_of("solo") == "Freq"

    def test_empty_table(self):
        t = ColumnTable.from_dict({"user": []})
        tiers = compute_activity_tiers(t, "user")
        assert tiers.tiers == {}

    def test_invalid_shares(self, jobs):
        with pytest.raises(ValueError):
            compute_activity_tiers(jobs, "user", top_share=0.0)
        with pytest.raises(ValueError):
            compute_activity_tiers(jobs, "user", bottom_share=1.0)


class TestSemanticGrouping:
    def test_paper_families(self):
        col = CategoricalColumn.from_values(
            ["resnet", "bert", "vgg", "xlnet", "custom"]
        )
        out = apply_semantic_grouping(col)
        assert out.to_list() == ["CV", "NLP", "CV", "NLP", "custom"]

    def test_case_insensitive(self):
        col = CategoricalColumn.from_values(["ResNet", "BERT"])
        out = apply_semantic_grouping(col)
        assert out.to_list() == ["CV", "NLP"]

    def test_custom_mapping(self):
        col = CategoricalColumn.from_values(["x", "y"])
        out = apply_semantic_grouping(col, {"x": "G"})
        assert out.to_list() == ["G", "y"]

    def test_known_families_cover_paper_examples(self):
        for name in ("resnet", "vgg", "inception"):
            assert MODEL_FAMILIES[name] == "CV"
        for name in ("bert", "nmt", "xlnet"):
            assert MODEL_FAMILIES[name] == "NLP"
