"""Tests for trace characterisation."""

import numpy as np
import pytest

from repro.dataframe import ColumnTable
from repro.traces.stats import TraceStats, characterize, gini


class TestGini:
    def test_equal_distribution_zero(self):
        assert gini(np.asarray([5.0, 5.0, 5.0, 5.0])) == pytest.approx(0.0)

    def test_total_concentration_near_one(self):
        values = np.asarray([0.0] * 99 + [100.0])
        assert gini(values) > 0.95

    def test_known_value(self):
        # two users, one with everything: gini = 1/2 for n = 2
        assert gini(np.asarray([0.0, 10.0])) == pytest.approx(0.5)

    def test_all_zero(self):
        assert gini(np.zeros(5)) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            gini(np.asarray([]))
        with pytest.raises(ValueError):
            gini(np.asarray([-1.0]))


class TestCharacterize:
    def test_on_generated_trace(self, supercloud_table):
        stats = characterize(supercloud_table)
        assert stats.n_jobs == len(supercloud_table)
        assert stats.n_users > 10
        assert 0 < stats.user_gini < 1
        assert abs(sum(stats.status_shares.values()) - 1.0) < 1e-9
        assert 0.05 <= stats.sm_util_zero_share <= 0.25
        assert stats.runtime_p90_s >= stats.runtime_median_s
        text = stats.render()
        assert "gini" in text and "SM util" in text

    def test_missing_column_rejected(self):
        table = ColumnTable.from_dict({"user": ["a"], "status": ["completed"]})
        with pytest.raises(ValueError, match="sm_util"):
            characterize(table)

    def test_gpu_request_defaults_to_one(self):
        table = ColumnTable.from_dict(
            {
                "user": ["a", "b"],
                "status": ["completed", "failed"],
                "sm_util": [0.0, 50.0],
                "runtime": [10.0, 20.0],
                "queue_delay": [0.0, 5.0],
            }
        )
        assert characterize(table).gpu_request_mean == 1.0
