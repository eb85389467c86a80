"""Unit tests for telemetry synthesis and the user population."""

import numpy as np
import pytest

from repro.cluster import (
    BehaviorProfile,
    GPUTelemetryModel,
    TelemetryConfig,
    UserPopulation,
)


class TestTelemetryConfig:
    def test_sample_count_scales_with_runtime(self):
        cfg = TelemetryConfig(sample_interval_s=60.0, max_samples_per_job=100)
        assert cfg.n_samples(30.0) >= cfg.min_samples_per_job
        assert cfg.n_samples(1e9) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_interval_s=0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_samples_per_job=1, min_samples_per_job=5)


class TestTelemetryModel:
    def test_idle_profile_is_exactly_zero(self):
        model = GPUTelemetryModel(seed=1)
        profile = BehaviorProfile(sm_util_mean=0.0, gmem_util_mean=0.0)
        s = model.summarize(profile, 600.0)
        assert s.sm_util_mean == 0.0
        assert s.sm_util_var == 0.0
        assert s.sm_util_max == 0.0
        assert s.gmem_util_mean == 0.0

    def test_active_profile_tracks_mean(self):
        model = GPUTelemetryModel(TelemetryConfig(max_samples_per_job=512), seed=2)
        profile = BehaviorProfile(sm_util_mean=60.0, sm_util_jitter=5.0)
        s = model.summarize(profile, 1e6)
        assert 50.0 <= s.sm_util_mean <= 70.0
        assert s.sm_util_var > 0.0

    def test_bursty_profile_near_zero_mean_high_var(self):
        model = GPUTelemetryModel(TelemetryConfig(max_samples_per_job=512), seed=3)
        profile = BehaviorProfile(
            sm_util_mean=0.45, sm_util_jitter=0.1, burstiness=0.97
        )
        s = model.summarize(profile, 1e6)
        # integer-rounded mean reads as 0 % while variance/max stay positive
        assert s.sm_util_mean == 0.0
        assert s.sm_util_var > 0.0
        assert s.sm_util_max > 0.0

    def test_power_tracks_activity(self):
        model = GPUTelemetryModel(seed=4)
        idle = model.summarize(BehaviorProfile(sm_util_mean=0.0), 600.0)
        busy = model.summarize(BehaviorProfile(sm_util_mean=90.0), 600.0)
        assert busy.gpu_power_mean > idle.gpu_power_mean

    def test_values_clipped_to_percent_range(self):
        model = GPUTelemetryModel(seed=5)
        series = model.series(
            BehaviorProfile(sm_util_mean=99.0, sm_util_jitter=50.0), 600.0
        )
        assert series["sm_util"].min() >= 0.0
        assert series["sm_util"].max() <= 100.0

    def test_as_dict_keys(self):
        s = GPUTelemetryModel(seed=6).summarize(BehaviorProfile(), 60.0)
        assert set(s.as_dict()) == {
            "sm_util", "sm_util_var", "sm_util_min", "sm_util_max",
            "gmem_util", "gmem_util_var", "gmem_used_gb", "gpu_power",
            "cpu_util",
        }

    def test_deterministic_for_seed(self):
        a = GPUTelemetryModel(seed=7).summarize(BehaviorProfile(), 600.0)
        b = GPUTelemetryModel(seed=7).summarize(BehaviorProfile(), 600.0)
        assert a == b


class TestUserPopulation:
    def test_weights_sum_to_one(self):
        pop = UserPopulation(50, seed=1)
        assert sum(u.weight for u in pop.users) == pytest.approx(1.0)

    def test_skewed_activity(self):
        pop = UserPopulation(100, seed=2)
        weights = sorted((u.weight for u in pop.users), reverse=True)
        assert weights[0] > 10 * weights[-1]

    def test_top_decile_never_new(self):
        pop = UserPopulation(100, new_user_fraction=1.0, seed=3)
        assert not any(u.is_new for u in pop.users[:10])
        assert any(u.is_new for u in pop.users[10:])

    def test_sampling_respects_weights(self):
        pop = UserPopulation(20, seed=4, zipf_exponent=2.0)
        draws = pop.sample(2000)
        top = pop.users[0].name
        share = sum(1 for u in draws if u.name == top) / len(draws)
        assert share > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            UserPopulation(0)
        with pytest.raises(ValueError):
            UserPopulation(5, new_user_fraction=1.5)
        with pytest.raises(ValueError):
            UserPopulation(5, new_user_weight_damp=-1)
