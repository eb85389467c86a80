"""Tests for the three synthetic trace generators: schemas, marginals and
Fig. 4/5 shape targets.

Marginal tolerances are deliberately loose — they assert the *shape* the
paper reports (orderings, coarse magnitudes), not the random draw.
"""

import numpy as np
import pytest

from repro.traces import (
    PAIConfig,
    PhillyConfig,
    SuperCloudConfig,
    generate_pai,
    generate_philly,
    generate_supercloud,
    get_trace,
    list_traces,
)


def share(table, column):
    return float(np.mean(np.asarray(table[column].to_numpy(), dtype=bool)))


class TestPAI:
    def test_schema(self, pai_table):
        expected = {
            "job_id", "user", "group", "queue_delay", "runtime", "n_gpus",
            "cpu_request", "mem_request", "gpu_type_req", "framework",
            "model_name", "status", "mem_used_gb", "gmem_used_gb",
            "sm_util", "cpu_util", "multi_task", "archetype", "failed",
        }
        assert set(pai_table.column_names) == expected

    def test_near_zero_sm_share_fig4(self, pai_table):
        sm0 = float(np.mean(pai_table["sm_util"].values == 0))
        assert 0.35 <= sm0 <= 0.60  # paper: 46 %

    def test_failure_share_fig5(self, pai_table):
        failed = share(pai_table, "failed")
        assert 0.18 <= failed <= 0.40  # paper: highest of the three, >13 %

    def test_no_killed_label(self, pai_table):
        # PAI has no user-kill label (Sec. IV-C)
        assert set(pai_table["status"].to_list()) <= {"failed", "completed"}

    def test_std_cpu_request_mass(self, pai_table):
        values = pai_table["cpu_request"].values
        top_share = np.mean(values == 600.0)
        assert top_share >= 0.3  # the paper's "standard request" signal

    def test_gpu_type_labels(self, pai_table):
        assert set(pai_table["gpu_type_req"].to_list()) <= {
            "None", "T4", "P100", "V100",
        }

    def test_model_labels_partially_missing(self, pai_table):
        models = pai_table["model_name"].to_list()
        missing = sum(1 for m in models if m is None) / len(models)
        assert 0.3 <= missing <= 0.9  # the NaN subset the paper filters

    def test_t4_queue_advantage(self, pai_table):
        # PAI1/PAI2: T4 queues are shorter than non-T4 queues
        q = pai_table["queue_delay"].values
        types = pai_table["gpu_type_req"].to_list()
        t4 = np.asarray([t == "T4" for t in types])
        non_t4 = np.asarray([t in ("P100", "V100") for t in types])
        assert q[t4].mean() < q[non_t4].mean()

    def test_scales_with_config(self):
        small = generate_pai(PAIConfig(n_jobs=500, use_scheduler=False))
        assert len(small) == 500

    def test_deterministic_for_seed(self):
        a = generate_pai(PAIConfig(n_jobs=300, use_scheduler=False))
        b = generate_pai(PAIConfig(n_jobs=300, use_scheduler=False))
        assert a.fingerprint() == b.fingerprint()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PAIConfig(n_jobs=0)

    def test_calibrated_generation_hits_target(self):
        """Closing the loop: the PAI generator's congestion target is
        approximately achieved on the binding pools."""
        from repro.cluster import FCFSScheduler, UserPopulation, build_nodes
        from repro.traces.synthetic.base import (
            ArchetypeMixer, calibrated_duration, poisson_arrivals,
        )
        from repro.traces.synthetic.pai import _pai_archetypes, _pai_cluster

        config = PAIConfig(n_jobs=4000)
        users = UserPopulation(config.n_users, seed=config.seed)
        jobs = ArchetypeMixer(_pai_archetypes(), users, seed=config.seed).sample_jobs(
            config.n_jobs
        )
        cluster = _pai_cluster()
        for job in jobs:
            if job.gpu_type is None:
                job.gpu_type = "MISC"
            job.n_cpus = min(job.n_cpus, 90)
            job.mem_gb = min(job.mem_gb, 256.0)
        binding = sum(
            n for t, n in cluster.gpus_by_type().items() if t in ("V100", "P100")
        )
        duration = calibrated_duration(jobs, binding, config.congestion)
        poisson_arrivals(np.random.default_rng(1), jobs, duration)

        placements, _ = FCFSScheduler(build_nodes(cluster)).run(jobs)
        gpu_seconds = sum(
            sum(g for _, g in p.allocations) * max(p.end_time - p.start_time, 0.0)
            for p in placements
            if p.gpu_type in ("V100", "P100")
        )
        combined = gpu_seconds / (binding * duration)
        # calibration counts all demand against the binding pools, so the
        # achieved value sits below the target but in its vicinity
        assert 0.35 <= combined <= 1.0


class TestSuperCloud:
    def test_schema_has_variance_features(self, supercloud_table):
        for column in ("sm_util_var", "gmem_util_var", "gpu_power"):
            assert column in supercloud_table

    def test_near_zero_sm_share_fig4(self, supercloud_table):
        sm0 = float(np.mean(supercloud_table["sm_util"].values == 0))
        assert 0.05 <= sm0 <= 0.25  # paper: 10 %

    def test_failed_and_killed_fig5(self, supercloud_table):
        assert 0.08 <= share(supercloud_table, "failed") <= 0.25
        assert 0.08 <= share(supercloud_table, "killed") <= 0.25

    def test_new_user_kill_association_cir1(self, supercloud_table):
        new = np.asarray(supercloud_table["is_new_user"].to_numpy(), dtype=bool)
        killed = np.asarray(supercloud_table["killed"].to_numpy(), dtype=bool)
        lift = killed[new].mean() / killed.mean()
        assert lift > 1.4  # paper: 1.75

    def test_inference_holds_memory_with_zero_sm(self, supercloud_table):
        sm = supercloud_table["sm_util"].values
        var = supercloud_table["sm_util_var"].values
        gmem = supercloud_table["gmem_used_gb"].values
        bursty = (sm == 0) & (var > 0.5)
        assert bursty.any()
        idle = (sm == 0) & (var <= 0.5)
        assert gmem[bursty].mean() > gmem[idle].mean()

    def test_homogeneous_v100(self, supercloud_table):
        # SuperCloud is homogeneous; the trace has no GPU-type column
        assert "gpu_type" not in supercloud_table


class TestPhilly:
    def test_schema_has_min_max_sm(self, philly_table):
        for column in ("sm_util_min", "sm_util_max", "num_attempts"):
            assert column in philly_table

    def test_near_zero_sm_share_fig4(self, philly_table):
        sm0 = float(np.mean(philly_table["sm_util"].values == 0))
        assert 0.25 <= sm0 <= 0.50  # paper: 35 %

    def test_multi_gpu_share(self, philly_table):
        multi = share(philly_table, "multi_gpu")
        assert 0.08 <= multi <= 0.22  # paper: 14 %

    def test_multi_gpu_failure_lift_c1(self, philly_table):
        failed = np.asarray(philly_table["failed"].to_numpy(), dtype=bool)
        multi = np.asarray(philly_table["multi_gpu"].to_numpy(), dtype=bool)
        assert failed[multi].mean() / failed.mean() > 1.5  # paper: 2.55

    def test_new_user_failure_lift_c2(self, philly_table):
        failed = np.asarray(philly_table["failed"].to_numpy(), dtype=bool)
        new = np.asarray(philly_table["is_new_user"].to_numpy(), dtype=bool)
        assert failed[new].mean() / failed.mean() > 1.3  # paper: 2.46

    def test_multi_gpu_runtime_phi1(self, philly_table):
        rt = philly_table["runtime"].values
        multi = np.asarray(philly_table["multi_gpu"].to_numpy(), dtype=bool)
        assert np.median(rt[multi]) > np.median(rt[~multi])

    def test_retries_only_with_attempts(self, philly_table):
        attempts = philly_table["num_attempts"].values
        retried = np.asarray(philly_table["retried"].to_numpy(), dtype=bool)
        assert ((attempts > 1) == retried).all()

    def test_two_gpu_memory_flavours(self, philly_table):
        assert set(philly_table["gpu_type"].to_list()) == {"GPU12GB", "GPU24GB"}


class TestFig4Ordering:
    def test_near_zero_share_ordering(self, pai_table, supercloud_table, philly_table):
        """Fig. 4: PAI (46 %) > Philly (35 %) > SuperCloud (10 %)."""
        def sm0(t):
            return float(np.mean(t["sm_util"].values == 0))

        assert sm0(pai_table) > sm0(philly_table) > sm0(supercloud_table)


class TestFig5Ordering:
    def test_pai_fails_most(self, pai_table, supercloud_table, philly_table):
        assert share(pai_table, "failed") > share(philly_table, "failed")
        assert share(pai_table, "failed") > share(supercloud_table, "failed")

    def test_all_failures_considerable(self, pai_table, supercloud_table, philly_table):
        for t in (pai_table, supercloud_table, philly_table):
            assert share(t, "failed") > 0.08  # paper: > 13 %


class TestRegistry:
    def test_three_traces_registered(self):
        assert list_traces() == ["pai", "philly", "supercloud"]

    def test_get_trace_case_insensitive(self):
        assert get_trace("PAI").name == "pai"

    def test_unknown_trace(self):
        with pytest.raises(KeyError):
            get_trace("helios")

    def test_generate_scaled(self):
        table = get_trace("philly").generate_scaled(
            n_jobs=200, use_scheduler=False
        )
        assert len(table) == 200

    def test_paper_reference_numbers(self):
        pai = get_trace("pai")
        assert pai.paper_jobs == 850_000
        assert pai.operator == "Alibaba"
