"""Integration tests for the end-to-end cluster simulator."""

import pytest

from repro.cluster import (
    BehaviorProfile,
    ClusterSimulator,
    ClusterSpec,
    JobRequest,
    JobStatus,
    NodeSpec,
    TelemetryConfig,
)


@pytest.fixture()
def cluster():
    return ClusterSpec.of((NodeSpec("n", "V100", 4, 64, 256), 2))


def workload(n=20):
    jobs = []
    for i in range(n):
        jobs.append(
            JobRequest(
                job_id=i,
                user=f"u{i % 3}",
                submit_time=float(i * 10),
                runtime=30.0,
                n_gpus=1 + (i % 2),
                n_cpus=4,
                mem_gb=8.0,
                gpu_type="V100",
                status=JobStatus.FAILED if i % 5 == 0 else JobStatus.COMPLETED,
                profile=BehaviorProfile(sm_util_mean=0.0 if i % 4 == 0 else 50.0),
                extras={"tag": i},
            )
        )
    return jobs


class TestSimulator:
    def test_every_job_gets_a_record(self, cluster):
        result = ClusterSimulator(cluster, seed=1).run(workload())
        assert len(result.records) == 20
        assert result.scheduler_stats.n_scheduled == 20

    def test_records_in_request_order(self, cluster):
        result = ClusterSimulator(cluster, seed=1).run(workload())
        assert [r.request.job_id for r in result.records] == list(range(20))

    def test_telemetry_respects_profile(self, cluster):
        result = ClusterSimulator(cluster, seed=1).run(workload())
        for record in result.records:
            if record.request.profile.sm_util_mean == 0.0:
                assert record.telemetry["sm_util"] == 0.0
            else:
                assert record.telemetry["sm_util"] > 0.0

    def test_to_table_shape(self, cluster):
        table = ClusterSimulator(cluster, seed=1).run(workload()).to_table()
        assert len(table) == 20
        for column in ("queue_delay", "sm_util", "status", "tag"):
            assert column in table

    def test_queue_delays_nonnegative(self, cluster):
        table = ClusterSimulator(cluster, seed=1).run(workload()).to_table()
        assert (table["queue_delay"].values >= 0).all()

    def test_runtime_preserved(self, cluster):
        table = ClusterSimulator(cluster, seed=1).run(workload()).to_table()
        assert (abs(table["runtime"].values - 30.0) < 1e-9).all()

    def test_deterministic_given_seed(self, cluster):
        a = ClusterSimulator(cluster, seed=9).run(workload()).to_table()
        b = ClusterSimulator(cluster, seed=9).run(workload()).to_table()
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_changes_telemetry(self, cluster):
        a = ClusterSimulator(cluster, seed=1).run(workload()).to_table()
        b = ClusterSimulator(cluster, seed=2).run(workload()).to_table()
        assert a["gpu_power"].to_list() != b["gpu_power"].to_list()

    def test_contended_cluster_produces_queueing(self):
        tiny = ClusterSpec.of((NodeSpec("n", "V100", 1, 8, 64), 1))
        jobs = [
            JobRequest(job_id=i, user="u", submit_time=0.0, runtime=10.0,
                       n_gpus=1, n_cpus=1, mem_gb=1.0, gpu_type="V100")
            for i in range(5)
        ]
        result = ClusterSimulator(tiny, seed=1).run(jobs)
        delays = sorted(r.queue_delay for r in result.records)
        assert delays == [0.0, 10.0, 20.0, 30.0, 40.0]
