"""Synthetic Microsoft Philly trace (Sec. II, Tables IV, VII, PHI1).

Philly: 14 virtual clusters over two GPU flavours (12 GB / 24 GB memory),
1-minute monitoring granularity — hence the min/max SM-utilisation
features — and an automatic retry mechanism that re-attempts failed jobs
(the "Num Attempts > 1" item).  ~14 % of jobs are multi-GPU.

Archetypes and the findings they plant:

================  ======  =====================================================
archetype         weight  drives
================  ======  =====================================================
debug             0.30    Table IV C1–C2/A1: zero SM (min and mean), low CPU,
                          short runtime; Fig. 4's ~35 % near-zero mass
single_train      0.42    healthy background
multi_gpu_train   0.14    Table VII C1 (multi-GPU ≈ 2.5× failure rate) and
                          PHI1 (multi-GPU → long runtime)
retry_failer      0.08    Table VII A1/A2: failed jobs with min SM = 0 that
                          got automatic retries, some failing late
new-user boost    —       Table VII C2: new users ≈ 2.5× failure, applied as
                          archetype re-weighting plus a direct failure boost
idle_hold         0.06    24 GB-node underutilisation slice (Table IV A1)
================  ======  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import (
    BehaviorProfile,
    ClusterSpec,
    JobRequest,
    JobStatus,
    NodeSpec,
    TelemetryConfig,
    UserPopulation,
    UserProfile,
)
from ...dataframe import BooleanColumn, ColumnTable
from ...preprocess import BinningSpec, FeatureSpec, TierSpec, TracePreprocessor
from .base import (
    Archetype,
    ArchetypeMixer,
    categorical_choice,
    job_table,
    lognormal_runtime,
    status_choice,
)

__all__ = ["PhillyConfig", "generate_philly", "philly_preprocessor", "PHILLY_KEYWORDS"]

PHILLY_KEYWORDS = {
    "underutilization": "SM Util = 0%",
    "failure": "Failed",
    "multi_gpu": "Multi-GPU",
}


@dataclass(frozen=True, slots=True)
class PhillyConfig:
    """Scale and seed of a generated Philly trace."""

    n_jobs: int = 12_000
    n_users: int = 320
    seed: int = 13
    target_utilization: float = 0.7
    use_scheduler: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")


def _philly_cluster() -> ClusterSpec:
    """Two anonymous GPU flavours, named by their memory size."""
    return ClusterSpec.of(
        (NodeSpec("g12", "GPU12GB", n_gpus=8, n_cpus=64, mem_gb=256, gpu_mem_gb=12), 20),
        (NodeSpec("g24", "GPU24GB", n_gpus=8, n_cpus=64, mem_gb=512, gpu_mem_gb=24), 12),
    )


def _shell(
    rng: np.random.Generator,
    user: UserProfile,
    job_id: int,
    runtime: float,
    n_gpus: int,
    status: JobStatus,
    profile: BehaviorProfile,
    attempts: int,
    gpu_pool: str,
) -> JobRequest:
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=runtime,
        n_gpus=n_gpus,
        n_cpus=int(rng.integers(2, 24)),
        mem_gb=float(rng.uniform(8, 64)),
        gpu_type=gpu_pool,
        group=f"vc{int(rng.integers(0, 14)):02d}",  # virtual cluster
        framework=None,
        status=status,
        profile=profile,
        extras={"num_attempts": attempts, "is_new_user": user.is_new},
    )


def _boost_failure(user: UserProfile, status: JobStatus, rng: np.random.Generator) -> JobStatus:
    """New users' jobs flip to failed more often (Table VII C2)."""
    if user.is_new and status == JobStatus.COMPLETED and rng.random() < 0.28:
        return JobStatus.FAILED
    return status


def _debug(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    status = _boost_failure(
        user, status_choice(rng, p_failed=0.10, p_killed=0.22), rng
    )
    return _shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=420.0, sigma=0.9, max_s=7200),
        n_gpus=1,
        status=status,
        profile=BehaviorProfile(
            sm_util_mean=0.0,
            sm_util_jitter=0.0,
            gmem_util_mean=0.0,
            gmem_used_gb=float(rng.uniform(0.0, 1.0)),
            cpu_util_mean=float(rng.uniform(0.5, 8.0)),
        ),
        attempts=1,
        gpu_pool=categorical_choice(rng, {"GPU12GB": 0.6, "GPU24GB": 0.4}),
    )


def _single_train(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    status = _boost_failure(
        user, status_choice(rng, p_failed=0.08, p_killed=0.12), rng
    )
    return _shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=5400.0, sigma=1.1, max_s=4e5),
        n_gpus=1,
        status=status,
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(25, 90)),
            sm_util_jitter=float(rng.uniform(5, 20)),
            gmem_util_mean=float(rng.uniform(20, 70)),
            gmem_used_gb=float(rng.uniform(2, 11)),
            cpu_util_mean=float(rng.uniform(15, 70)),
        ),
        # some retries succeed — "failed jobs do not always get another
        # attempt" and, symmetrically, not every retried job stays failed
        attempts=2 if rng.random() < 0.06 else 1,
        gpu_pool=categorical_choice(rng, {"GPU12GB": 0.65, "GPU24GB": 0.35}),
    )


def _multi_gpu_train(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Distributed training: one worker's failure kills the gang (VII C1)."""
    status = _boost_failure(
        user, status_choice(rng, p_failed=0.46, p_killed=0.08), rng
    )
    failed = status == JobStatus.FAILED
    return _shell(
        rng, user, job_id,
        # PHI1: multi-GPU jobs tend to run very long
        runtime=lognormal_runtime(rng, median_s=40_000.0, sigma=1.0, max_s=8e5),
        n_gpus=int(categorical_choice(rng, {2: 0.45, 4: 0.3, 8: 0.2, 16: 0.05})),
        status=status,
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(20, 80)),
            sm_util_jitter=float(rng.uniform(10, 25)),
            gmem_util_mean=float(rng.uniform(15, 60)),
            gmem_used_gb=float(rng.uniform(4, 22)),
            cpu_util_mean=float(rng.uniform(10, 60)),
        ),
        attempts=int(rng.integers(2, 4)) if failed and rng.random() < 0.5 else 1,
        gpu_pool=categorical_choice(rng, {"GPU12GB": 0.5, "GPU24GB": 0.5}),
    )


def _retry_failer(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Failures Philly auto-retried; min SM hits 0 during crash loops."""
    long_tail = rng.random() < 0.45
    return _shell(
        rng, user, job_id,
        runtime=(
            lognormal_runtime(rng, median_s=120_000.0, sigma=0.5, max_s=9e5)
            if long_tail
            else lognormal_runtime(rng, median_s=1800.0, sigma=0.9, max_s=4e4)
        ),
        n_gpus=1,
        status=JobStatus.FAILED,
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(1.0, 20.0)),
            sm_util_jitter=2.0,
            burstiness=0.6,  # crash loops: min SM = 0 within some minute
            gmem_util_mean=float(rng.uniform(2, 20)),
            gmem_used_gb=float(rng.uniform(1, 10)),
            cpu_util_mean=float(rng.uniform(3, 25)),
        ),
        attempts=int(rng.integers(2, 6)) if rng.random() < 0.7 else 1,
        gpu_pool=categorical_choice(rng, {"GPU12GB": 0.55, "GPU24GB": 0.45}),
    )


def _idle_hold(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Idle jobs parked on the 24 GB flavour (Table IV A1)."""
    status = _boost_failure(
        user, status_choice(rng, p_failed=0.12, p_killed=0.18), rng
    )
    return _shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=1200.0, sigma=0.9, max_s=4e4),
        n_gpus=1,
        status=status,
        profile=BehaviorProfile(
            sm_util_mean=0.0,
            sm_util_jitter=0.0,
            gmem_util_mean=0.0,
            gmem_used_gb=float(rng.uniform(0.0, 2.0)),
            cpu_util_mean=float(rng.uniform(0.5, 6.0)),
        ),
        attempts=1,
        gpu_pool="GPU24GB",
    )


def _philly_archetypes() -> list[Archetype]:
    return [
        Archetype("debug", 0.30, _debug, new_user_multiplier=2.0),
        Archetype("single_train", 0.42, _single_train, new_user_multiplier=0.6),
        Archetype("multi_gpu_train", 0.14, _multi_gpu_train, new_user_multiplier=0.5),
        Archetype("retry_failer", 0.08, _retry_failer, new_user_multiplier=1.5),
        Archetype("idle_hold", 0.06, _idle_hold, new_user_multiplier=1.5),
    ]


def generate_philly(config: PhillyConfig = PhillyConfig()) -> ColumnTable:
    """Generate a merged Philly job table."""
    users = UserPopulation(
        config.n_users,
        # Table VII C2 needs new-user jobs at ≈ 20 % of submissions so the
        # {New User, Failed} pair clears the 5 % support floor
        new_user_fraction=0.55,
        seed=config.seed,
        name_prefix="phuser",
        new_user_weight_damp=1.0,
    )
    mixer = ArchetypeMixer(_philly_archetypes(), users, seed=config.seed)
    jobs = mixer.sample_jobs(config.n_jobs)

    cluster = _philly_cluster()
    table = job_table(
        jobs,
        cluster,
        TelemetryConfig(sample_interval_s=60.0, max_samples_per_job=256),
        seed=config.seed,
        use_scheduler=config.use_scheduler,
        capacity_gpus=cluster.total_gpus,
        target_utilization=config.target_utilization,
        mean_queue_delay=600.0,
    )
    return _finalize_philly_table(table)


def _finalize_philly_table(table: ColumnTable) -> ColumnTable:
    out = table.select(
        [
            "job_id",
            "user",
            "group",
            "queue_delay",
            "runtime",
            "n_gpus",
            "gpu_type",
            "status",
            "sm_util",
            "sm_util_min",
            "sm_util_max",
            "cpu_util",
            "gmem_used_gb",
            "num_attempts",
            "is_new_user",
            "archetype",
        ]
    ).rename({"group": "vc"})
    status = table["status"]
    out.add_column("failed", BooleanColumn(status.equals_scalar("failed")))
    out.add_column("killed", BooleanColumn(status.equals_scalar("killed")))
    n_gpus = table["n_gpus"].values
    out.add_column("multi_gpu", (n_gpus > 1).astype(bool))
    attempts = table["num_attempts"].values
    out.add_column("retried", (attempts > 1).astype(bool))
    out.add_column(
        "gpu_24gb", BooleanColumn(table["gpu_type"].equals_scalar("GPU24GB"))
    )
    return out


def philly_preprocessor() -> TracePreprocessor:
    """The Sec. III-E pipeline configured for the Philly schema."""
    quart = BinningSpec()
    features = [
        FeatureSpec("user_tier", kind="label"),
        FeatureSpec("is_new_user", kind="flag", true_label="New User"),
        FeatureSpec(
            "sm_util", item_feature="SM Util", binning=BinningSpec(zero_label="0%")
        ),
        FeatureSpec(
            "sm_util_min",
            item_feature="Min SM Util",
            binning=BinningSpec(zero_label="0%"),
        ),
        FeatureSpec("sm_util_max", item_feature="Max SM Util", binning=quart),
        FeatureSpec("cpu_util", item_feature="CPU Util", binning=quart),
        FeatureSpec("runtime", item_feature="Runtime", binning=quart),
        FeatureSpec("queue_delay", item_feature="Queue", binning=quart),
        FeatureSpec("multi_gpu", kind="flag", true_label="Multi-GPU"),
        FeatureSpec("gpu_24gb", kind="flag", true_label="GPU 24GB Mem"),
        FeatureSpec("retried", kind="flag", true_label="Num Attempts > 1"),
        FeatureSpec("failed", kind="flag", true_label="Failed"),
        FeatureSpec("killed", kind="flag", true_label="Job Killed"),
    ]
    return TracePreprocessor(
        features=features,
        tier_specs=[
            TierSpec(
                "user",
                "user_tier",
                frequent_label="Freq User",
                moderate_label="Moderate User",
                rare_label="Rare User",
            )
        ],
    )
