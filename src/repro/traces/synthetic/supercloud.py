"""Synthetic MIT SuperCloud trace (Sec. II, Tables III, VI, CIR1).

SuperCloud is a homogeneous cluster (2× V100 per node) for AI research:
98k jobs over 8 months, GPU metrics sampled at 100 ms — which is why the
trace uniquely exposes *variance* features (SM Util Var, GMem Util Var)
and GPU power, and why the paper can separate always-idle GPUs (A1) from
bursty inference jobs that hold memory but rarely compute (A2).

Archetypes and the findings they plant:

=================  ======  ====================================================
archetype          weight  drives
=================  ======  ====================================================
idle_gpu           0.10    Tables III C1–C2/A1: SM util exactly 0, low GMem
                           util & variance, idle power, low CPU; Fig. 4's
                           ~10 % near-zero mass
new_user_debug     0.08    III C3 (new user → idle GPU) and CIR1 (new user →
                           job killed), boosted for new users
normal_train       0.55    healthy background
inference_hold     0.07    III A2: average SM ≈ 0 with bursts; GPU memory
                           stays occupied ("common for model inference")
long_failer        0.08    VI A2: failures after very long runtimes (node
                           failures / time-limit kills)
low_util_failer    0.12    VI C1–C2/A1: low GMem-util + low-CPU jobs roughly
                           twice as likely to fail
=================  ======  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import (
    BehaviorProfile,
    ClusterSpec,
    JobRequest,
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

__all__ = [
    "SuperCloudConfig",
    "generate_supercloud",
    "supercloud_preprocessor",
    "SUPERCLOUD_KEYWORDS",
]

SUPERCLOUD_KEYWORDS = {
    "underutilization": "SM Util = 0%",
    "failure": "Failed",
    "killed": "Job Killed",
}


@dataclass(frozen=True, slots=True)
class SuperCloudConfig:
    """Scale and seed of a generated SuperCloud trace."""

    n_jobs: int = 12_000
    n_users: int = 310
    seed: int = 11
    target_utilization: float = 0.6
    use_scheduler: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")


def _supercloud_cluster() -> ClusterSpec:
    """Homogeneous: every node two V100s, two Xeon 6248 (40 cores)."""
    return ClusterSpec.of(
        (NodeSpec("node", "V100", n_gpus=2, n_cpus=80, mem_gb=384, gpu_mem_gb=32), 112),
    )


def _request_shell(
    rng: np.random.Generator,
    user: UserProfile,
    job_id: int,
    runtime: float,
    n_gpus: int,
    status,
    profile: BehaviorProfile,
    mem_used_gb: float,
) -> JobRequest:
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=runtime,
        n_gpus=n_gpus,
        n_cpus=int(rng.integers(4, 40)),
        mem_gb=float(rng.uniform(8, 128)),
        gpu_type="V100",
        group=None,
        framework=categorical_choice(
            rng, {"PyTorch": 0.5, "Tensorflow": 0.35, "Other Framework": 0.15}
        ),
        status=status,
        profile=profile,
        extras={"mem_used_gb": mem_used_gb, "is_new_user": user.is_new},
    )


def _idle_gpu(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """GPU requested, never touched: zero SM, idle memory and power."""
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=300.0, sigma=0.9, max_s=7200),
        n_gpus=1,
        # the whole low-GMem-util quartile fails at an elevated rate —
        # the paper's Table VI C1 (conf 0.25, lift ~1.9) aggregates over
        # exactly this mixed population
        status=status_choice(rng, p_failed=0.28, p_killed=0.10),
        profile=BehaviorProfile(
            sm_util_mean=0.0,
            sm_util_jitter=0.0,
            gmem_util_mean=0.0,
            gmem_used_gb=float(rng.uniform(0.0, 0.5)),
            cpu_util_mean=float(rng.uniform(0.5, 6.0)),
            idle_power_watts=float(rng.uniform(40, 60)),
        ),
        mem_used_gb=float(rng.uniform(0.5, 4.0)),
    )


def _new_user_debug(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """New users feeling the system out: idle GPUs, frequent manual kills."""
    idle = rng.random() < 0.5
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=240.0, sigma=0.8, max_s=3600),
        n_gpus=1,
        status=status_choice(rng, p_failed=0.15, p_killed=0.52),
        profile=BehaviorProfile(
            sm_util_mean=0.0 if idle else float(rng.uniform(3, 15)),
            sm_util_jitter=0.0 if idle else 3.0,
            gmem_util_mean=0.0 if idle else float(rng.uniform(2, 10)),
            gmem_used_gb=float(rng.uniform(0.0, 2.0)),
            cpu_util_mean=float(rng.uniform(1.0, 10.0)),
        ),
        mem_used_gb=float(rng.uniform(0.5, 6.0)),
    )


def _normal_train(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Healthy research training jobs."""
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=7200.0, sigma=1.2, max_s=6e5),
        n_gpus=int(categorical_choice(rng, {1: 0.97, 2: 0.03})),
        status=status_choice(rng, p_failed=0.07, p_killed=0.10),
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(30, 95)),
            sm_util_jitter=float(rng.uniform(5, 15)),
            gmem_util_mean=float(rng.uniform(20, 75)),
            gmem_used_gb=float(rng.uniform(4, 30)),
            cpu_util_mean=float(rng.uniform(20, 80)),
        ),
        mem_used_gb=float(rng.uniform(8, 192)),
    )


def _inference_hold(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Occasional-inference server: memory held, SMs mostly idle, bursty.

    Mean SM utilisation rounds to ~0 but the variance is high and GPU
    memory used is substantial — the job class behind rule A2's missing
    "low memory" characteristic.
    """
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=36000.0, sigma=0.8, max_s=6e5),
        n_gpus=1,
        status=status_choice(rng, p_failed=0.05, p_killed=0.15),
        profile=BehaviorProfile(
            sm_util_mean=0.45,  # integer-rounded job average reads as 0 %
            sm_util_jitter=0.1,
            burstiness=0.97,  # activity concentrated in rare spikes
            gmem_util_mean=float(rng.uniform(1, 6)),
            gmem_used_gb=float(rng.uniform(8, 28)),  # memory held
            cpu_util_mean=float(rng.uniform(2, 15)),
        ),
        mem_used_gb=float(rng.uniform(4, 32)),
    )


def _long_failer(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Jobs that die late: node failures or exceeded time limits (VI A2)."""
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=100_000.0, sigma=0.5, max_s=1.2e6),
        n_gpus=1,
        status=status_choice(rng, p_failed=0.60, p_killed=0.05),
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(40, 90)),
            gmem_util_mean=float(rng.uniform(25, 70)),
            gmem_used_gb=float(rng.uniform(8, 30)),
            cpu_util_mean=float(rng.uniform(20, 70)),
        ),
        mem_used_gb=float(rng.uniform(16, 256)),
    )


def _low_util_failer(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Struggling jobs: every utilisation channel low, elevated failures."""
    idle = rng.random() < 0.15
    return _request_shell(
        rng, user, job_id,
        runtime=lognormal_runtime(rng, median_s=1800.0, sigma=1.0, max_s=1e5),
        n_gpus=1,
        status=status_choice(rng, p_failed=0.38, p_killed=0.12),
        profile=BehaviorProfile(
            sm_util_mean=0.0 if idle else float(rng.uniform(2, 12)),
            sm_util_jitter=0.0 if idle else 2.0,
            gmem_util_mean=float(rng.uniform(0.5, 5.0)),
            gmem_used_gb=float(rng.uniform(0.2, 3.0)),
            cpu_util_mean=float(rng.uniform(1, 8)),
            idle_power_watts=float(rng.uniform(40, 60)),
        ),
        mem_used_gb=float(rng.uniform(1, 16)),
    )


def _supercloud_archetypes() -> list[Archetype]:
    # weights calibrated so that: near-zero SM mass ≈ 10–13 % (Fig. 4),
    # failed ≈ 13 % and killed ≈ 12–15 % (Fig. 5), and the low-GMem-util /
    # failure overlap clears the 5 % support floor (Table VI C1)
    return [
        Archetype("idle_gpu", 0.05, _idle_gpu, new_user_multiplier=2.0),
        Archetype("new_user_debug", 0.05, _new_user_debug, new_user_multiplier=10.0),
        Archetype("normal_train", 0.66, _normal_train, new_user_multiplier=0.5),
        Archetype("inference_hold", 0.03, _inference_hold),
        Archetype("long_failer", 0.11, _long_failer, new_user_multiplier=0.4),
        Archetype("low_util_failer", 0.10, _low_util_failer),
    ]


def generate_supercloud(config: SuperCloudConfig = SuperCloudConfig()) -> ColumnTable:
    """Generate a merged SuperCloud job table."""
    users = UserPopulation(
        config.n_users,
        # CIR1 needs new-user jobs to clear the 5 % support floor when
        # intersected with kills: P(job from new user) ≈ 0.19 (the top
        # decile of submitters is never new, so the raw fraction is high)
        new_user_fraction=0.62,
        seed=config.seed,
        name_prefix="scuser",
        new_user_weight_damp=1.0,
    )
    mixer = ArchetypeMixer(_supercloud_archetypes(), users, seed=config.seed)
    jobs = mixer.sample_jobs(config.n_jobs)

    cluster = _supercloud_cluster()
    table = job_table(
        jobs,
        cluster,
        # 100 ms sampling: high effective sample counts per job, capped
        TelemetryConfig(sample_interval_s=0.1, max_samples_per_job=512),
        seed=config.seed,
        use_scheduler=config.use_scheduler,
        capacity_gpus=cluster.total_gpus,
        target_utilization=config.target_utilization,
        mean_queue_delay=300.0,
    )
    return _finalize_supercloud_table(table)


def _finalize_supercloud_table(table: ColumnTable) -> ColumnTable:
    out = table.select(
        [
            "job_id",
            "user",
            "queue_delay",
            "runtime",
            "n_gpus",
            "n_cpus",
            "framework",
            "status",
            "mem_used_gb",
            "sm_util",
            "sm_util_var",
            "gmem_util",
            "gmem_util_var",
            "gmem_used_gb",
            "gpu_power",
            "cpu_util",
            "is_new_user",
            "archetype",
        ]
    )
    status = table["status"]
    out.add_column("failed", BooleanColumn(status.equals_scalar("failed")))
    out.add_column("killed", BooleanColumn(status.equals_scalar("killed")))
    return out


def supercloud_preprocessor() -> TracePreprocessor:
    """The Sec. III-E pipeline configured for the SuperCloud schema."""
    quart = BinningSpec()
    features = [
        FeatureSpec("user_tier", kind="label"),
        FeatureSpec("is_new_user", kind="flag", true_label="New User"),
        FeatureSpec(
            "sm_util", item_feature="SM Util", binning=BinningSpec(zero_label="0%")
        ),
        FeatureSpec("sm_util_var", item_feature="SM Util Var", binning=quart),
        FeatureSpec("gmem_util", item_feature="GMem Util", binning=quart),
        FeatureSpec("gmem_util_var", item_feature="GMem Util Var", binning=quart),
        FeatureSpec(
            "gmem_used_gb",
            item_feature="GMem Used",
            binning=BinningSpec(zero_label="0GB"),
        ),
        FeatureSpec("gpu_power", item_feature="GPU Power", binning=quart),
        FeatureSpec("cpu_util", item_feature="CPU Util", binning=quart),
        FeatureSpec("mem_used_gb", item_feature="Memory Used", binning=quart),
        FeatureSpec("runtime", item_feature="Runtime", binning=quart),
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
