"""Synthetic Alibaba-PAI trace (Sec. II, Tables II, V, VIII).

PAI is an MLaaS cloud: heterogeneous GPUs (T4 / P100 / V100 plus a
miscellaneous low-end pool for unspecified requests), ~850k tasks over two
months, the highest failure rate of the three traces, and ~46 % of jobs
with 0 % GPU SM utilisation (Fig. 4).

The generator plants the paper's PAI findings through six archetypes:

=====================  ======  =====================================================
archetype              weight  drives
=====================  ======  =====================================================
debug_template         0.30    Table II C1–C5/A1–A3: frequent users submitting
                               low-customisation Tensorflow jobs (Std CPU/mem
                               request, GPU type unspecified) that never touch
                               the GPU; Fig. 4's near-zero SM mass
debug_template (cont.)         also Table V A2 (failed ↔ underutilised overlap)
bulk_failer            0.12    Table V C1–C3/A1: one heavy user's frequent job
                               group failing before the model loads
                               (GMem Used = 0GB, Mem Used low)
production_train       0.33    healthy background mass; non-T4 queue pressure
                               (Table VIII PAI2)
recsys_serving         0.10    Table VIII PAI3: RecSys → T4 + Multiple Tasks;
                               PAI1 (T4 → short queue)
nlp_train              0.07    Table VIII PAI4: low CPU + high SM → NLP
distributed_flaky      0.08    Table V C4–C5: mid-size GPU gangs failing with
                               0 GB GPU memory used
=====================  ======  =====================================================

Queue-delay structure (PAI1/PAI2) is *not* planted: it emerges from the
discrete-event scheduler run over a cluster whose T4 : non-T4 capacity
ratio matches the paper's 1 : 3.5, with the non-T4 pools driven near
saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import (
    BehaviorProfile,
    ClusterSimulator,
    ClusterSpec,
    JobRequest,
    NodeSpec,
    TelemetryConfig,
    UserPopulation,
    UserProfile,
)
from ...dataframe import BooleanColumn, ColumnTable, NumericColumn
from ...preprocess import (
    BinningSpec,
    FeatureSpec,
    GroupingSpec,
    TierSpec,
    TracePreprocessor,
)
from .base import (
    Archetype,
    ArchetypeMixer,
    BatchContext,
    CatBlock,
    calibrated_duration,
    categorical_choice,
    categorical_codes,
    lognormal_runtime,
    lognormal_runtime_batch,
    poisson_arrivals,
    status_choice,
    status_codes,
)

__all__ = ["PAIConfig", "generate_pai", "pai_preprocessor", "PAI_KEYWORDS"]

#: keyword items for the PAI case studies
PAI_KEYWORDS = {
    "underutilization": "SM Util = 0%",
    "failure": "Failed",
    "queue_short": "Queue = Bin1",
    "recsys": "Model = RecSys",
    "nlp": "Model = NLP",
}

#: standard (default) request values — the paper infers 600 CPU cores is
#: "the default or standard CPU request count" covering ~50 % of jobs
STD_CPU_REQUEST = 600.0
STD_MEM_REQUEST = 29.0  # GB


@dataclass(frozen=True, slots=True)
class PAIConfig:
    """Scale and seed of a generated PAI trace."""

    n_jobs: int = 20_000
    n_users: int = 400
    n_groups: int = 150
    seed: int = 7
    #: target utilisation of the *binding* (non-T4) GPU pools
    congestion: float = 0.92
    use_scheduler: bool = True
    #: draw the trace as numpy column blocks instead of per-job objects —
    #: the ingest fast path; requires ``use_scheduler=False`` (the
    #: object-per-job path stays the oracle for the simulator)
    columnar: bool = False

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.columnar and self.use_scheduler:
            raise ValueError(
                "columnar generation bypasses the scheduler; "
                "use PAIConfig(columnar=True, use_scheduler=False)"
            )


def _pai_cluster() -> ClusterSpec:
    """T4 : non-T4 GPU ratio 1 : 3.5 (Sec. IV-D) plus a misc pool."""
    return ClusterSpec.of(
        (NodeSpec("misc", "MISC", n_gpus=4, n_cpus=96, mem_gb=512, gpu_mem_gb=8), 40),
        (NodeSpec("t4", "T4", n_gpus=8, n_cpus=96, mem_gb=512, gpu_mem_gb=16), 20),
        (NodeSpec("v100", "V100", n_gpus=8, n_cpus=96, mem_gb=512, gpu_mem_gb=32), 40),
        (NodeSpec("p100", "P100", n_gpus=8, n_cpus=96, mem_gb=512, gpu_mem_gb=16), 30),
    )


# --------------------------------------------------------------------------
# archetype samplers
# --------------------------------------------------------------------------

def _base_extras(
    gpu_type_label: str,
    mem_used_gb: float,
    multi_task: bool,
    model: str | None,
) -> dict:
    return {
        "gpu_type_req": gpu_type_label,
        "mem_used_gb": mem_used_gb,
        "multi_task": multi_task,
        "model_name": model,
    }


def _debug_template(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Low-customisation template job: requests a GPU, never uses it."""
    n_gpus = int(categorical_choice(rng, {1: 0.75, 2: 0.25}))
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=120.0, sigma=0.8, max_s=3600),
        n_gpus=n_gpus,
        n_cpus=int(STD_CPU_REQUEST),
        mem_gb=STD_MEM_REQUEST,
        gpu_type=None,  # unspecified → misc pool
        group=f"group{int(rng.integers(0, 12)):03d}",  # few, busy groups
        framework="Tensorflow",
        status=status_choice(rng, p_failed=0.30),
        profile=BehaviorProfile(
            sm_util_mean=0.0,
            gmem_util_mean=0.0,
            gmem_used_gb=float(rng.uniform(0.0, 0.4)),
            cpu_util_mean=float(rng.uniform(1.0, 8.0)),
        ),
        extras=_base_extras("None", mem_used_gb=float(rng.uniform(0.2, 2.0)),
                            multi_task=False, model=None),
    )


def _bulk_failer(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """One heavy user's job group failing before the model loads (Table V)."""
    return JobRequest(
        job_id=job_id,
        user="user0000",  # the single dominant submitter (Sec. IV-C: "one
        # user submitting a large number of jobs")
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=60.0, sigma=0.5, max_s=900),
        n_gpus=int(categorical_choice(rng, {1: 0.7, 2: 0.3})),
        n_cpus=int(rng.integers(20, 80)),  # far below Std → "CPU Request = Bin1"
        mem_gb=STD_MEM_REQUEST,
        gpu_type=None,
        group="group000",
        framework="Tensorflow",
        status=status_choice(rng, p_failed=0.95),
        profile=BehaviorProfile(
            sm_util_mean=0.0,
            gmem_util_mean=0.0,
            gmem_used_gb=0.0,  # exact 0 GB: fails before load (import error)
            cpu_util_mean=float(rng.uniform(1.0, 6.0)),
        ),
        extras=_base_extras("None", mem_used_gb=float(rng.uniform(0.1, 1.0)),
                            multi_task=False, model=None),
    )


def _production_train(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Healthy training job with explicit resource customisation."""
    gpu_type = categorical_choice(rng, {"V100": 0.55, "P100": 0.45})
    framework = categorical_choice(
        rng, {"Tensorflow": 0.45, "PyTorch": 0.45, "Other Framework": 0.10}
    )
    model = categorical_choice(
        rng, {None: 0.62, "resnet": 0.14, "vgg": 0.09, "inception": 0.07, "bert": 0.08}
    )
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=4200.0, sigma=1.1, max_s=1e5),
        n_gpus=int(categorical_choice(rng, {8: 0.5, 16: 0.3, 32: 0.2})),
        n_cpus=int(rng.integers(100, 1200)),
        mem_gb=float(rng.uniform(32, 256)),
        gpu_type=gpu_type,
        group=f"group{int(rng.integers(12, 150)):03d}",
        framework=framework,
        status=status_choice(rng, p_failed=0.08),
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(35, 90)),
            gmem_util_mean=float(rng.uniform(25, 70)),
            gmem_used_gb=float(rng.uniform(4, 28)),
            cpu_util_mean=float(rng.uniform(25, 80)),
        ),
        extras=_base_extras(gpu_type, mem_used_gb=float(rng.uniform(8, 120)),
                            multi_task=bool(rng.random() < 0.3), model=model),
    )


def _recsys_serving(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Recommender jobs: T4 GPUs, many parallel tasks (Table VIII PAI3)."""
    model = categorical_choice(rng, {"ctr": 0.5, "din": 0.3, "dien": 0.2})
    gpu_type = "T4" if rng.random() < 0.9 else "V100"
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=1800.0, sigma=0.9, max_s=4e4),
        n_gpus=int(categorical_choice(rng, {2: 0.5, 4: 0.35, 8: 0.15})),
        n_cpus=int(rng.integers(100, 600)),
        mem_gb=float(rng.uniform(16, 64)),
        gpu_type=gpu_type,
        group=f"group{int(rng.integers(12, 150)):03d}",
        framework=categorical_choice(rng, {"Tensorflow": 0.7, "PyTorch": 0.3}),
        status=status_choice(rng, p_failed=0.06),
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(8, 35)),
            gmem_util_mean=float(rng.uniform(10, 40)),
            gmem_used_gb=float(rng.uniform(2, 12)),
            cpu_util_mean=float(rng.uniform(20, 60)),
        ),
        extras=_base_extras(
            gpu_type,
            mem_used_gb=float(rng.uniform(4, 48)),
            multi_task=bool(rng.random() < 0.92),
            model=model,
        ),
    )


def _nlp_train(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Language-model training: GPU-bound, CPU-light (Table VIII PAI4)."""
    model = categorical_choice(rng, {"bert": 0.5, "nmt": 0.25, "xlnet": 0.25})
    gpu_type = categorical_choice(rng, {"V100": 0.8, "P100": 0.2})
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=9000.0, sigma=1.0, max_s=2e5),
        n_gpus=int(categorical_choice(rng, {8: 0.4, 16: 0.35, 32: 0.25})),
        n_cpus=int(rng.integers(50, 250)),
        mem_gb=float(rng.uniform(32, 128)),
        gpu_type=gpu_type,
        group=f"group{int(rng.integers(12, 150)):03d}",
        framework=categorical_choice(rng, {"Tensorflow": 0.5, "PyTorch": 0.5}),
        status=status_choice(rng, p_failed=0.10),
        profile=BehaviorProfile(
            sm_util_mean=float(rng.uniform(88, 100)),  # SM Util = Bin4
            gmem_util_mean=float(rng.uniform(50, 90)),
            gmem_used_gb=float(rng.uniform(12, 31)),
            cpu_util_mean=float(rng.uniform(1, 10)),  # CPU Util = Bin1
        ),
        extras=_base_extras(gpu_type, mem_used_gb=float(rng.uniform(8, 64)),
                            multi_task=bool(rng.random() < 0.3), model=model),
    )


def _distributed_flaky(rng: np.random.Generator, user: UserProfile, job_id: int) -> JobRequest:
    """Mid-size GPU gangs that fail at launch (Table V C4/C5).

    "A user requests a decent number of GPUs … but does not properly use
    the GPU cores and memory."
    """
    failed = rng.random() < 0.80
    idle = failed or rng.random() < 0.5
    gpu_type = categorical_choice(rng, {"V100": 0.5, "P100": 0.3, None: 0.2})
    return JobRequest(
        job_id=job_id,
        user=user.name,
        submit_time=0.0,
        runtime=lognormal_runtime(rng, median_s=600.0, sigma=0.9, max_s=2e4),
        n_gpus=int(rng.integers(25, 100)),
        n_cpus=int(rng.integers(100, 900)),
        mem_gb=float(rng.uniform(32, 128)),
        gpu_type=gpu_type,
        group=f"group{int(rng.integers(12, 150)):03d}",
        framework=categorical_choice(rng, {"Tensorflow": 0.6, "PyTorch": 0.4}),
        status=(
            status_choice(rng, p_failed=1.0)
            if failed
            else status_choice(rng, p_failed=0.0)
        ),
        profile=BehaviorProfile(
            sm_util_mean=0.0 if idle else float(rng.uniform(20, 60)),
            gmem_util_mean=0.0 if idle else float(rng.uniform(15, 50)),
            gmem_used_gb=0.0 if idle else float(rng.uniform(4, 24)),
            cpu_util_mean=float(rng.uniform(2, 20)),
        ),
        extras=_base_extras(
            gpu_type if gpu_type is not None else "None",
            mem_used_gb=float(rng.uniform(0.5, 8.0)),
            multi_task=False,
            model=None,
        ),
    )


# --------------------------------------------------------------------------
# batched (columnar) archetype samplers — numpy twins of the per-job
# samplers above, drawing each archetype's whole row block at once; the
# per-job samplers remain the oracle for the scheduler/simulator path
# --------------------------------------------------------------------------

def _group_block(
    rng: np.random.Generator, n: int, lo: int, hi: int
) -> CatBlock:
    """Uniform group draw over ``group{lo:03d}..group{hi-1:03d}``."""
    codes = (rng.integers(lo, hi, size=n) - lo).astype(np.int32)
    return CatBlock(codes, [f"group{i:03d}" for i in range(lo, hi)])


def _debug_template_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    return {
        "runtime": lognormal_runtime_batch(rng, n, median_s=120.0, sigma=0.8, max_s=3600),
        "n_gpus": np.where(rng.random(n) < 0.75, 1.0, 2.0),
        "cpu_request": np.full(n, STD_CPU_REQUEST),
        "mem_request": np.full(n, STD_MEM_REQUEST),
        "gpu_type_req": CatBlock.full(n, "None"),
        "framework": CatBlock.full(n, "Tensorflow"),
        "model_name": CatBlock.full(n, None),
        "status": status_codes(rng, n, p_failed=0.30),
        "group": _group_block(rng, n, 0, 12),
        "mem_used_gb": rng.uniform(0.2, 2.0, n),
        "gmem_used_gb": rng.uniform(0.0, 0.4, n),
        "sm_util": np.zeros(n),
        "cpu_util": rng.uniform(1.0, 8.0, n),
        "multi_task": np.zeros(n, dtype=bool),
    }


def _bulk_failer_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    return {
        "user": CatBlock.full(n, "user0000"),  # the single dominant submitter
        "runtime": lognormal_runtime_batch(rng, n, median_s=60.0, sigma=0.5, max_s=900),
        "n_gpus": np.where(rng.random(n) < 0.7, 1.0, 2.0),
        "cpu_request": rng.integers(20, 80, size=n).astype(np.float64),
        "mem_request": np.full(n, STD_MEM_REQUEST),
        "gpu_type_req": CatBlock.full(n, "None"),
        "framework": CatBlock.full(n, "Tensorflow"),
        "model_name": CatBlock.full(n, None),
        "status": status_codes(rng, n, p_failed=0.95),
        "group": CatBlock.full(n, "group000"),
        "mem_used_gb": rng.uniform(0.1, 1.0, n),
        "gmem_used_gb": np.zeros(n),  # exact 0 GB: fails before load
        "sm_util": np.zeros(n),
        "cpu_util": rng.uniform(1.0, 6.0, n),
        "multi_task": np.zeros(n, dtype=bool),
    }


def _production_train_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    return {
        "runtime": lognormal_runtime_batch(rng, n, median_s=4200.0, sigma=1.1, max_s=1e5),
        "n_gpus": np.asarray([8.0, 16.0, 32.0])[
            rng.choice(3, size=n, p=[0.5, 0.3, 0.2])
        ],
        "cpu_request": rng.integers(100, 1200, size=n).astype(np.float64),
        "mem_request": rng.uniform(32, 256, n),
        "gpu_type_req": categorical_codes(rng, n, {"V100": 0.55, "P100": 0.45}),
        "framework": categorical_codes(
            rng, n, {"Tensorflow": 0.45, "PyTorch": 0.45, "Other Framework": 0.10}
        ),
        "model_name": categorical_codes(
            rng,
            n,
            {None: 0.62, "resnet": 0.14, "vgg": 0.09, "inception": 0.07, "bert": 0.08},
        ),
        "status": status_codes(rng, n, p_failed=0.08),
        "group": _group_block(rng, n, 12, 150),
        "mem_used_gb": rng.uniform(8, 120, n),
        "gmem_used_gb": rng.uniform(4, 28, n),
        "sm_util": np.round(rng.uniform(35, 90, n)),
        "cpu_util": rng.uniform(25, 80, n),
        "multi_task": rng.random(n) < 0.3,
    }


def _recsys_serving_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    return {
        "runtime": lognormal_runtime_batch(rng, n, median_s=1800.0, sigma=0.9, max_s=4e4),
        "n_gpus": np.asarray([2.0, 4.0, 8.0])[
            rng.choice(3, size=n, p=[0.5, 0.35, 0.15])
        ],
        "cpu_request": rng.integers(100, 600, size=n).astype(np.float64),
        "mem_request": rng.uniform(16, 64, n),
        "gpu_type_req": categorical_codes(rng, n, {"T4": 0.9, "V100": 0.1}),
        "framework": categorical_codes(rng, n, {"Tensorflow": 0.7, "PyTorch": 0.3}),
        "model_name": categorical_codes(rng, n, {"ctr": 0.5, "din": 0.3, "dien": 0.2}),
        "status": status_codes(rng, n, p_failed=0.06),
        "group": _group_block(rng, n, 12, 150),
        "mem_used_gb": rng.uniform(4, 48, n),
        "gmem_used_gb": rng.uniform(2, 12, n),
        "sm_util": np.round(rng.uniform(8, 35, n)),
        "cpu_util": rng.uniform(20, 60, n),
        "multi_task": rng.random(n) < 0.92,
    }


def _nlp_train_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    return {
        "runtime": lognormal_runtime_batch(rng, n, median_s=9000.0, sigma=1.0, max_s=2e5),
        "n_gpus": np.asarray([8.0, 16.0, 32.0])[
            rng.choice(3, size=n, p=[0.4, 0.35, 0.25])
        ],
        "cpu_request": rng.integers(50, 250, size=n).astype(np.float64),
        "mem_request": rng.uniform(32, 128, n),
        "gpu_type_req": categorical_codes(rng, n, {"V100": 0.8, "P100": 0.2}),
        "framework": categorical_codes(rng, n, {"Tensorflow": 0.5, "PyTorch": 0.5}),
        "model_name": categorical_codes(
            rng, n, {"bert": 0.5, "nmt": 0.25, "xlnet": 0.25}
        ),
        "status": status_codes(rng, n, p_failed=0.10),
        "group": _group_block(rng, n, 12, 150),
        "mem_used_gb": rng.uniform(8, 64, n),
        "gmem_used_gb": rng.uniform(12, 31, n),
        "sm_util": np.round(rng.uniform(88, 100, n)),  # SM Util = Bin4
        "cpu_util": rng.uniform(1, 10, n),  # CPU Util = Bin1
        "multi_task": rng.random(n) < 0.3,
    }


def _distributed_flaky_batch(rng: np.random.Generator, ctx: BatchContext) -> dict:
    n = ctx.n
    failed = rng.random(n) < 0.80
    idle = failed | (rng.random(n) < 0.5)
    gpu_type = categorical_codes(rng, n, {"V100": 0.5, "P100": 0.3, None: 0.2})
    # unspecified requests render as the explicit "None" label in the table
    req_categories = [*gpu_type.categories, "None"]
    req_codes = np.where(
        gpu_type.codes >= 0, gpu_type.codes, np.int32(len(gpu_type.categories))
    ).astype(np.int32)
    status = CatBlock(
        failed.astype(np.int32), ["completed", "failed"]
    )
    return {
        "runtime": lognormal_runtime_batch(rng, n, median_s=600.0, sigma=0.9, max_s=2e4),
        "n_gpus": rng.integers(25, 100, size=n).astype(np.float64),
        "cpu_request": rng.integers(100, 900, size=n).astype(np.float64),
        "mem_request": rng.uniform(32, 128, n),
        "gpu_type_req": CatBlock(req_codes, req_categories),
        "framework": categorical_codes(rng, n, {"Tensorflow": 0.6, "PyTorch": 0.4}),
        "model_name": CatBlock.full(n, None),
        "status": status,
        "group": _group_block(rng, n, 12, 150),
        "mem_used_gb": rng.uniform(0.5, 8.0, n),
        "gmem_used_gb": np.where(idle, 0.0, rng.uniform(4, 24, n)),
        "sm_util": np.where(idle, 0.0, np.round(rng.uniform(20, 60, n))),
        "cpu_util": rng.uniform(2, 20, n),
        "multi_task": np.zeros(n, dtype=bool),
    }


def _pai_archetypes() -> list[Archetype]:
    return [
        Archetype(
            "debug_template", 0.30, _debug_template,
            new_user_multiplier=1.3, batch_sampler=_debug_template_batch,
        ),
        Archetype(
            "bulk_failer", 0.12, _bulk_failer,
            new_user_multiplier=0.1, batch_sampler=_bulk_failer_batch,
        ),
        Archetype(
            "production_train", 0.33, _production_train,
            batch_sampler=_production_train_batch,
        ),
        Archetype(
            "recsys_serving", 0.10, _recsys_serving,
            batch_sampler=_recsys_serving_batch,
        ),
        Archetype("nlp_train", 0.07, _nlp_train, batch_sampler=_nlp_train_batch),
        Archetype(
            "distributed_flaky", 0.08, _distributed_flaky,
            batch_sampler=_distributed_flaky_batch,
        ),
    ]


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------

def generate_pai(config: PAIConfig = PAIConfig()) -> ColumnTable:
    """Generate a merged PAI job table (one row per job/task)."""
    if config.columnar:
        return _generate_pai_columnar(config)
    users = UserPopulation(
        config.n_users, new_user_fraction=0.12, seed=config.seed, name_prefix="user"
    )
    mixer = ArchetypeMixer(_pai_archetypes(), users, seed=config.seed)
    jobs = mixer.sample_jobs(config.n_jobs)

    cluster = _pai_cluster()
    for job in jobs:
        # preserve the logical request quotas before placement adjustments
        job.extras["cpu_request"] = float(job.n_cpus)
        job.extras["mem_request"] = float(job.mem_gb)
        # route unspecified-type jobs to the misc pool (PAI assigns "a
        # miscellaneous low-end GPU type", Sec. II)
        if job.gpu_type is None:
            job.gpu_type = "MISC"
        # PAI CPU/memory requests are logical quotas far above node size;
        # scale them down for placement so they never gate GPU allocation
        job.n_cpus = min(job.n_cpus, 90)
        job.mem_gb = min(job.mem_gb, 256.0)

    duration = calibrated_duration(
        jobs,
        total_gpus=sum(
            n for t, n in cluster.gpus_by_type().items() if t in ("V100", "P100")
        ),
        target_utilization=config.congestion,
    )
    rng = np.random.default_rng(config.seed + 1)
    poisson_arrivals(rng, jobs, duration)

    telemetry_config = TelemetryConfig(sample_interval_s=30.0, max_samples_per_job=64)
    if config.use_scheduler:
        sim = ClusterSimulator(cluster, telemetry=telemetry_config, seed=config.seed + 2)
        result = sim.run(jobs)
        table = result.to_table()
    else:
        # fast path for tests: queue delays drawn per pool instead of
        # emerging from the discrete-event scheduler
        table = _direct_table(jobs, telemetry_config, rng)
    return _finalize_pai_table(table)


def _generate_pai_columnar(config: PAIConfig) -> ColumnTable:
    """Columnar fast path: the whole trace as numpy column blocks.

    Statistically equivalent to the object-per-job fast path
    (``use_scheduler=False``) — same archetype mixture, distributions and
    schema — but drawn batch-at-a-time with no per-job Python objects.
    Queue delays are sampled per pool like :func:`_direct_table`: short
    for the T4/misc pools, long for the congested non-T4 pools.
    """
    users = UserPopulation(
        config.n_users, new_user_fraction=0.12, seed=config.seed, name_prefix="user"
    )
    mixer = ArchetypeMixer(_pai_archetypes(), users, seed=config.seed)
    table = mixer.sample_columns(config.n_jobs)

    rng = np.random.default_rng(config.seed + 1)
    gpu_req = table["gpu_type_req"]
    fast = gpu_req.equals_scalar("None") | gpu_req.equals_scalar("T4")
    delay = rng.exponential(1.0, len(table)) * np.where(fast, 120.0, 7200.0)
    table.add_column("queue_delay", NumericColumn(delay))
    return _finalize_pai_table(table)


def _direct_table(
    jobs: list[JobRequest],
    telemetry_config: TelemetryConfig,
    rng: np.random.Generator,
) -> ColumnTable:
    from ...cluster import GPUTelemetryModel, JobRecord

    model = GPUTelemetryModel(telemetry_config, seed=17)
    rows = []
    for job in jobs:
        mean_delay = 120.0 if job.gpu_type in ("T4", "MISC") else 7200.0
        delay = float(rng.exponential(mean_delay))
        summary = model.summarize(job.profile, job.runtime)
        record = JobRecord(
            request=job,
            start_time=job.submit_time + delay,
            end_time=job.submit_time + delay + job.runtime,
            node=None,
            assigned_gpu_type=job.gpu_type,
            telemetry=summary.as_dict(),
        )
        rows.append(record.as_row())
    return ColumnTable.from_records(rows)


def _finalize_pai_table(table: ColumnTable) -> ColumnTable:
    """Select/rename the analysis columns of the merged PAI table."""
    out = table.select(
        [
            "job_id",
            "user",
            "group",
            "queue_delay",
            "runtime",
            "n_gpus",
            "cpu_request",
            "mem_request",
            "gpu_type_req",
            "framework",
            "model_name",
            "status",
            "mem_used_gb",
            "gmem_used_gb",
            "sm_util",
            "cpu_util",
            "multi_task",
            "archetype",
        ]
    )
    out.add_column("failed", BooleanColumn(table["status"].equals_scalar("failed")))
    return out


def pai_preprocessor(include_model: bool = False) -> TracePreprocessor:
    """The Sec. III-E pipeline configured for the PAI schema.

    With ``include_model=True`` the (mostly-NaN) model column is encoded
    too — used after dropping unlabeled rows for the Table VIII analysis.
    """
    quart = BinningSpec()
    features = [
        FeatureSpec("user_tier", kind="label"),
        FeatureSpec("group_tier", kind="label"),
        FeatureSpec("n_gpus", item_feature="GPU Request", binning=quart),
        FeatureSpec(
            "cpu_request",
            item_feature="CPU Request",
            binning=BinningSpec(std_label="Std", std_threshold=0.3),
        ),
        FeatureSpec(
            "mem_request",
            item_feature="Mem Request",
            binning=BinningSpec(std_label="Std", std_threshold=0.3),
        ),
        FeatureSpec("gpu_type_req", item_feature="GPU Type"),
        FeatureSpec("framework", kind="label"),
        FeatureSpec("mem_used_gb", item_feature="Memory Used", binning=quart),
        FeatureSpec(
            "gmem_used_gb",
            item_feature="GMem Used",
            binning=BinningSpec(zero_label="0GB"),
        ),
        FeatureSpec(
            "sm_util", item_feature="SM Util", binning=BinningSpec(zero_label="0%")
        ),
        FeatureSpec("cpu_util", item_feature="CPU Util", binning=quart),
        FeatureSpec("runtime", item_feature="Runtime", binning=quart),
        FeatureSpec("queue_delay", item_feature="Queue", binning=quart),
        FeatureSpec("multi_task", kind="flag", true_label="Multiple Tasks"),
        FeatureSpec("failed", kind="flag", true_label="Failed"),
    ]
    if include_model:
        features.append(FeatureSpec("model_name", item_feature="Model"))
    return TracePreprocessor(
        features=features,
        tier_specs=[
            TierSpec(
                "user",
                "user_tier",
                frequent_label="Freq User",
                moderate_label="Moderate User",
                rare_label="Rare User",
            ),
            TierSpec(
                "group",
                "group_tier",
                frequent_label="Freq Group",
                moderate_label="Moderate Group",
                rare_label="Rare Group",
            ),
        ],
        grouping_specs=[
            GroupingSpec(
                "gpu_type_req", {"P100": "None T4", "V100": "None T4"}
            ),
            GroupingSpec(
                "model_name",
                {
                    "resnet": "CV", "vgg": "CV", "inception": "CV",
                    "bert": "NLP", "nmt": "NLP", "xlnet": "NLP",
                    "ctr": "RecSys", "din": "RecSys", "dien": "RecSys",
                },
            ),
        ]
        if include_model
        else [GroupingSpec("gpu_type_req", {"P100": "None T4", "V100": "None T4"})],
    )
