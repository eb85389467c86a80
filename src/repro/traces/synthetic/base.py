"""Shared machinery for the synthetic trace generators.

Association rule mining only observes the joint distribution of one-hot
items, so a generator that plants the paper's conditional probabilities
reproduces the paper's rule *shapes* (which antecedents imply which
consequents, the ordering of lifts) — the substitution argument recorded
in DESIGN.md.

Each trace generator defines a set of :class:`Archetype` objects — latent
job classes like "debug/template job" or "distributed flaky job" — whose
mixture induces the associations.  The machinery here handles:

* archetype sampling with per-user modifiers (new users skew toward
  debug-style archetypes);
* heavy-tailed runtime draws (log-normal, the standard fit for cluster
  job runtimes);
* self-calibrating arrival processes: the submission window is derived
  from total GPU demand and a target utilisation, so scheduler-produced
  queue delays are meaningful at any generated scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ...cluster.job import JobRequest, JobStatus
from ...cluster.users import UserPopulation, UserProfile
from ...dataframe import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    ColumnTable,
    NumericColumn,
)

__all__ = [
    "Archetype",
    "ArchetypeMixer",
    "BatchContext",
    "CatBlock",
    "lognormal_runtime",
    "lognormal_runtime_batch",
    "categorical_choice",
    "categorical_codes",
    "status_choice",
    "status_codes",
    "poisson_arrivals",
    "calibrated_duration",
]


@dataclass(frozen=True, slots=True)
class CatBlock:
    """A categorical column block: int codes into a category list.

    The columnar samplers' counterpart of a string column — ``-1`` codes
    mark missing values.  Blocks from different archetypes are merged by
    remapping their categories into one shared list.
    """

    codes: np.ndarray
    categories: list[str]

    @classmethod
    def full(cls, n: int, label: str | None) -> "CatBlock":
        """A constant block: every row is *label* (None → all missing)."""
        if label is None:
            return cls(np.full(n, -1, dtype=np.int32), [])
        return cls(np.zeros(n, dtype=np.int32), [label])


@dataclass(frozen=True, slots=True)
class BatchContext:
    """Per-archetype context handed to a batched sampler.

    ``job_ids`` are the global row indices this archetype was assigned;
    ``is_new`` flags which of those rows belong to new users.
    """

    n: int
    job_ids: np.ndarray
    is_new: np.ndarray


#: a batched sampler: (rng, ctx) → column name → block for ctx.n rows;
#: float/int arrays become numeric columns, bool arrays boolean columns,
#: CatBlock categorical columns
BatchSampler = Callable[
    [np.random.Generator, BatchContext], dict[str, "np.ndarray | CatBlock"]
]


@dataclass(frozen=True, slots=True)
class Archetype:
    """A latent job class: mixture weight + a sampler for its jobs.

    ``sampler(rng, user, job_id) -> JobRequest`` draws one job of this
    class (submit_time left 0; arrival assignment happens afterwards).
    ``new_user_multiplier`` scales this archetype's weight for new users,
    planting the user-tenure associations of the case studies.
    ``batch_sampler``, when provided, draws all of the archetype's jobs
    at once as numpy column blocks — the columnar fast path used by
    :meth:`ArchetypeMixer.sample_columns`; the per-job ``sampler`` stays
    the oracle for the scheduler/simulator path.
    """

    name: str
    weight: float
    sampler: Callable[[np.random.Generator, UserProfile, int], JobRequest]
    new_user_multiplier: float = 1.0
    batch_sampler: BatchSampler | None = None

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("archetype weight must be >= 0")
        if self.new_user_multiplier < 0:
            raise ValueError("new_user_multiplier must be >= 0")


class ArchetypeMixer:
    """Samples jobs from an archetype mixture over a user population."""

    def __init__(
        self,
        archetypes: Sequence[Archetype],
        users: UserPopulation,
        seed: int = 0,
    ):
        if not archetypes:
            raise ValueError("at least one archetype is required")
        total = sum(a.weight for a in archetypes)
        if total <= 0:
            raise ValueError("archetype weights must sum to > 0")
        self.archetypes = list(archetypes)
        self.users = users
        self.rng = np.random.default_rng(seed)
        self._base_weights = np.asarray([a.weight / total for a in archetypes])
        self._new_weights = self._base_weights * np.asarray(
            [a.new_user_multiplier for a in archetypes]
        )
        new_total = self._new_weights.sum()
        if new_total <= 0:
            raise ValueError("new-user archetype weights must sum to > 0")
        self._new_weights = self._new_weights / new_total

    def sample_jobs(self, n_jobs: int) -> list[JobRequest]:
        """Draw *n_jobs* (archetype, user) pairs and run the samplers."""
        users = self.users.sample(n_jobs, self.rng)
        jobs: list[JobRequest] = []
        k = len(self.archetypes)
        for job_id, user in enumerate(users):
            weights = self._new_weights if user.is_new else self._base_weights
            arch = self.archetypes[int(self.rng.choice(k, p=weights))]
            job = arch.sampler(self.rng, user, job_id)
            job.extras.setdefault("archetype", arch.name)
            jobs.append(job)
        return jobs

    def sample_columns(self, n_jobs: int) -> ColumnTable:
        """Columnar counterpart of :meth:`sample_jobs`: no per-job Python.

        Draws users and archetype assignments as whole arrays, runs each
        archetype's ``batch_sampler`` once over its assigned rows, and
        merges the blocks with masked fills into a :class:`ColumnTable`
        (``job_id``, ``user``, ``archetype`` plus whatever the samplers
        emit).  All archetypes share this mixer's RNG stream, like the
        per-job path.  Samplers may override the default ``user`` column
        for their rows (e.g. a single dominant submitter).
        """
        missing = [a.name for a in self.archetypes if a.batch_sampler is None]
        if missing:
            raise ValueError(
                f"archetypes {missing} have no batch_sampler; "
                "columnar generation is unavailable for this trace"
            )
        rng = self.rng
        user_idx = self.users.sample_indices(n_jobs, rng)
        is_new_by_user = np.asarray(
            [u.is_new for u in self.users.users], dtype=bool
        )
        is_new = is_new_by_user[user_idx]
        k = len(self.archetypes)
        arch = np.empty(n_jobs, dtype=np.int32)
        old = ~is_new
        arch[old] = rng.choice(k, size=int(old.sum()), p=self._base_weights)
        arch[is_new] = rng.choice(k, size=int(is_new.sum()), p=self._new_weights)

        order: list[str] = ["job_id", "user", "archetype"]
        numeric: dict[str, np.ndarray] = {
            "job_id": np.arange(n_jobs, dtype=np.float64)
        }
        boolean: dict[str, np.ndarray] = {}
        cat_codes: dict[str, np.ndarray] = {
            "user": user_idx.astype(np.int32),
            "archetype": arch,
        }
        cat_categories: dict[str, list[str]] = {
            "user": [u.name for u in self.users.users],
            "archetype": [a.name for a in self.archetypes],
        }
        cat_index: dict[str, dict[str, int]] = {
            name: {c: i for i, c in enumerate(cats)}
            for name, cats in cat_categories.items()
        }

        def _fill(name: str, rows: np.ndarray, block: "np.ndarray | CatBlock") -> None:
            if isinstance(block, CatBlock):
                if name in numeric or name in boolean:
                    raise TypeError(f"column {name!r} mixes block types")
                if name not in cat_codes:
                    cat_codes[name] = np.full(n_jobs, -1, dtype=np.int32)
                    cat_categories[name] = []
                    cat_index[name] = {}
                    order.append(name)
                index = cat_index[name]
                categories = cat_categories[name]
                remap = np.empty(len(block.categories) + 1, dtype=np.int32)
                remap[-1] = -1  # block code -1 stays missing
                for i, cat in enumerate(block.categories):
                    code = index.get(cat)
                    if code is None:
                        code = len(categories)
                        index[cat] = code
                        categories.append(cat)
                    remap[i] = code
                cat_codes[name][rows] = remap[np.asarray(block.codes, dtype=np.int64)]
                return
            block = np.asarray(block)
            if block.dtype.kind == "b":
                if name in numeric or name in cat_codes:
                    raise TypeError(f"column {name!r} mixes block types")
                if name not in boolean:
                    boolean[name] = np.zeros(n_jobs, dtype=bool)
                    order.append(name)
                boolean[name][rows] = block
            elif block.dtype.kind in "iuf":
                if name in boolean or name in cat_codes:
                    raise TypeError(f"column {name!r} mixes block types")
                if name not in numeric:
                    numeric[name] = np.full(n_jobs, np.nan, dtype=np.float64)
                    order.append(name)
                numeric[name][rows] = block.astype(np.float64, copy=False)
            else:
                raise TypeError(
                    f"column {name!r}: unsupported block dtype {block.dtype!r}"
                )

        for i, archetype in enumerate(self.archetypes):
            rows = np.flatnonzero(arch == i)
            if rows.size == 0:
                continue
            ctx = BatchContext(n=int(rows.size), job_ids=rows, is_new=is_new[rows])
            blocks = archetype.batch_sampler(rng, ctx)
            for name, block in blocks.items():
                _fill(name, rows, block)

        columns: dict[str, Column] = {}
        for name in order:
            if name in numeric:
                columns[name] = NumericColumn(numeric[name])
            elif name in boolean:
                columns[name] = BooleanColumn(boolean[name])
            else:
                columns[name] = CategoricalColumn(
                    cat_codes[name], cat_categories[name]
                )
        return ColumnTable(columns)


def lognormal_runtime(
    rng: np.random.Generator,
    median_s: float,
    sigma: float = 1.0,
    min_s: float = 5.0,
    max_s: float | None = None,
) -> float:
    """Heavy-tailed runtime draw around a median, clamped to [min, max]."""
    value = float(rng.lognormal(np.log(median_s), sigma))
    if max_s is not None:
        value = min(value, max_s)
    return max(value, min_s)


def lognormal_runtime_batch(
    rng: np.random.Generator,
    n: int,
    median_s: float,
    sigma: float = 1.0,
    min_s: float = 5.0,
    max_s: float | None = None,
) -> np.ndarray:
    """Batched :func:`lognormal_runtime`: *n* clamped heavy-tailed draws."""
    values = rng.lognormal(np.log(median_s), sigma, size=n)
    if max_s is not None:
        np.minimum(values, max_s, out=values)
    np.maximum(values, min_s, out=values)
    return values


def categorical_choice(
    rng: np.random.Generator, options: dict[Any, float]
) -> Any:
    """Weighted choice from a {label: weight} dict (weights normalised)."""
    labels = list(options)
    weights = np.asarray([options[l] for l in labels], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError("choice weights must sum to > 0")
    return labels[int(rng.choice(len(labels), p=weights / total))]


def categorical_codes(
    rng: np.random.Generator, n: int, options: dict[Any, float]
) -> CatBlock:
    """Batched :func:`categorical_choice`: *n* weighted label draws.

    ``None`` labels are drawn with their weight but encode as missing
    (code ``-1``), matching the per-job samplers that emit None values.
    """
    labels = list(options)
    weights = np.asarray([options[l] for l in labels], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError("choice weights must sum to > 0")
    draws = rng.choice(len(labels), size=n, p=weights / total).astype(np.int32)
    categories = [str(l) for l in labels if l is not None]
    if len(categories) != len(labels):
        remap = np.empty(len(labels), dtype=np.int32)
        next_code = 0
        for i, label in enumerate(labels):
            if label is None:
                remap[i] = -1
            else:
                remap[i] = next_code
                next_code += 1
        draws = remap[draws]
    return CatBlock(draws, categories)


def status_choice(
    rng: np.random.Generator,
    p_failed: float,
    p_killed: float = 0.0,
) -> JobStatus:
    """Draw a terminal status from failure/kill probabilities."""
    if p_failed + p_killed > 1.0 + 1e-9:
        raise ValueError("p_failed + p_killed must be <= 1")
    u = rng.random()
    if u < p_failed:
        return JobStatus.FAILED
    if u < p_failed + p_killed:
        return JobStatus.KILLED
    return JobStatus.COMPLETED


def status_codes(
    rng: np.random.Generator,
    n: int,
    p_failed: float,
    p_killed: float = 0.0,
) -> CatBlock:
    """Batched :func:`status_choice`: *n* terminal-status draws."""
    if p_failed + p_killed > 1.0 + 1e-9:
        raise ValueError("p_failed + p_killed must be <= 1")
    u = rng.random(n)
    codes = np.zeros(n, dtype=np.int32)
    codes[u < p_failed + p_killed] = 2
    codes[u < p_failed] = 1
    return CatBlock(
        codes,
        [JobStatus.COMPLETED.value, JobStatus.FAILED.value, JobStatus.KILLED.value],
    )


def calibrated_duration(
    jobs: Sequence[JobRequest], total_gpus: int, target_utilization: float = 0.75
) -> float:
    """Submission-window length that hits a target mean GPU utilisation.

    ``sum(gpus × runtime) / (total_gpus × duration) = target`` — solving
    for duration keeps contention (and hence queue-delay structure)
    scale-invariant when the generated job count changes.
    """
    if total_gpus <= 0:
        raise ValueError("total_gpus must be > 0")
    if not 0.0 < target_utilization <= 1.0:
        raise ValueError("target_utilization must be in (0, 1]")
    demand = sum(max(j.n_gpus, 1) * j.runtime for j in jobs)
    return demand / (total_gpus * target_utilization)


def poisson_arrivals(
    rng: np.random.Generator, jobs: Sequence[JobRequest], duration_s: float
) -> None:
    """Assign uniform-order-statistics submit times over [0, duration].

    (For a Poisson process conditioned on its count, arrival times are
    uniform order statistics — cheaper than summing exponential gaps.)
    """
    times = np.sort(rng.uniform(0.0, duration_s, size=len(jobs)))
    for job, t in zip(jobs, times):
        job.submit_time = float(t)
