"""Per-stage instrumentation for the mining engine.

Every engine run reports, per pipeline stage, the wall time, the input
and output cardinality, and whether the itemset cache answered the mine
stage.  The result is a machine-readable :class:`EngineStats` attached to
:class:`~repro.analysis.workflow.AnalysisResult`, so operators (and the
CLI stats footer) can see where a run spent its time without profiling.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

__all__ = [
    "StageStats",
    "EngineStats",
    "StageTimer",
    "LatencyHistogram",
    "aggregate_shard_metrics",
    "CACHE_STATES",
]

#: valid values of :attr:`StageStats.cache`
CACHE_STATES = ("hit", "miss", "off", "n/a")


@dataclass(frozen=True, slots=True)
class StageStats:
    """Instrumentation record of one pipeline stage.

    ``kernels`` attributes the stage's wall time to named counting
    kernels: ``(name, seconds, calls)`` tuples from the kernel-counter
    delta measured around the stage (see :mod:`repro.core.bitmap`).
    Empty for stages that ran no instrumented kernel.
    """

    name: str
    seconds: float
    n_in: int
    n_out: int
    cache: str = "n/a"
    kernels: tuple[tuple[str, float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.cache not in CACHE_STATES:
            raise ValueError(f"cache must be one of {CACHE_STATES}, got {self.cache!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "cache": self.cache,
            "kernels": [
                {"name": name, "seconds": seconds, "calls": calls}
                for name, seconds, calls in self.kernels
            ],
        }


@dataclass(slots=True)
class EngineStats:
    """Everything one engine run measured, in stage order.

    ``rules_skipped`` counts antecedent/consequent splits dropped during
    rule generation because a sub-itemset's support was missing from the
    table (possible with SON-style partitioned mining, which can emit a
    superset without every subset).  Silently losing those candidates
    would skew the rule counts, so the engine surfaces the tally here and
    the CLI ``--profile`` footer warns when it is non-zero.
    """

    backend: str
    stages: list[StageStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    rules_skipped: int = 0
    #: the execution plan the resolved backend actually ran — e.g.
    #: ``process:shm-spawn`` vs ``process:pickle`` — None when the
    #: backend predates plan reporting (custom registrations)
    backend_effective: str | None = None
    #: True when the requested backend silently fell back to a slower
    #: plan (e.g. shared memory unavailable → pickled partitions)
    backend_downgraded: bool = False

    def add(self, stage: StageStats) -> None:
        self.stages.append(stage)
        if stage.cache == "hit":
            self.cache_hits += 1
        elif stage.cache == "miss":
            self.cache_misses += 1

    def stage(self, name: str) -> StageStats:
        """The first recorded stage called *name*; KeyError if absent."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(
            f"no stage named {name!r}; have {[s.name for s in self.stages]}"
        )

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def as_dict(self) -> dict:
        """Machine-readable schema (documented in DESIGN.md §6)."""
        return {
            "backend": self.backend,
            "backend_effective": self.backend_effective,
            "backend_downgraded": self.backend_downgraded,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "rules_skipped": self.rules_skipped,
            "total_seconds": self.total_seconds,
            "stages": [stage.as_dict() for stage in self.stages],
        }

    def render(self, profile: bool = False) -> str:
        """Plain-text footer for the CLI (one line per stage).

        With ``profile=True``, each stage is followed by its kernel
        attribution — which counting kernels ran, for how long, how many
        times (the CLI ``--profile`` flag).
        """
        effective = (
            f" effective={self.backend_effective}"
            if self.backend_effective
            else ""
        )
        lines = [
            f"engine stats — backend={self.backend}{effective} "
            f"cache={self.cache_hits} hit / {self.cache_misses} miss "
            f"total={self.total_seconds:.3f}s"
        ]
        for stage in self.stages:
            lines.append(
                f"  {stage.name:<14} {stage.seconds:>8.3f}s  "
                f"in={stage.n_in:<8} out={stage.n_out:<8} cache={stage.cache}"
            )
            if profile:
                for name, seconds, calls in stage.kernels:
                    lines.append(
                        f"    kernel {name:<16} {seconds:>8.3f}s  calls={calls}"
                    )
        if self.backend_downgraded:
            lines.append(
                f"  warning: backend {self.backend} downgraded to "
                f"{self.backend_effective} (shared-memory plane unavailable)"
            )
        if self.rules_skipped:
            lines.append(
                f"  warning: {self.rules_skipped} candidate split(s) skipped "
                "(sub-itemset support missing from the itemset table)"
            )
        return "\n".join(lines)


class LatencyHistogram:
    """Log-bucketed latency histogram: O(1) record, O(buckets) quantiles.

    Latencies are binned into geometrically spaced buckets between
    *min_seconds* and *max_seconds* (defaults cover 1 µs … 60 s at ~9 %
    resolution), so memory stays constant no matter how many samples are
    recorded — the property an online service needs to report p50/p99
    over millions of requests.  Quantiles are answered by walking the
    cumulative counts and interpolating within the winning bucket, which
    bounds the error by the bucket width.

    Shared between the mining engine's stage instrumentation and the
    rule-serving subsystem (:mod:`repro.serve.service`).
    """

    __slots__ = (
        "_bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_min_seconds",
        "_max_seconds",
        "_growth",
    )

    def __init__(
        self,
        min_seconds: float = 1e-6,
        max_seconds: float = 60.0,
        growth: float = 1.09,
    ):
        if not 0 < min_seconds < max_seconds:
            raise ValueError("need 0 < min_seconds < max_seconds")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self._min_seconds = min_seconds
        self._max_seconds = max_seconds
        self._growth = growth
        bounds = [min_seconds]
        while bounds[-1] < max_seconds:
            bounds.append(bounds[-1] * growth)
        self._bounds = bounds  # upper edge of each bucket
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    def __len__(self) -> int:
        return self._count

    def record(self, seconds: float) -> None:
        """Record one latency sample (negative values clamp to zero)."""
        seconds = max(seconds, 0.0)
        # first bucket whose upper edge holds the sample
        self._counts[bisect.bisect_left(self._bounds, seconds)] += 1
        self._count += 1
        self._sum += seconds
        self._min = min(self._min, seconds)
        self._max = max(self._max, seconds)

    def quantile(self, q: float) -> float:
        """Approximate the *q*-quantile (0 ≤ q ≤ 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * (self._count - 1)
        seen = 0
        for i, count in enumerate(self._counts):
            if count == 0:
                continue
            if seen + count > rank:
                upper = (
                    self._bounds[i] if i < len(self._bounds) else self._max
                )
                lower = self._bounds[i - 1] if i > 0 else 0.0
                # interpolate within the bucket, clamped to observed range
                frac = (rank - seen + 1) / count
                value = lower + (upper - lower) * min(frac, 1.0)
                return min(max(value, self._min), self._max)
            seen += count
        return self._max  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def as_dict(self) -> dict:
        """Summary payload used by the serving ``metrics`` response."""
        return {
            "count": self._count,
            "mean_s": self.mean,
            "min_s": 0.0 if self._count == 0 else self._min,
            "max_s": self._max,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
        }

    # -- cross-process state -----------------------------------------------------
    # The serving layer runs one process per shard; each shard reports its
    # histogram as raw bucket counts (state_dict) and the router rebuilds
    # and merges them (from_state + merge).  Merging bucket counts is
    # exact — unlike averaging per-shard quantiles, which is wrong for
    # any skewed distribution — provided every histogram uses identical
    # bucket geometry, which the constructor parameters pin down.

    def state_dict(self) -> dict:
        """JSON-safe full state: bucket geometry plus raw counts."""
        return {
            "min_seconds": self._min_seconds,
            "max_seconds": self._max_seconds,
            "growth": self._growth,
            "counts": list(self._counts),
            "count": self._count,
            "sum_s": self._sum,
            "min_s": None if self._count == 0 else self._min,
            "max_s": self._max,
        }

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`state_dict` output."""
        hist = cls(
            min_seconds=state["min_seconds"],
            max_seconds=state["max_seconds"],
            growth=state["growth"],
        )
        counts = list(state["counts"])
        if len(counts) != len(hist._counts):
            raise ValueError(
                f"bucket count mismatch: state has {len(counts)}, "
                f"geometry implies {len(hist._counts)}"
            )
        hist._counts = counts
        hist._count = int(state["count"])
        hist._sum = float(state["sum_s"])
        min_s = state["min_s"]
        hist._min = math.inf if min_s is None else float(min_s)
        hist._max = float(state["max_s"])
        return hist

    def merge(self, other: "LatencyHistogram | dict") -> "LatencyHistogram":
        """Fold *other*'s samples into this histogram (exact; in place).

        Accepts another histogram or a :meth:`state_dict` payload.
        Raises :class:`ValueError` if the bucket geometries differ —
        counts from differently shaped histograms are not comparable.
        """
        if isinstance(other, dict):
            other = LatencyHistogram.from_state(other)
        if (
            other._min_seconds != self._min_seconds
            or other._max_seconds != self._max_seconds
            or other._growth != self._growth
        ):
            raise ValueError(
                "cannot merge histograms with different bucket geometry"
            )
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self


class StageTimer:
    """Context manager measuring one stage's wall time.

    Usage::

        with StageTimer() as t:
            ...work...
        stats.add(StageStats("mine", t.seconds, n_in, n_out, "miss"))
    """

    __slots__ = ("_start", "seconds")

    def __enter__(self) -> "StageTimer":
        self.seconds = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def aggregate_shard_metrics(shard_metrics: list[dict]) -> dict:
    """Merge per-shard serving ``metrics`` payloads into a cluster view.

    Input dicts are what one :class:`~repro.serve.service.RuleService`
    answers to a ``metrics`` request: request counters under
    ``requests``, per-rule fire counts under ``rule_matches``, and the
    latency histogram both summarised (``latency``) and as raw state
    (``latency_state``).  Counters, rule counts, and the batch-kernel
    attribution (``kernel``: batches/jobs/seconds) sum; latency merges
    at the bucket level, so the aggregate p99 is the true cluster p99,
    not an average of per-shard p99s; ``uptime_s`` is the oldest
    shard's (the cluster has been serving at least that long);
    ``queue_depth`` sums (total queued work across the cluster).
    """
    merged_latency = LatencyHistogram()
    requests: dict[str, int] = {}
    rule_matches: dict[str, int] = {}
    kernel: dict[str, float] = {"batches": 0, "jobs": 0, "seconds": 0.0}
    uptime_s = 0.0
    queue_depth = 0
    for metrics in shard_metrics:
        state = metrics.get("latency_state")
        if state:
            merged_latency.merge(state)
        for key, value in (metrics.get("requests") or {}).items():
            requests[key] = requests.get(key, 0) + int(value)
        for label, count in (metrics.get("rule_matches") or {}).items():
            rule_matches[label] = rule_matches.get(label, 0) + int(count)
        for key, value in (metrics.get("kernel") or {}).items():
            kernel[key] = kernel.get(key, 0) + value
        uptime_s = max(uptime_s, float(metrics.get("uptime_s") or 0.0))
        queue_depth += int(metrics.get("queue_depth") or 0)
    return {
        "n_shards": len(shard_metrics),
        "uptime_s": uptime_s,
        "queue_depth": queue_depth,
        "latency": merged_latency.as_dict(),
        "latency_state": merged_latency.state_dict(),
        "requests": requests,
        "kernel": kernel,
        "rule_matches": dict(sorted(rule_matches.items())),
    }
