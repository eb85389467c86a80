"""Log-bucketed latency histogram of the rule-serving subsystem.

Stage and kernel instrumentation of the mining engine lives in
:mod:`repro.obs`; the cross-shard merge of serving ``metrics`` payloads
lives in :mod:`repro.serve.router`.
"""

from __future__ import annotations

import bisect
import math

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Log-bucketed latency histogram: O(1) record, O(buckets) quantiles.

    Latencies are binned into geometrically spaced buckets between
    *min_seconds* and *max_seconds* (defaults cover 1 µs … 60 s at ~9 %
    resolution), so memory stays constant no matter how many samples are
    recorded — the property an online service needs to report p50/p99
    over millions of requests.  Quantiles are answered by walking the
    cumulative counts and interpolating within the winning bucket, which
    bounds the error by the bucket width.

    Used by the rule-serving subsystem (:mod:`repro.serve.service`,
    :mod:`repro.serve.router`).
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
