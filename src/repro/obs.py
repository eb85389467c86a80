"""One stage ledger: where a mine's time went, per stage and per kernel.

A pipeline stage is opened with :func:`stage`::

    with stage(stats, "mine", len(db)) as s:
        itemsets = engine.mine(db, config)
        s.n_out = len(itemsets)

Opening a stage installs a fresh kernel ledger in a
:class:`~contextvars.ContextVar`; every :func:`kernel_timer` block that
runs in that context adds its wall time and one call to it.  On exit the
stage appends one :class:`StageStats` to *stats* with its wall time and
sorted ``(name, seconds, calls)`` kernels, and folds those kernels into
the enclosing stage's ledger, if there is one.

The context bounds attribution.  Work on another thread the stage did
not start — another analysis, the serving loop — runs in another context
and never lands in this stage.  ``asyncio.to_thread`` copies the caller's
context, so a stage opened inside a worker thread (a follow-mode tick)
still sees its own kernels; a plain :class:`threading.Thread` started
inside a stage does not copy it, so its kernels are not attributed.  With
no stage open, :func:`kernel_timer` does nothing at all.

A ledger takes no lock: it is written only by the thread that opened its
stage.  A context carrying an open stage must not be copied to another
thread that times kernels while the stage runs; the ``asyncio.to_thread``
calls in :mod:`repro.streaming.follow` and :mod:`repro.serve` are made
with no stage open.

Stdlib only, so every kernel module can import it.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "StageStats",
    "EngineStats",
    "CACHE_STATES",
    "kernel_timer",
    "stage",
]

#: valid values of :attr:`StageStats.cache`
CACHE_STATES = ("hit", "miss", "off", "n/a")

#: the open stage's ledger: kernel name → [seconds, calls]
_LEDGER: ContextVar[dict[str, list] | None] = ContextVar(
    "repro_stage_ledger", default=None
)


@dataclass(frozen=True, slots=True)
class StageStats:
    """Instrumentation record of one pipeline stage.

    ``kernels`` attributes the stage's wall time to named kernels:
    ``(name, seconds, calls)`` tuples of the kernel timers that ran in
    the stage's context (see :func:`stage`).  Empty for stages that ran
    no instrumented kernel.
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

    ``backend`` names the mining plan (``"serial"``, the only one); it is
    kept as the rulebook header's provenance field.
    """

    backend: str = "serial"
    stages: list[StageStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

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
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "total_seconds": self.total_seconds,
            "stages": [stage.as_dict() for stage in self.stages],
        }

    def render(self, profile: bool = False) -> str:
        """Plain-text footer for the CLI (one line per stage).

        With ``profile=True``, each stage is followed by its kernel
        attribution — which kernels ran, for how long, how many times
        (the CLI ``--profile`` flag).
        """
        lines = [
            f"engine stats — backend={self.backend} "
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
        return "\n".join(lines)


@contextmanager
def kernel_timer(name: str) -> Iterator[None]:
    """Time a block under kernel *name* in the open stage, if any."""
    ledger = _LEDGER.get()
    if ledger is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        entry = ledger.setdefault(name, [0.0, 0])
        entry[0] += time.perf_counter() - start
        entry[1] += 1


class _Stage:
    """What the caller fills in while its stage runs."""

    __slots__ = ("n_out", "cache")

    def __init__(self) -> None:
        self.n_out = 0
        self.cache = "n/a"


@contextmanager
def stage(stats: EngineStats, name: str, n_in: int) -> Iterator[_Stage]:
    """Time a block as stage *name* and append its :class:`StageStats`."""
    handle = _Stage()
    ledger: dict[str, list] = {}
    token = _LEDGER.set(ledger)
    start = time.perf_counter()
    try:
        yield handle
    finally:
        seconds = time.perf_counter() - start
        _LEDGER.reset(token)
    outer = _LEDGER.get()
    if outer is not None:
        for kernel, (kernel_seconds, calls) in ledger.items():
            entry = outer.setdefault(kernel, [0.0, 0])
            entry[0] += kernel_seconds
            entry[1] += calls
    stats.add(
        StageStats(
            name, seconds, n_in, handle.n_out, handle.cache,
            kernels=tuple(sorted((k, s, c) for k, (s, c) in ledger.items())),
        )
    )
