"""Execution backends: how a mining pass runs, never what it computes.

A backend turns ``(TransactionDatabase, MiningConfig)`` into
:class:`~repro.core.itemsets.FrequentItemsets`.  All backends are
answer-identical — they change the execution plan only:

* ``serial`` — one in-process pass of the configured algorithm;
* ``threaded`` — SON two-phase over a thread pool (phase 2 is numpy
  bitmap counting, which releases the GIL);
* ``process`` — SON two-phase over a process pool fed by the
  shared-memory data plane (:mod:`repro.shm`), the shape distributed
  miners (Spark SON) use at cluster scale — spawn-safe, since workers
  attach the published database instead of relying on fork inheritance;
* ``auto`` — the backend ``MiningEngine`` defaults to; resolves to
  ``serial`` at every size.  SON's fixed costs alone — the vertical
  bitmap build plus the phase-2 recount of every candidate — exceed a
  whole serial mask-kernel pass (about 1.4 s against 0.5 s for 300k PAI
  jobs on 2 cores), so the partitioned plans stay opt-in by name.

Each backend reports the plan it actually executed through
``effective_plan`` (and ``downgraded`` when a fallback was taken), which
the engine surfaces in :class:`~repro.engine.stats.EngineStats`.

Backends register in :data:`BACKENDS`, mirroring the
:data:`~repro.core.mining.ALGORITHMS` registry one layer down.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..core.bitmap import PackedBitmaps
from ..core.itemsets import FrequentItemsets
from ..core.mining import ALGORITHMS, MiningConfig
from ..core.transactions import TransactionDatabase
from ..parallel.partition import (
    count_candidates,
    local_candidates,
    shm_local_candidates,
)
from ..shm.database import publish_database
from ..shm.segment import NO_SHM_ENV, SegmentError, shm_available

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "AutoBackend",
    "BACKENDS",
    "register_backend",
    "get_backend",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The contract every execution backend satisfies."""

    name: str

    def mine(
        self, db: TransactionDatabase, config: MiningConfig
    ) -> FrequentItemsets: ...

    def resolve(self, db: TransactionDatabase) -> "ExecutionBackend":
        """The concrete backend that will run *db* (self, unless auto)."""
        ...


class SerialBackend:
    """Single in-process pass of the configured algorithm."""

    name = "serial"
    #: the plan actually executed — constant here, dynamic for process
    effective_plan = "serial"
    downgraded = False

    def mine(self, db: TransactionDatabase, config: MiningConfig) -> FrequentItemsets:
        algorithm = ALGORITHMS[config.algorithm]
        counts = algorithm(db, config.min_support, config.max_len)
        return FrequentItemsets(
            counts,
            db.vocabulary,
            len(db),
            min_support=config.min_support,
            max_len=config.max_len,
        )

    def resolve(self, db: TransactionDatabase) -> "SerialBackend":
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _PartitionedBackend:
    """SON two-phase mining; subclasses pick the phase-1 executor.

    Phase 1 mines each partition at the same relative support (the
    pigeonhole argument makes the union a complete candidate set); phase
    2 counts every candidate exactly over the full database's vertical
    bitmaps.  The result is bit-exact against a serial pass — SON changes
    the execution plan, not the answer.
    """

    name = "partitioned"
    _executor_cls: type[Executor]
    effective_plan: str | None = None
    downgraded = False

    def __init__(self, n_workers: int | None = None, n_partitions: int | None = None):
        if n_workers is None:
            n_workers = min(4, os.cpu_count() or 1)
        if n_partitions is None:
            n_partitions = max(n_workers, 2)
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.n_partitions = n_partitions

    def mine(self, db: TransactionDatabase, config: MiningConfig) -> FrequentItemsets:
        n = len(db)
        if n == 0:
            return FrequentItemsets(
                {}, db.vocabulary, 0, config.min_support, config.max_len
            )
        # build the packed bitmaps up front: 64-aligned partitions then
        # inherit word slices of this build (txn_range) instead of packing
        # their own, and phase 2 counts against the same object
        bitmaps = db.bitmaps()
        bounds = db.partition_bounds(self.n_partitions)
        spans = [
            (int(bounds[k]), int(bounds[k + 1]))
            for k in range(len(bounds) - 1)
            if bounds[k + 1] > bounds[k]
        ]
        candidates = self._phase1(db, spans, config)
        counts = self._phase2(db, candidates, bitmaps)
        min_count = max(1, int(np.ceil(config.min_support * n - 1e-9)))
        frequent = {s: c for s, c in counts.items() if c >= min_count}
        return FrequentItemsets(
            frequent, db.vocabulary, n, config.min_support, config.max_len
        )

    def _phase1(
        self,
        db: TransactionDatabase,
        spans: list[tuple[int, int]],
        config: MiningConfig,
    ) -> set[frozenset[int]]:
        """SON phase 1: union of locally frequent itemsets per partition."""
        parts = [db.txn_range(a, b) for a, b in spans]
        args = (
            parts,
            [config.min_support] * len(parts),
            [config.max_len] * len(parts),
            [config.algorithm] * len(parts),
        )
        if self.n_workers == 1 or len(parts) == 1:
            locals_ = [local_candidates(*a) for a in zip(*args)]
        else:
            with self._executor_cls(
                max_workers=min(self.n_workers, len(parts))
            ) as pool:
                locals_ = list(pool.map(local_candidates, *args))
        candidates: set[frozenset[int]] = set()
        for c in locals_:
            candidates |= c
        return candidates

    def _phase2(
        self,
        db: TransactionDatabase,
        candidates: set[frozenset[int]],
        bitmaps: PackedBitmaps,
    ) -> dict[frozenset[int], int]:
        """SON phase 2: exact global counts over the shared packed bitmaps."""
        return count_candidates(db, candidates, bitmaps=bitmaps)

    def resolve(self, db: TransactionDatabase) -> "_PartitionedBackend":
        return self

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"n_partitions={self.n_partitions})"
        )


class ThreadedBackend(_PartitionedBackend):
    """SON over a thread pool (shared-memory, no pickling).

    Phase 1 partitions are zero-copy ``txn_range`` views sharing the
    parent's bitmap slices; phase 2 shards the candidate set across the
    same worker threads, each chunk an independent run of the packed
    AND+popcount kernel (numpy releases the GIL, so the chunks genuinely
    overlap).
    """

    name = "threaded"
    _executor_cls = ThreadPoolExecutor
    effective_plan = "threaded"

    #: below this many candidates, thread dispatch costs more than it saves
    _PHASE2_CHUNK_MIN = 256

    def _phase2(
        self,
        db: TransactionDatabase,
        candidates: set[frozenset[int]],
        bitmaps: PackedBitmaps,
    ) -> dict[frozenset[int], int]:
        items = list(candidates)
        n_chunks = min(self.n_workers, len(items) // self._PHASE2_CHUNK_MIN)
        if n_chunks <= 1:
            return count_candidates(db, items, bitmaps=bitmaps)
        chunks = [items[i::n_chunks] for i in range(n_chunks)]
        out: dict[frozenset[int], int] = {}
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            for counted in pool.map(
                lambda chunk: count_candidates(db, chunk, bitmaps=bitmaps),
                chunks,
            ):
                out.update(counted)
        return out


class ProcessBackend(_PartitionedBackend):
    """SON over a process pool fed by the shared-memory data plane.

    The parent publishes the database — CSR arrays plus the already-built
    packed bitmaps — into one shared-memory segment
    (:func:`repro.shm.publish_database`) and phase 1 ships only
    ``(segment name, start, stop)`` per span.  Each worker attaches
    read-only zero-copy views and takes a ``txn_range`` view whose
    bitmaps are word slices of the published build, so no worker ever
    re-derives a vertical representation — under *any* start method,
    spawn included.  When shared memory is unavailable (or disabled via
    ``REPRO_NO_SHM`` / ``--no-shm``) it falls back to pickling whole
    partitions; the fallback is recorded in :attr:`effective_plan` /
    :attr:`downgraded` and surfaced through EngineStats.
    """

    name = "process"
    _executor_cls = ProcessPoolExecutor

    def __init__(self, n_workers: int | None = None, n_partitions: int | None = None):
        super().__init__(n_workers, n_partitions)
        self.effective_plan: str | None = None
        self.downgraded = False

    def _phase1(
        self,
        db: TransactionDatabase,
        spans: list[tuple[int, int]],
        config: MiningConfig,
    ) -> set[frozenset[int]]:
        if self.n_workers == 1 or len(spans) == 1:
            # the base class runs this shape inline — no pool, no copy
            self.effective_plan = "process:inline"
            self.downgraded = False
            return super()._phase1(db, spans, config)
        if shm_available():
            try:
                lease = publish_database(db)
            except SegmentError:  # pragma: no cover - e.g. /dev/shm full
                lease = None
            if lease is not None:
                return self._phase1_shm(lease.name, spans, config)
        # fallback: pickle whole partitions through the default pool —
        # intentional under REPRO_NO_SHM, a downgrade everywhere else
        self.effective_plan = "process:pickle"
        self.downgraded = not os.environ.get(NO_SHM_ENV)
        return super()._phase1(db, spans, config)

    def _phase1_shm(
        self,
        segment: str,
        spans: list[tuple[int, int]],
        config: MiningConfig,
    ) -> set[frozenset[int]]:
        n_spans = len(spans)
        start_method = multiprocessing.get_start_method()
        self.effective_plan = f"process:shm-{start_method}"
        self.downgraded = False
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, n_spans)
        ) as pool:
            locals_ = list(
                pool.map(
                    shm_local_candidates,
                    [segment] * n_spans,
                    [a for a, _ in spans],
                    [b for _, b in spans],
                    [config.min_support] * n_spans,
                    [config.max_len] * n_spans,
                    [config.algorithm] * n_spans,
                )
            )
        candidates: set[frozenset[int]] = set()
        for c in locals_:
            candidates |= c
        return candidates


class AutoBackend:
    """The default plan: serial, whatever the database size.

    Kept as its own name so callers can ask for "the best plan" without
    naming one; ``n_workers``/``n_partitions`` are accepted for the
    registry's uniform factory signature.
    """

    name = "auto"

    def __init__(self, n_workers: int | None = None, n_partitions: int | None = None):
        self._serial = SerialBackend()

    def resolve(self, db: TransactionDatabase) -> ExecutionBackend:
        return self._serial

    def mine(self, db: TransactionDatabase, config: MiningConfig) -> FrequentItemsets:
        return self._serial.mine(db, config)

    def __repr__(self) -> str:
        return "AutoBackend()"


#: backend registry — name → factory accepting (n_workers=, n_partitions=)
BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {
    "serial": lambda n_workers=None, n_partitions=None: SerialBackend(),
    "threaded": ThreadedBackend,
    "process": ProcessBackend,
    "auto": AutoBackend,
}


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Add a custom backend under *name* (overwriting is an error)."""
    if name in BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    BACKENDS[name] = factory


def get_backend(
    name: str,
    n_workers: int | None = None,
    n_partitions: int | None = None,
) -> ExecutionBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; have {sorted(BACKENDS)}"
        ) from None
    return factory(n_workers=n_workers, n_partitions=n_partitions)
