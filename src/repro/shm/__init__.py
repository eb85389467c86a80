"""Shared-memory zero-copy rule plane.

A compiled rule plane (RuleTable columns,
:class:`~repro.serve.batchmatch.BatchMaskKernel` masks, per-rule wire
JSON) is published once into a ``multiprocessing.shared_memory`` segment
and attached read-only by every serving worker: the fleet's hot-swap
ships a segment name through ``broadcast_reload``, so each shard
attaches the already-compiled plane in milliseconds and fleet RSS stays
~1× the book instead of N×.

Layout, naming and lifecycle live in :mod:`repro.shm.segment`; the
codec is :mod:`repro.shm.ruleplane`.  Where the platform has no shared
memory, or a segment cannot be attached, shards say so and compile the
book themselves; that per-shard compile is also the oracle the attached
plane's answers are tested against.
"""

from .segment import (
    SegmentError,
    SegmentLease,
    AttachedSegment,
    attach_segment,
    publish_segment,
    shm_available,
    gc_stale_segments,
    list_segments,
    unlink_all_leases,
)
from .ruleplane import attach_rule_plane, publish_rule_plane

__all__ = [
    "SegmentError",
    "SegmentLease",
    "AttachedSegment",
    "attach_segment",
    "publish_segment",
    "shm_available",
    "gc_stale_segments",
    "list_segments",
    "unlink_all_leases",
    "attach_rule_plane",
    "publish_rule_plane",
]
