"""Compiled rule plane ⇄ shared-memory segment.

A hot-swap used to cost every shard the same work: parse the rulebook
JSON, canonical-sort the table, pack the bitmask matrices, encode 2·N
wire fragments.  Publishing moves all of that to the cluster parent:
one segment holds the canonical :class:`~repro.core.ruletable.RuleTable`
columns, the :class:`~repro.serve.batchmatch.BatchMaskKernel` mask
matrices, and the index's fragment table (``frags[2*rule_id +
consequent_observed]``, pre-encoded answer bytes) concatenated into one
blob with a *byte* offset table — everything a serving index needs that
is expensive to rebuild.  A shard attaches in milliseconds: array views
are zero-copy, each fragment is sliced straight out of the segment as
bytes (no decode, no re-encode), and construction goes through
:meth:`~repro.serve.index.RuleIndex.from_compiled`, which trusts the
published canonical order instead of re-sorting.

Imports from ``repro.serve`` stay inside the functions: this module is
below the serving layer in the dependency order (serve and engine both
import ``repro.shm``), so pulling serve in at import time would cycle.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

from ..core.items import Item, ItemVocabulary
from ..core.ruletable import RuleTable
from .segment import SegmentError, SegmentLease, attach_segment, publish_segment

if TYPE_CHECKING:  # pragma: no cover - type-only (serve imports are lazy)
    from ..serve.index import RuleIndex

__all__ = ["publish_rule_plane", "attach_rule_plane", "rule_plane_fingerprint"]

KIND = "r"


def rule_plane_fingerprint(table: RuleTable) -> str:
    """Content hash of a canonical rule table (columns + vocabulary)."""
    digest = hashlib.blake2b(digest_size=16)
    for column in (
        table.ant_indptr, table.ant_ids, table.cons_indptr, table.cons_ids,
        table.support, table.confidence, table.lift,
        table.leverage, table.conviction,
    ):
        digest.update(np.ascontiguousarray(column).tobytes())
    for item in table.vocabulary:
        digest.update(str(item).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def publish_rule_plane(
    index: "RuleIndex",
    *,
    generation: int = 0,
    version_tag: str | None = None,
) -> SegmentLease:
    """Publish one compiled index as a rule-plane segment.

    Every compiled artifact goes into the segment: 9 table columns, 2
    mask matrices, the fragment blob with its byte-offset table, and the
    vocabulary.
    """
    table = index.table
    kernel = index.kernel
    n = len(table)
    frags = index._frags.tolist()
    offsets = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum([len(frag) for frag in frags], out=offsets[1:])
    wire_blob = b"".join(frags)
    vocab_blob = json.dumps(
        [[item.feature, item.value] for item in table.vocabulary]
    ).encode()
    fingerprint = rule_plane_fingerprint(table)
    return publish_segment(
        KIND,
        fingerprint,
        arrays={
            "ant_indptr": table.ant_indptr,
            "ant_ids": table.ant_ids,
            "cons_indptr": table.cons_indptr,
            "cons_ids": table.cons_ids,
            "support": table.support,
            "confidence": table.confidence,
            "lift": table.lift,
            "leverage": table.leverage,
            "conviction": table.conviction,
            "ant_masks": kernel.ant_masks,
            "cons_masks": kernel.cons_masks,
            "wire_offsets": offsets,
        },
        blobs={"vocabulary": vocab_blob, "wire": wire_blob},
        meta={"n_rules": n, "version_tag": version_tag},
        generation=generation,
    )


def attach_rule_plane(name: str) -> tuple["RuleIndex", dict]:
    """Attach a published rule plane; returns ``(index, segment meta)``.

    The returned index's table columns and kernel masks are read-only
    zero-copy views of the segment; the segment handle rides along on
    ``index.shm_segment`` so the mapping lives as long as the index.
    """
    from ..serve.batchmatch import BatchMaskKernel
    from ..serve.index import RuleIndex

    seg = attach_segment(name)
    if seg.kind != KIND:
        seg.close()
        raise SegmentError(
            f"segment {name} holds kind {seg.kind!r}, expected a rule plane"
        )
    try:
        vocabulary = ItemVocabulary(
            Item(feature, value)
            for feature, value in json.loads(seg.blob_bytes("vocabulary"))
        )
        arrays = seg.arrays
        table = RuleTable(
            vocabulary,
            arrays["ant_indptr"], arrays["ant_ids"],
            arrays["cons_indptr"], arrays["cons_ids"],
            arrays["support"], arrays["confidence"], arrays["lift"],
            arrays["leverage"], arrays["conviction"],
        )
        kernel = BatchMaskKernel.from_masks(
            arrays["ant_masks"],
            arrays["cons_masks"],
            np.diff(table.ant_indptr).astype(np.int32),
            np.diff(table.cons_indptr).astype(np.int32),
        )
        # one copy out of the mapping; slicing bytes is cheaper than
        # copying each fragment out of it
        wire = bytes(seg.blobs["wire"])
        bounds = arrays["wire_offsets"].tolist()
        if len(bounds) != 2 * len(table) + 1 or bounds[-1] != len(wire):
            raise ValueError("fragment offsets do not cover the wire blob")
        frags = [wire[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        index = RuleIndex.from_compiled(table, kernel=kernel, frags=frags)
        index.shm_segment = seg
        return index, dict(seg.meta)
    except (KeyError, ValueError) as exc:
        seg.close()
        raise SegmentError(f"segment {name}: bad rule plane payload: {exc}") from exc
