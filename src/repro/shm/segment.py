"""Shared-memory segments: format, naming, lifecycle, GC.

One segment is one immutable artifact.  The byte layout is::

    [0:4)    magic  b"RSHM"
    [4:8)    schema version, uint32 little-endian
    [8:16)   manifest length in bytes, uint64 little-endian
    [16:16+L) manifest — UTF-8 JSON:
              {"schema": 1, "kind": ..., "fingerprint": ...,
               "generation": ..., "owner_pid": ...,
               "arrays": [{"name", "dtype", "shape", "offset", "nbytes"}],
               "blobs":  [{"name", "offset", "nbytes"}],
               "meta": {...}}
    payload  starts at the first 64-byte boundary past the manifest;
             every array/blob offset in the manifest is payload-relative
             and itself 64-byte aligned, so attached numpy views are
             aligned no matter what precedes them.

Naming is content-addressed and generation-tagged::

    rsm.<kind>.<fingerprint[:10]>.<owner_pid>.g<generation>

Short on purpose — macOS caps POSIX shm names at 31 characters — and
self-describing enough that the stale-segment GC never has to map a
segment: the owner pid is in the name, so startup GC just unlinks any
``rsm.*`` entry in ``/dev/shm`` whose owner is no longer alive.

Lifecycle:

* a :class:`SegmentLease` is the *owner* handle: it registers in a
  module-level table whose atexit hook unlinks everything the process
  still owns, so a drained service leaves nothing behind; explicit
  :meth:`SegmentLease.unlink` is used by the cluster parent to retire
  the previous generation right after a successful hot-swap (POSIX
  keeps the memory alive for every process still attached — unlink
  only removes the name);
* an :class:`AttachedSegment` is a *reader* handle: it is never
  registered with ``multiprocessing.resource_tracker`` (see
  :func:`_open_untracked`), because a tracked attachment would unlink the
  owner's segment when the attaching process exits — the classic
  resource-tracker foot-gun for shared segments;
* :func:`gc_stale_segments` sweeps orphans from crashed owners (SIGKILL
  skips atexit) and runs at cluster startup.
"""

from __future__ import annotations

import atexit
import json
import os
import struct
import sys
import weakref
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "SegmentError",
    "SegmentLease",
    "AttachedSegment",
    "publish_segment",
    "attach_segment",
    "shm_available",
    "gc_stale_segments",
    "list_segments",
    "unlink_all_leases",
]

SCHEMA_VERSION = 1

_MAGIC = b"RSHM"
_HEADER = struct.Struct("<4sIQ")  # magic, schema, manifest length
_ALIGN = 64

#: segment name prefix; everything the GC considers ours starts with it
NAME_PREFIX = "rsm."

#: where POSIX shared memory is enumerable (Linux); GC is a no-op elsewhere
_SHM_DIR = "/dev/shm"


class SegmentError(RuntimeError):
    """A segment could not be published, attached, or understood."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _open_untracked(name: str, *, create: bool = False, size: int = 0):
    """Open a SharedMemory handle that the resource tracker will not reap.

    Nothing may be tracked: the tracker "cleans up" registered
    segments when the *last* process sharing it exits, which would
    unlink a segment the owner is still serving from — and its cache is
    keyed by bare name, so even an attach in another process would
    clobber the owner's registration.  Registering and then
    unregistering is not enough either: forked workers share one
    tracker, and two attaching the same segment interleave as
    register, register, unregister, unregister — the second unregister
    finds nothing and the tracker prints a ``KeyError`` traceback.
    Python 3.13 grew ``track=False``; on earlier versions the POSIX
    handle is opened here the way ``SharedMemory.__init__`` opens it,
    minus the registration (and :func:`_unlink_handle` keeps ``unlink``
    from notifying the tracker).  Orphans from crashed owners are
    instead reaped by :func:`gc_stale_segments`.
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):  # pragma: no cover - version dependent
        return shared_memory.SharedMemory(
            name=name, create=create, size=size, track=False
        )
    try:
        import _posixshmem
    except ImportError:  # pragma: no cover - Windows never registers
        return shared_memory.SharedMemory(name=name, create=create, size=size)
    import mmap

    flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
    shm = shared_memory.SharedMemory.__new__(shared_memory.SharedMemory)
    shm._name = "/" + name
    shm._fd = _posixshmem.shm_open(shm._name, flags, mode=0o600)
    try:
        if create:
            os.ftruncate(shm._fd, size)
        shm._size = os.fstat(shm._fd).st_size
        shm._mmap = mmap.mmap(shm._fd, shm._size)
    except OSError:
        shm.close()
        if create:
            _posixshmem.shm_unlink(shm._name)
        raise
    shm._buf = memoryview(shm._mmap)
    return shm


def _unlink_handle(shm) -> None:
    """Unlink without notifying the resource tracker.

    This process never left the segment registered (see
    :func:`_open_untracked`), so ``SharedMemory.unlink``'s unregister
    call would make the tracker print a spurious KeyError at shutdown.
    On 3.13+ ``track=False`` already suppresses it; earlier versions go
    straight to ``shm_unlink``.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - version dependent
        shm.unlink()
        return
    try:
        import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except ImportError:  # pragma: no cover - non-POSIX platform
        shm.unlink()


def _close_handle(shm) -> None:
    """Close a SharedMemory handle, tolerating live exported views.

    numpy views pin the underlying buffer, so ``close()`` raises
    BufferError until the last view dies — which at process exit may be
    never (module teardown order is arbitrary), leaving ``__del__`` to
    print an ignored exception.  On BufferError the handle's references
    are dropped instead: the fd closes here, the mapping is reclaimed by
    process exit, and ``__del__`` becomes a no-op.
    """
    try:
        shm.close()
    except OSError:  # pragma: no cover - already closed
        pass
    except BufferError:
        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1


#: leases owned by this process, by segment name; the atexit hook and
#: :func:`unlink_all_leases` (SIGTERM drain paths) unlink every survivor
_LEASES: dict[str, "SegmentLease"] = {}

#: live attachments, weakly held — closed by the atexit hook so handles
#: with still-exported numpy views never reach ``__del__`` noisily
_ATTACHMENTS: "weakref.WeakSet[AttachedSegment]" = weakref.WeakSet()


def _atexit_unlink() -> None:  # pragma: no cover - exercised via subprocesses
    for attached in list(_ATTACHMENTS):
        attached.close()
    unlink_all_leases()


atexit.register(_atexit_unlink)


def unlink_all_leases() -> int:
    """Unlink every segment this process still owns; returns the count."""
    n = 0
    for lease in list(_LEASES.values()):
        lease.unlink()
        n += 1
    return n


class SegmentLease:
    """Owner handle of one published segment."""

    __slots__ = ("name", "kind", "fingerprint", "generation", "nbytes", "_shm")

    def __init__(self, shm, name: str, kind: str, fingerprint: str, generation: int):
        self._shm = shm
        self.name = name
        self.kind = kind
        self.fingerprint = fingerprint
        self.generation = generation
        self.nbytes = shm.size

    def unlink(self) -> None:
        """Remove the name and drop the owner mapping (idempotent).

        Processes already attached keep their zero-copy views — POSIX
        frees the memory only when the last mapping closes.
        """
        shm, self._shm = self._shm, None
        _LEASES.pop(self.name, None)
        if shm is None:
            return
        try:
            _unlink_handle(shm)
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass
        _close_handle(shm)

    def __repr__(self) -> str:
        return (
            f"SegmentLease(name={self.name!r}, kind={self.kind!r}, "
            f"generation={self.generation}, nbytes={self.nbytes})"
        )


class AttachedSegment:
    """Reader handle: manifest plus read-only zero-copy views.

    Keep the instance alive as long as any of its ``arrays`` views is in
    use — the views borrow the segment mapping.  :meth:`close` drops the
    mapping (it never unlinks; only the owner does that) and is safe to
    skip: a worker that holds its attachment for its whole lifetime lets
    process exit clean up.
    """

    __slots__ = (
        "name",
        "kind",
        "fingerprint",
        "generation",
        "owner_pid",
        "meta",
        "arrays",
        "blobs",
        "_shm",
        "__weakref__",
    )

    def __init__(self, shm, name: str, manifest: dict, payload_offset: int):
        self._shm = shm
        self.name = name
        self.kind = manifest["kind"]
        self.fingerprint = manifest["fingerprint"]
        self.generation = int(manifest.get("generation", 0))
        self.owner_pid = int(manifest.get("owner_pid", 0))
        self.meta = dict(manifest.get("meta") or {})
        self.arrays: dict[str, np.ndarray] = {}
        self.blobs: dict[str, memoryview] = {}
        buf = shm.buf
        for spec in manifest.get("arrays", ()):
            start = payload_offset + int(spec["offset"])
            view = np.ndarray(
                tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                buffer=buf,
                offset=start,
            )
            view.flags.writeable = False
            self.arrays[spec["name"]] = view
        for spec in manifest.get("blobs", ()):
            start = payload_offset + int(spec["offset"])
            self.blobs[spec["name"]] = buf[start : start + int(spec["nbytes"])]
        _ATTACHMENTS.add(self)

    def blob_bytes(self, name: str) -> bytes:
        """One blob, copied out (the only copy the attach path makes)."""
        return bytes(self.blobs[name])

    def close(self) -> None:
        """Drop the mapping; no-op if views are still exported."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self.arrays = {}
        self.blobs = {}
        _ATTACHMENTS.discard(self)
        _close_handle(shm)

    def __del__(self) -> None:
        # a hot-swap drops the previous index (and this attachment) while
        # its numpy views may still be reachable; going through close()
        # neutralises the handle so SharedMemory.__del__ never raises a
        # noisy BufferError over the still-exported buffer
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __repr__(self) -> str:
        return (
            f"AttachedSegment(name={self.name!r}, kind={self.kind!r}, "
            f"arrays={sorted(self.arrays)})"
        )


_CAPABILITY: bool | None = None


def shm_available() -> bool:
    """Does this platform give the process POSIX shared memory?

    The capability probe — create, map, unlink one page — runs once.
    """
    global _CAPABILITY
    if _CAPABILITY is None:
        try:
            probe = _open_untracked(
                f"{NAME_PREFIX}probe.{os.getpid()}", create=True, size=_ALIGN
            )
            _unlink_handle(probe)
            probe.close()
            _CAPABILITY = True
        except Exception:  # pragma: no cover - platform without POSIX shm
            _CAPABILITY = False
    return _CAPABILITY


def segment_name(kind: str, fingerprint: str, generation: int) -> str:
    """Content-addressed, generation-tagged, owner-stamped segment name."""
    return f"{NAME_PREFIX}{kind}.{fingerprint[:10]}.{os.getpid()}.g{generation}"


def publish_segment(
    kind: str,
    fingerprint: str,
    arrays: Mapping[str, np.ndarray],
    blobs: Mapping[str, bytes] | None = None,
    meta: Mapping[str, object] | None = None,
    *,
    generation: int = 0,
) -> SegmentLease:
    """Create a segment holding *arrays* and *blobs*; returns the lease.

    The payload is written once (one memcpy per array); the name is
    derived from *fingerprint* so equal content published by the same
    process in the same generation reuses the existing lease.
    """
    name = segment_name(kind, fingerprint, generation)
    existing = _LEASES.get(name)
    if existing is not None:
        return existing
    blobs = dict(blobs or {})
    array_specs = []
    blob_specs = []
    offset = 0
    packed: list[tuple[int, np.ndarray]] = []
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        array_specs.append(
            {
                "name": key,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
        )
        packed.append((offset, array))
        offset = _align(offset + int(array.nbytes))
    blob_payload: list[tuple[int, bytes]] = []
    for key, blob in blobs.items():
        blob_specs.append({"name": key, "offset": offset, "nbytes": len(blob)})
        blob_payload.append((offset, blob))
        offset = _align(offset + len(blob))
    manifest = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "generation": int(generation),
            "owner_pid": os.getpid(),
            "arrays": array_specs,
            "blobs": blob_specs,
            "meta": dict(meta or {}),
        },
        sort_keys=True,
    ).encode()
    payload_offset = _align(_HEADER.size + len(manifest))
    total = max(payload_offset + offset, _ALIGN)
    try:
        shm = _open_untracked(name, create=True, size=total)
    except FileExistsError:
        # same content, same generation, same pid — but no live lease
        # (e.g. a previous interpreter with this pid crashed): replace it
        try:
            stale = _open_untracked(name)
            _unlink_handle(stale)
            stale.close()
            shm = _open_untracked(name, create=True, size=total)
        except OSError as exc:  # pragma: no cover - racing publisher
            raise SegmentError(f"cannot publish segment {name}: {exc}") from exc
    except OSError as exc:
        raise SegmentError(f"cannot publish segment {name}: {exc}") from exc
    buf = shm.buf
    buf[: _HEADER.size] = _HEADER.pack(_MAGIC, SCHEMA_VERSION, len(manifest))
    buf[_HEADER.size : _HEADER.size + len(manifest)] = manifest
    for off, array in packed:
        start = payload_offset + off
        dst = np.ndarray(
            array.shape, dtype=array.dtype, buffer=buf, offset=start
        )
        dst[...] = array
    for off, blob in blob_payload:
        start = payload_offset + off
        buf[start : start + len(blob)] = blob
    lease = SegmentLease(shm, name, kind, fingerprint, int(generation))
    _LEASES[name] = lease
    return lease


def attach_segment(name: str) -> AttachedSegment:
    """Map an existing segment and expose read-only zero-copy views."""
    try:
        shm = _open_untracked(name)
    except (FileNotFoundError, OSError) as exc:
        raise SegmentError(f"segment {name} is not attachable: {exc}") from exc
    try:
        header = bytes(shm.buf[: _HEADER.size])
        magic, schema, manifest_len = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise SegmentError(f"segment {name}: bad magic {magic!r}")
        if schema != SCHEMA_VERSION:
            raise SegmentError(
                f"segment {name}: schema {schema} unsupported "
                f"(this build reads {SCHEMA_VERSION})"
            )
        raw = bytes(shm.buf[_HEADER.size : _HEADER.size + manifest_len])
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise SegmentError(f"segment {name}: bad manifest: {exc}") from exc
        payload_offset = _align(_HEADER.size + manifest_len)
        return AttachedSegment(shm, name, manifest, payload_offset)
    except SegmentError:
        shm.close()
        raise


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def list_segments(kinds: Iterable[str] | None = None) -> list[str]:
    """Names of every ``rsm.*`` segment currently published on this host."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm
        return []
    wanted = None if kinds is None else set(kinds)
    out = []
    for entry in entries:
        if not entry.startswith(NAME_PREFIX):
            continue
        parts = entry.split(".")
        if wanted is not None and (len(parts) < 2 or parts[1] not in wanted):
            continue
        out.append(entry)
    return sorted(out)


def gc_stale_segments() -> list[str]:
    """Unlink segments whose owner process is gone; returns what was removed.

    The owner pid lives in the segment *name*, so the sweep never maps a
    segment.  Runs at cluster/service startup to mop up after crashed
    or SIGKILLed owners (clean exits unlink via the atexit hook).
    """
    removed: list[str] = []
    for entry in list_segments():
        parts = entry.split(".")
        # rsm.<kind>.<hash>.<pid>.g<gen>
        if len(parts) < 5:
            continue
        try:
            pid = int(parts[3])
        except ValueError:
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            removed.append(entry)
        except OSError:  # pragma: no cover - raced another GC
            pass
    return removed
