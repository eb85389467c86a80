"""Content-addressed result caches.

Mining the same database at the same ``(min_support, max_len, algorithm)``
always yields the same :class:`~repro.core.itemsets.FrequentItemsets`, so
the engine memoises results under a key derived from the database
*content* (:meth:`TransactionDatabase.fingerprint`) and the config's
itemset-relevant fields.  Keying by content rather than identity means a
re-generated or re-loaded trace with identical transactions still hits —
which is exactly what multi-keyword case studies, support sweeps and
repeated benchmark runs do.

:class:`LRUCache` is the generic mechanism (LRU-bounded, thread-safe,
hit/miss/eviction counters); :class:`ItemsetCache` specialises it for the
mining stage, and the preprocess result cache in
:mod:`repro.preprocess.pipeline` reuses the same machinery keyed by table
fingerprint × pipeline spec.  Counters feed the engine's
:class:`~repro.obs.EngineStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Any

__all__ = ["CacheStats", "LRUCache", "ItemsetCache"]

#: default number of cached mining results; itemset dicts are small
#: relative to the databases they summarise, so a few dozen is cheap
DEFAULT_MAX_ENTRIES = 64


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counter snapshot of one :class:`ItemsetCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Thread-safe, LRU-bounded mapping of hashable key → result."""

    __slots__ = ("max_entries", "_entries", "_lock", "_hits", "_misses", "_evictions")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> Any | None:
        """Look up *key*, counting a hit or miss and touching LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: tuple, value: Any) -> None:
        """Insert *value*, evicting the least-recently-used beyond bounds."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_entries=self.max_entries,
            )


class ItemsetCache(LRUCache):
    """LRU mapping ``(db fingerprint, config key) → FrequentItemsets``.

    The mining-stage specialisation of :class:`LRUCache`; itemset dicts
    are small relative to the databases they summarise, so a few dozen
    entries is cheap.
    """

    __slots__ = ()
