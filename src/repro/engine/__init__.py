"""Unified mining engine: one serial pass × cache × instrumented pipeline.

Single mining entry point for the whole stack (see DESIGN.md §6):

* :mod:`repro.engine.cache` — content-addressed, LRU-bounded
  :class:`ItemsetCache` keyed by database fingerprint × mining config;
* :mod:`repro.obs` — per-stage :class:`EngineStats` instrumentation;
* :mod:`repro.engine.engine` — :class:`MiningEngine` tying it together,
  plus the process-wide :func:`default_engine`.
"""

from ..obs import EngineStats, StageStats
from .cache import CacheStats, ItemsetCache, LRUCache
from .engine import MiningEngine, default_engine, set_default_engine
from .stats import LatencyHistogram

__all__ = [
    "MiningEngine",
    "default_engine",
    "set_default_engine",
    "ItemsetCache",
    "LRUCache",
    "CacheStats",
    "EngineStats",
    "StageStats",
    "LatencyHistogram",
]
