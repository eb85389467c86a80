"""Mining engine: one serial pass × instrumented pipeline.

Single mining entry point for the whole stack (see DESIGN.md §6):

* :mod:`repro.obs` — per-stage :class:`EngineStats` instrumentation;
* :mod:`repro.engine.engine` — the stateless :class:`MiningEngine`,
  which runs one mining pass per call and keeps nothing between calls.
"""

from ..obs import EngineStats, StageStats
from .engine import MiningEngine
from .stats import LatencyHistogram

__all__ = [
    "MiningEngine",
    "EngineStats",
    "StageStats",
    "LatencyHistogram",
]
