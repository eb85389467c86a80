"""Mining engine: one serial pass × instrumented pipeline.

Single mining entry point for the whole stack (see DESIGN.md §6):

* :mod:`repro.obs` — per-stage :class:`EngineStats` instrumentation;
* :mod:`repro.engine.engine` — the stateless :class:`MiningEngine`,
  which runs one mining pass per call and keeps nothing between calls.

Nothing is imported until a name is first used (PEP 562).
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".engine": ("MiningEngine",),
    "..obs": ("EngineStats", "StageStats"),
    ".stats": ("LatencyHistogram",),
}
#: public name → its module
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = importlib.import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value
