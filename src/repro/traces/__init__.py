"""Trace substrate: synthetic generators for PAI, SuperCloud and Philly.

The public GPU traces the paper analyses are not shipped with this
repository (no network access), so each trace is replaced by a calibrated
synthetic generator running through the cluster-simulator substrate; see
DESIGN.md §2 for the substitution argument.

Nothing is imported until a name is first used (PEP 562), so the
CLI reads :data:`~repro.traces.registry.TRACE_NAMES` without loading a
generator.
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".registry": (
        "TraceDefinition", "TRACES", "TRACE_NAMES", "get_trace", "list_traces",
    ),
    ".loader": ("save_trace", "load_trace"),
    ".stats": ("TraceStats", "characterize", "gini"),
    ".synthetic.pai": ("PAIConfig", "generate_pai", "pai_preprocessor", "PAI_KEYWORDS"),
    ".synthetic.supercloud": (
        "SuperCloudConfig", "generate_supercloud", "supercloud_preprocessor",
        "SUPERCLOUD_KEYWORDS",
    ),
    ".synthetic.philly": (
        "PhillyConfig", "generate_philly", "philly_preprocessor", "PHILLY_KEYWORDS",
    ),
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
