"""Registry of the three studied traces.

Bundles each trace's generator, its configured Sec. III-E preprocessor and
its case-study keywords behind one name, so examples and benchmarks can be
written trace-generically — the portability property the paper claims for
the workflow.

:data:`TRACE_NAMES` is a static table, so the CLI can offer ``--trace``
choices without importing a generator; :data:`TRACES` and
:func:`get_trace` import the generators on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataframe import ColumnTable
    from ..preprocess import TracePreprocessor

__all__ = ["TRACE_NAMES", "TraceDefinition", "TRACES", "get_trace", "list_traces"]

#: the studied traces' names, sorted; reading them loads no generator
TRACE_NAMES = ("pai", "philly", "supercloud")


@dataclass(frozen=True, slots=True)
class TraceDefinition:
    """Everything needed to analyse one trace end to end."""

    name: str
    display_name: str
    operator: str
    generate: Callable[..., ColumnTable]
    config_cls: type
    make_preprocessor: Callable[[], TracePreprocessor]
    keywords: dict[str, str]
    #: reference scale of the real trace (Table I), for the overview bench
    paper_jobs: int
    paper_users: int
    paper_gpus: int
    paper_duration: str

    def generate_scaled(self, n_jobs: int | None = None, **overrides: Any) -> ColumnTable:
        """Generate the trace at a chosen scale (paper-default otherwise)."""
        if n_jobs is not None:
            overrides["n_jobs"] = n_jobs
        config = self.config_cls(**overrides)
        return self.generate(config)


@functools.cache
def _definitions() -> dict[str, TraceDefinition]:
    """Every trace's definition; the generators load on first use."""
    from .synthetic.pai import PAI_KEYWORDS, PAIConfig, generate_pai, pai_preprocessor
    from .synthetic.philly import (
        PHILLY_KEYWORDS,
        PhillyConfig,
        generate_philly,
        philly_preprocessor,
    )
    from .synthetic.supercloud import (
        SUPERCLOUD_KEYWORDS,
        SuperCloudConfig,
        generate_supercloud,
        supercloud_preprocessor,
    )

    return {
        "pai": TraceDefinition(
            name="pai",
            display_name="PAI",
            operator="Alibaba",
            generate=generate_pai,
            config_cls=PAIConfig,
            make_preprocessor=pai_preprocessor,
            keywords=PAI_KEYWORDS,
            paper_jobs=850_000,
            paper_users=1242,
            paper_gpus=6000,
            paper_duration="2 months",
        ),
        "supercloud": TraceDefinition(
            name="supercloud",
            display_name="SuperCloud",
            operator="MIT",
            generate=generate_supercloud,
            config_cls=SuperCloudConfig,
            make_preprocessor=supercloud_preprocessor,
            keywords=SUPERCLOUD_KEYWORDS,
            paper_jobs=98_000,
            paper_users=310,
            paper_gpus=450,
            paper_duration="8 months",
        ),
        "philly": TraceDefinition(
            name="philly",
            display_name="Philly",
            operator="Microsoft",
            generate=generate_philly,
            config_cls=PhillyConfig,
            make_preprocessor=philly_preprocessor,
            keywords=PHILLY_KEYWORDS,
            paper_jobs=100_000,
            paper_users=319,
            paper_gpus=2500,
            paper_duration="75 days",
        ),
    }


def __getattr__(name: str):
    if name == "TRACES":  # name → TraceDefinition, built on first use
        return _definitions()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_trace(name: str) -> TraceDefinition:
    """Look up a trace by name ('pai', 'supercloud', 'philly')."""
    try:
        return _definitions()[name.lower()]
    except KeyError:
        raise KeyError(f"unknown trace {name!r}; have {list(TRACE_NAMES)}") from None


def list_traces() -> list[str]:
    return list(TRACE_NAMES)
