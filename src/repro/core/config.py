"""The analysis workflow's parameters, importable without any miner.

:class:`MiningConfig` rides in every RuleBook header, so a serving
process needs it to load a book; :mod:`repro.core.mining` (which pulls
in the miner and the pruning kernels) re-exports it for the mining
side.  :class:`PruningConfig` lives here because ``MiningConfig``
validates through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MiningConfig", "PruningConfig"]


@dataclass(frozen=True, slots=True)
class PruningConfig:
    """Tunables of the pruning pass (paper defaults)."""

    c_lift: float = 1.5
    c_supp: float = 1.5

    def __post_init__(self) -> None:
        if self.c_lift < 1.0:
            raise ValueError("C_lift must be >= 1")
        if self.c_supp < 1.0:
            raise ValueError("C_supp must be >= 1")


@dataclass(frozen=True, slots=True)
class MiningConfig:
    """All parameters of the analysis workflow (paper defaults)."""

    min_support: float = 0.05
    max_len: int | None = 5
    min_lift: float = 1.5
    min_confidence: float = 0.0
    c_lift: float = 1.5
    c_supp: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_support <= 1.0:
            raise ValueError("min_support must be in [0, 1]")
        if self.min_lift < 0:
            raise ValueError(f"min_lift must be >= 0, got {self.min_lift}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.max_len is not None and self.max_len < 1:
            raise ValueError(f"max_len must be >= 1 (or None), got {self.max_len}")
        if self.c_lift <= 0:
            raise ValueError(f"c_lift must be > 0, got {self.c_lift}")
        if self.c_supp <= 0:
            raise ValueError(f"c_supp must be > 0, got {self.c_supp}")
        # below 1 they fail here, with PruningConfig's error, not after mining
        PruningConfig(c_lift=self.c_lift, c_supp=self.c_supp)

    def with_(self, **overrides) -> "MiningConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def pruning(self) -> PruningConfig:
        return PruningConfig(c_lift=self.c_lift, c_supp=self.c_supp)
