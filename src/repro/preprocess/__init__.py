"""Trace preprocessing (Sec. III-E): job tables → transaction databases.

Stages: semantic/categorical aggregation → equal-frequency binning with
zero/Std special bins → one-hot transactional encoding → skew filtering.
"""

from .aggregation import (
    MODEL_FAMILIES,
    ActivityTiers,
    apply_semantic_grouping,
    compute_activity_tiers,
)
from .binning import BinningSpec, Discretizer, equal_width_edges
from .encoding import FeatureSpec, TransactionEncoder
from .pipeline import (
    GroupingSpec,
    PreprocessResult,
    TierSpec,
    TracePreprocessor,
    clear_preprocess_cache,
    preprocess_cache_stats,
)
from .skew import drop_skewed_items, skewed_item_ids

__all__ = [
    "BinningSpec",
    "Discretizer",
    "equal_width_edges",
    "FeatureSpec",
    "TransactionEncoder",
    "MODEL_FAMILIES",
    "ActivityTiers",
    "compute_activity_tiers",
    "apply_semantic_grouping",
    "drop_skewed_items",
    "skewed_item_ids",
    "TierSpec",
    "GroupingSpec",
    "PreprocessResult",
    "TracePreprocessor",
    "preprocess_cache_stats",
    "clear_preprocess_cache",
]
