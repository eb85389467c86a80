"""Streaming mining over sliding windows of monitoring events.

One window substrate plus the live-refresh loop on top:

* :class:`StreamingBitmapWindow` — delta-maintained packed-bitmap
  granules with incremental per-item and tracked-itemset supports.
* :class:`RuleBookRefresher` / :class:`StreamFollower` — drift-gated
  remining and the ``repro serve --follow`` fleet-refresh loop.
"""

from .bitwindow import GRANULE, StreamingBitmapWindow
from .follow import FollowStats, StreamFollower
from .refresh import RuleBookRefresher, TickResult, TrackedRules

__all__ = [
    "GRANULE",
    "StreamingBitmapWindow",
    "TrackedRules",
    "TickResult",
    "RuleBookRefresher",
    "FollowStats",
    "StreamFollower",
]
