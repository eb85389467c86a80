"""Streaming mining over sliding windows of monitoring events.

One window substrate plus the live-refresh loop on top:

* :class:`StreamingBitmapWindow` — delta-maintained packed-bitmap
  granules with incremental per-item and tracked-itemset supports.
* :class:`RuleBookRefresher` / :class:`StreamFollower` — drift-gated
  remining and the ``repro serve --follow`` fleet-refresh loop.

Unlike the other packages this one imports its modules eagerly: a
follow tick runs on a worker thread, and a module first imported there
would race the event loop's own imports.
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
