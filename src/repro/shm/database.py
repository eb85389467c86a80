"""Leftover of the retired shared-memory database plane.

Mining runs in one process, so no database is ever published to shared
memory.  :func:`clear_database_leases` stays only for
``benchmarks/e2e/mine.py``, which calls it before every cold pass;
delete this module at the next change to that benchmark.
"""

from __future__ import annotations

__all__ = ["clear_database_leases"]


def clear_database_leases() -> None:
    """No-op: nothing is published, so there is no lease to unlink."""
