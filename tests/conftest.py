"""Shared fixtures: small generated traces, cached per test session.

Trace generation is the expensive part of most integration tests, so each
trace is generated once at a modest scale and shared.  Tests that need a
different scale or seed generate their own.
"""

from __future__ import annotations

import os

import pytest

from repro.core import MiningConfig, TransactionDatabase
from repro.traces import (
    PAIConfig,
    PhillyConfig,
    SuperCloudConfig,
    generate_pai,
    generate_philly,
    generate_supercloud,
    pai_preprocessor,
    philly_preprocessor,
    supercloud_preprocessor,
)

#: job counts chosen so every planted association clears the 5 % support
#: floor with margin, while the full suite stays fast
SMALL_N = 4000


@pytest.fixture(scope="session")
def pai_table():
    return generate_pai(PAIConfig(n_jobs=SMALL_N))


@pytest.fixture(scope="session")
def supercloud_table():
    return generate_supercloud(SuperCloudConfig(n_jobs=SMALL_N))


@pytest.fixture(scope="session")
def philly_table():
    return generate_philly(PhillyConfig(n_jobs=SMALL_N))


@pytest.fixture(scope="session")
def pai_db(pai_table):
    return pai_preprocessor().run(pai_table).database


@pytest.fixture(scope="session")
def supercloud_db(supercloud_table):
    return supercloud_preprocessor().run(supercloud_table).database


@pytest.fixture(scope="session")
def philly_db(philly_table):
    return philly_preprocessor().run(philly_table).database


@pytest.fixture(scope="session")
def default_config():
    return MiningConfig()


@pytest.fixture(scope="session", autouse=True)
def _reap_preexisting_segments():
    """Start from a clean slate: segments orphaned by earlier runs are
    not this session's leaks."""
    from repro.shm.segment import gc_stale_segments

    gc_stale_segments()


@pytest.fixture(autouse=True)
def shm_leak_check():
    """Fail any test that leaks a shared-memory segment.

    A segment whose owner pid is dead is a leak outright (serve/chaos
    tests kill workers; their segments must be reaped).  Any segment
    still owned by *this* process means whoever published it (a cluster,
    a follower or a test) forgot to unlink it on the way out.
    """
    yield
    from repro.shm.segment import _pid_alive, list_segments

    leaked = []
    for name in list_segments():
        parts = name.split(".")
        if len(parts) < 5:
            continue
        try:
            owner = int(parts[3])
        except ValueError:
            continue
        if not _pid_alive(owner):
            leaked.append(f"{name} (dead owner)")
        elif owner == os.getpid():
            leaked.append(f"{name} (not unlinked)")
    assert not leaked, f"leaked shm segments: {leaked}"


@pytest.fixture()
def toy_db() -> TransactionDatabase:
    """The classic textbook market-basket example."""
    return TransactionDatabase.from_itemsets(
        [
            ["bread", "milk"],
            ["bread", "diapers", "beer", "eggs"],
            ["milk", "diapers", "beer", "cola"],
            ["bread", "milk", "diapers", "beer"],
            ["bread", "milk", "diapers", "cola"],
        ]
    )
