"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4).  Traces are generated once per session at a reproducible
scale; each bench times its compute step with pytest-benchmark and writes
the regenerated artefact under ``benchmarks/output/`` so the numbers can
be inspected and diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import MiningConfig
from repro.engine import MiningEngine
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

#: benchmark scale — large enough that every paper association clears the
#: 5 % support floor comfortably, small enough to run in seconds
BENCH_N = {"pai": 12_000, "supercloud": 10_000, "philly": 10_000}

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def pai_table():
    return generate_pai(PAIConfig(n_jobs=BENCH_N["pai"]))


@pytest.fixture(scope="session")
def supercloud_table():
    return generate_supercloud(SuperCloudConfig(n_jobs=BENCH_N["supercloud"]))


@pytest.fixture(scope="session")
def philly_table():
    return generate_philly(PhillyConfig(n_jobs=BENCH_N["philly"]))


@pytest.fixture(scope="session")
def all_tables(pai_table, supercloud_table, philly_table):
    return {"PAI": pai_table, "SuperCloud": supercloud_table, "Philly": philly_table}


@pytest.fixture(scope="session")
def pai_result(pai_table):
    return pai_preprocessor().run(pai_table)


@pytest.fixture(scope="session")
def supercloud_result(supercloud_table):
    return supercloud_preprocessor().run(supercloud_table)


@pytest.fixture(scope="session")
def philly_result(philly_table):
    return philly_preprocessor().run(philly_table)


@pytest.fixture(scope="session")
def all_results(pai_result, supercloud_result, philly_result):
    return {
        "PAI": pai_result,
        "SuperCloud": supercloud_result,
        "Philly": philly_result,
    }


@pytest.fixture(scope="session")
def paper_config():
    return MiningConfig()


@pytest.fixture(scope="session")
def engine():
    """Session-wide mining engine (stateless: every ``mine`` is a pass)."""
    return MiningEngine()


@pytest.fixture(scope="session")
def all_itemsets(all_results, paper_config, engine):
    return {
        name: engine.mine(result.database, paper_config)
        for name, result in all_results.items()
    }
