"""Stage attribution is bounded by the stage's context.

A stage's kernels are the kernel timers that ran in its context, so
work elsewhere in the process (another analysis on another thread, a
thread the stage did not start) never lands in it, and a follow-mode
tick run through ``asyncio.to_thread`` still sees its own kernels.
"""

from __future__ import annotations

import asyncio
import re
import threading
from collections import Counter

import pytest

from repro.cli import main
from repro.core import MiningConfig
from repro.engine import MiningEngine
from repro.obs import EngineStats, kernel_timer, stage
from repro.serve import RuleBook, trace_transactions
from repro.streaming import RuleBookRefresher, StreamingBitmapWindow
from repro.traces import get_trace

TRACES = ("pai", "philly")


def _analyze(name: str, table) -> EngineStats:
    definition = get_trace(name)
    return MiningEngine().analyze(
        definition.make_preprocessor(), table, dict(definition.keywords)
    ).stats


def _calls(stats: EngineStats) -> list:
    """Stage by stage: name, cardinalities and kernel call counts."""
    return [
        (s.name, s.n_in, s.n_out, tuple((k, calls) for k, _, calls in s.kernels))
        for s in stats.stages
    ]


@pytest.fixture(scope="module")
def runs():
    """Each trace's stats run alone, then both run at once on two threads."""
    tables = {name: get_trace(name).generate_scaled(n_jobs=2000) for name in TRACES}
    alone = {name: _analyze(name, tables[name]) for name in TRACES}
    together: dict[str, EngineStats] = {}
    barrier = threading.Barrier(len(TRACES))

    def run(name: str) -> None:
        barrier.wait(timeout=60)
        together[name] = _analyze(name, tables[name])

    threads = [threading.Thread(target=run, args=(name,)) for name in TRACES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert sorted(together) == sorted(TRACES)
    return alone, together


def test_thread_not_started_by_stage_is_not_attributed():
    def foreign() -> None:
        with kernel_timer("prune-join"):
            pass

    stats = EngineStats()
    with stage(stats, "prune", 0):
        with kernel_timer("prune-entries"):
            pass
        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert [k for k, _, _ in stats.stage("prune").kernels] == ["prune-entries"]


@pytest.mark.parametrize("name", TRACES)
def test_concurrent_analyses_attribute_like_lone_ones(runs, name):
    alone, together = runs
    assert _calls(together[name]) == _calls(alone[name])


def test_kernel_seconds_fit_in_their_stage(runs):
    alone, together = runs
    for stats in (*alone.values(), *together.values()):
        for s in stats.stages:
            assert s.seconds >= 0, s
            assert sum(seconds for _, seconds, _ in s.kernels) <= s.seconds + 1e-3, s


def test_nested_stage_folds_into_enclosing_stage():
    stats = EngineStats()
    with stage(stats, "outer", 0):
        with kernel_timer("a"):
            pass
        with stage(stats, "inner", 0):
            with kernel_timer("a"):
                pass
            with kernel_timer("b"):
                pass
    calls = {s.name: [(k, c) for k, _, c in s.kernels] for s in stats.stages}
    assert calls == {"inner": [("a", 1), ("b", 1)], "outer": [("a", 2), ("b", 1)]}


def test_kernel_timer_outside_a_stage_records_nothing():
    with kernel_timer("prune-join"):
        pass
    stats = EngineStats()
    with stage(stats, "empty", 0):
        pass
    assert stats.stage("empty").kernels == ()


def test_follow_tick_through_to_thread_attributes_its_remine():
    window = StreamingBitmapWindow(512)
    window.observe_many(trace_transactions("philly", n_jobs=512, seed=3))
    book = RuleBook(keywords={"failure": "Failed"}, config=MiningConfig())
    refresher = RuleBookRefresher(window, book, engine=MiningEngine())

    result = asyncio.run(asyncio.to_thread(refresher.tick, True))

    assert result.remined
    kernels = [k for k, _, _ in result.stats.stage("stream-remine").kernels]
    assert "fpgrowth-masks" in kernels
    assert [s.name for s in result.stats.stages] == [
        "stream-recount", "stream-drift", "stream-remine",
    ]


@pytest.mark.parametrize(
    "name, passes", [("pai", 2), ("supercloud", 1), ("philly", 1)]
)
def test_casestudy_footers_cover_every_pass(name, passes, capsys):
    """``repro casestudy --profile`` prints a footer per analysis pass,
    and the footers add up to every mining and encoding call the command
    made: PAI mines its model-labelled subset a second time."""
    outer = EngineStats()
    with stage(outer, "casestudy", 0):
        argv = ["casestudy", "--trace", name, "--n-jobs", "2000", "--profile"]
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("engine stats —") == passes
    in_footers: Counter = Counter()
    for kernel, calls in re.findall(r"kernel (\S+) +\S+s +calls=(\d+)", out):
        in_footers[kernel] += int(calls)
    collected = {k: calls for k, _, calls in outer.stage("casestudy").kernels}
    for kernel in ("fpgrowth-masks", "ingest-encode"):
        assert in_footers[kernel] == collected[kernel] == passes, kernel
