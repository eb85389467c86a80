"""Mine workloads: trace table → preprocess → mine → rules → prune →
saved RuleBook, the ``repro mine-rulebook`` path, called in process.

An untraced pass is exactly what the CLI runs per trace: a fresh
:class:`MiningEngine` (``backend="auto"``), the workflow's ``run``, then
``to_rulebook`` and ``save``.  The preprocess, bitmap and shared-memory
lease caches are cleared first, because a one-shot CLI run starts cold.

The traced pass calls the same public layer functions one by one, with a
span around each, and must yield a book with the same fingerprint.

Run as a script, this module is the fresh process behind one set-up
sample: it imports the package, loads the pickled tables, runs one cold
pass and prints ``{"seconds": ..., "scaled": ..., "fingerprints": [...]}``.

Pass and set-up times are also scaled to reference host speed
(:mod:`hostspeed`); the gated metrics use the scaled times.
"""

from __future__ import annotations

import json
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy  # noqa: F401 - loaded first, so IMPORT_S times only the package

_STARTED = time.perf_counter()
from repro.analysis import InterpretableAnalysis
from repro.analysis.workflow import AnalysisResult
from repro.core import KeywordRuleSet, MiningConfig
from repro.core.bitmap import clear_bitmap_cache
from repro.core.items import as_item
from repro.core.pruning import PruningReport, prune_rule_table
from repro.core.rules import generate_rule_table
from repro.core.ruletable import RuleTable
from repro.engine import MiningEngine
from repro.preprocess.pipeline import clear_preprocess_cache
from repro.serve import RuleBook
from repro.shm.database import clear_database_leases
from repro.traces import get_trace

#: seconds this process spent importing the package — part of what a
#: one-shot ``repro mine-rulebook`` run pays before its first pass
IMPORT_S = time.perf_counter() - _STARTED

from hostspeed import at_reference, slowdown
from oracles import book_fingerprint, check_mined_book
from replay import index_layers
from spans import Tracer

#: workload → (trace, jobs) tables mined by one pass
MINE_WORKLOADS = {
    "mine-pai-300k": (("pai", 300_000),),
    "mine-3trace-20k": (("pai", 20_000), ("supercloud", 20_000), ("philly", 20_000)),
}

#: fewest timed passes, however short ``--seconds`` is
MIN_PASSES = 3

#: set-up samples: the first pass of this process plus fresh children
SETUP_SAMPLES = 3


def make_table(name: str, n_jobs: int, seed: int, scale: float = 1.0):
    """One trace table generated from *seed*, scheduler off for speed."""
    overrides = {"seed": seed, "use_scheduler": False}
    if name == "pai":
        overrides["columnar"] = True
    n = max(500, int(n_jobs * scale))
    return get_trace(name).generate_scaled(n_jobs=n, **overrides)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started
    one, and wait until it has ended.

    Publishing a shared-memory segment starts it (the engine's process
    backend does, on the 300k table).  Left alone it ends only after this
    process has exited, so it would outlive the run.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _clear_caches() -> None:
    clear_preprocess_cache()
    clear_bitmap_cache()
    clear_database_leases()


def timed_pass(tables, out_dir: Path) -> tuple[float, list[str]]:
    """One untraced pass over every table; (seconds, book fingerprints)."""
    seconds = 0.0
    fingerprints = []
    for name, table in tables:
        _clear_caches()
        definition = get_trace(name)
        path = out_dir / f"{name}.rulebook.jsonl"
        started = time.perf_counter()
        workflow = InterpretableAnalysis(
            definition.make_preprocessor(), MiningConfig(), MiningEngine()
        )
        result = workflow.run(table, dict(definition.keywords))
        result.to_rulebook(trace=name).save(path)
        seconds += time.perf_counter() - started
        fingerprints.append(book_fingerprint(path))
    return seconds, fingerprints


def traced_pass(tables, out_dir: Path, tracer: Tracer) -> tuple[float, list[str], dict]:
    """The pass again, one public layer call at a time, each in a span."""
    counts = {"itemsets": 0, "generated": 0, "kept": 0}
    plans = []
    fingerprints = []
    config = MiningConfig()
    started = time.perf_counter()
    with tracer.span("pass"):
        for name, table in tables:
            _clear_caches()
            definition = get_trace(name)
            engine = MiningEngine()
            with tracer.span("preprocess"):
                pre = definition.make_preprocessor().run(table, use_cache=False)
            db = pre.database
            with tracer.span("engine"):
                itemsets = engine.mine(db, config)
            plans.append(f"{name}={engine.backend.resolve(db).effective_plan}")
            counts["itemsets"] += len(itemsets)
            keyword_results = {}
            kept_tables = []
            for study, keyword in definition.keywords.items():
                kw = as_item(keyword)
                kw_id = db.vocabulary.get_id(kw)
                if kw_id is None:
                    keyword_results[study] = KeywordRuleSet(kw, (), (), PruningReport(), 0)
                    continue
                with tracer.span("rules"):
                    generated = generate_rule_table(
                        itemsets,
                        min_lift=config.min_lift,
                        min_confidence=config.min_confidence,
                        keyword_ids=(kw_id,),
                    )
                with tracer.span("prune"):
                    kept, report = prune_rule_table(generated, kw, config.pruning)
                counts["generated"] += len(generated)
                counts["kept"] += len(kept)
                rules = kept.to_rules()
                keyword_results[study] = KeywordRuleSet(
                    keyword=kw,
                    cause=tuple(r for r in rules if kw in r.consequent),
                    characteristic=tuple(r for r in rules if kw in r.antecedent),
                    report=report,
                    n_rules_before_pruning=len(generated),
                    table=kept,
                )
                if len(kept):
                    kept_tables.append(kept)
            rule_table = (
                RuleTable.concat(kept_tables).dedup()
                if kept_tables
                else RuleTable.empty(db.vocabulary)
            )
            result = AnalysisResult(
                config=config,
                preprocess=pre,
                itemsets=itemsets,
                keyword_results=keyword_results,
                rule_table=rule_table,
            )
            path = out_dir / f"{name}.rulebook.jsonl"
            with tracer.span("rulebook"):
                result.to_rulebook(trace=name).save(path)
    seconds = time.perf_counter() - started
    for name, _ in tables:
        fingerprints.append(book_fingerprint(out_dir / f"{name}.rulebook.jsonl"))
    counts["plan"] = " ".join(plans)
    return seconds, fingerprints, counts


def mining_layers(tables, out_dir: Path, tracer: Tracer, untraced: list[float],
                  reference: list[str]) -> tuple[dict, list[str], str]:
    """Traced pass → per-layer numbers, problems, effective engine plans.

    The traced pass must produce the books the untraced passes produced;
    its wall time minus their median is the tracing overhead.
    """
    tracer.pass_no = 1
    seconds, fingerprints, counts = traced_pass(tables, out_dir, tracer)
    problems = []
    if fingerprints != reference:
        problems.append("traced pass book fingerprint differs from the untraced passes")
    generated = counts["generated"]
    layers = {
        "preprocess.s": tracer.self_time("preprocess"),
        "engine.mine_s": tracer.self_time("engine"),
        "engine.itemsets": counts["itemsets"],
        "rules.generate_s": tracer.self_time("rules"),
        "rules.generated": generated,
        "prune.s": tracer.self_time("prune"),
        "prune.kept_ratio": counts["kept"] / generated if generated else 0.0,
        "rulebook.export_s": tracer.self_time("rulebook"),
        "trace.overhead_s": seconds - statistics.median(untraced),
    }
    return layers, problems, counts["plan"]


def _child_cold_pass(tables_path: Path, out_dir: Path, env: dict) -> dict:
    """Run one cold pass in a fresh interpreter (a set-up sample)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(tables_path), str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-pass child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_mine(workload: str, ctx) -> dict:
    """Run one mine workload; returns the raw measurements."""
    out_dir = ctx.work_dir / "books"
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = [
        (name, make_table(name, n_jobs, ctx.seed, ctx.scale))
        for name, n_jobs in MINE_WORKLOADS[workload]
    ]
    n_rows = sum(len(t) for _, t in tables)

    before = slowdown()
    cold_seconds, reference = timed_pass(tables, out_dir)
    after = slowdown()
    setup = [IMPORT_S + cold_seconds]
    scaled_setup = [at_reference(setup[0], before, after)]
    attempted = 1
    problems: list[str] = []

    passes: list[float] = []
    scaled_passes: list[float] = []
    deadline = time.perf_counter() + ctx.seconds
    # stop before a pass would end past the deadline, so a run measures
    # for about ``--seconds`` whatever the pass length
    while len(passes) < MIN_PASSES or (
        time.perf_counter() + statistics.median(passes) <= deadline
    ):
        seconds, fingerprints = timed_pass(tables, out_dir)
        before, after = after, slowdown()
        passes.append(seconds)
        scaled_passes.append(at_reference(seconds, before, after))
        attempted += 1
        if fingerprints != reference:
            problems.append(f"pass {len(passes)} book fingerprint differs from pass 1")

    layers: dict = {}
    if ctx.trace:
        layers, found, plan = mining_layers(tables, out_dir, ctx.tracer, passes, reference)
        attempted += 1
        problems.extend(found)
        ctx.notes.append(f"engine plan: {plan}")

    # peak memory of the passes, before the oracle and set-up children run
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    rng = random.Random(ctx.seed)
    replayed = []
    for name, table in tables:
        definition = get_trace(name)
        path = out_dir / f"{name}.rulebook.jsonl"
        database = definition.make_preprocessor().run(table, use_cache=False).database
        checked, found = check_mined_book(RuleBook.load(path), database, MiningConfig(), rng)
        attempted += checked
        problems.extend(f"{name}: {p}" for p in found)
        if ctx.trace:
            sample = database.txn_range(0, min(len(database), 1024))
            replayed.append((path, [[str(i) for i in t] for t in sample.iter_item_transactions()]))
    if ctx.trace:
        layers.update(index_layers(replayed, ctx.tracer))
        layers["trace.residual_s"] = ctx.tracer.self_time("pass") + ctx.tracer.self_time("replay")

    tables_path = ctx.work_dir / "tables.pkl"
    with open(tables_path, "wb") as fh:
        pickle.dump(tables, fh, protocol=pickle.HIGHEST_PROTOCOL)
    for k in range(SETUP_SAMPLES - 1):
        child_dir = ctx.work_dir / f"cold{k}"
        child_dir.mkdir()
        sample = _child_cold_pass(tables_path, child_dir, ctx.child_env)
        setup.append(sample["seconds"])
        scaled_setup.append(sample["scaled"])
        attempted += 1
        if sample["fingerprints"] != reference:
            problems.append(f"cold-pass child {k} book fingerprint differs from pass 1")

    return {
        "metrics": {
            "setup_s": (statistics.median(scaled_setup), "s", len(setup)),
            "jobs_per_s": (n_rows / statistics.median(scaled_passes), "1/s", len(passes)),
            "peak_rss_mb": (peak_kb / 1024, "MB", 1),
        },
        "extra": {
            "mine_s": (statistics.median(passes), "s", len(passes)),
            "raw.setup_s": (statistics.median(setup), "s", len(setup)),
            "raw.jobs_per_s": (n_rows / statistics.median(passes), "1/s", len(passes)),
            "host.slowdown": (
                statistics.median(p / s for p, s in zip(passes, scaled_passes)),
                "ratio", len(passes),
            ),
        },
        "layers": layers,
        "attempted": attempted,
        "problems": problems,
        "phases": [
            {"name": "cold", "seconds": cold_seconds, "n": 1},
            {"name": "passes", "seconds": sum(passes), "n": len(passes)},
            {"name": "setup-children", "seconds": sum(setup[1:]), "n": len(setup) - 1},
        ],
        "inputs": {name: len(t) for name, t in tables},
    }


def _cold_pass_main(argv: list[str]) -> int:
    tables_path, out_dir = Path(argv[0]), Path(argv[1])
    with open(tables_path, "rb") as fh:
        tables = pickle.load(fh)
    before = slowdown()
    try:
        seconds, fingerprints = timed_pass(tables, out_dir)
    finally:
        stop_resource_tracker()
    seconds += IMPORT_S
    print(json.dumps({
        "seconds": seconds,
        "scaled": at_reference(seconds, before, slowdown()),
        "fingerprints": fingerprints,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(_cold_pass_main(sys.argv[1:]))
