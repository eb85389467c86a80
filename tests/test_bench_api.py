"""The mine workloads of ``benchmarks/e2e`` still run against the package.

The e2e benchmark imports public names from several layers (the
workflow, the rule and pruning kernels, the engine, the cache clearers)
and its traced pass composes them by hand.  Tier-1 collects ``tests/``
only, so this runs the benchmark's own ``timed_pass`` and
``traced_pass`` on 500-job tables of all three traces, in a fresh
interpreter with the benchmark's import path: a removed or renamed name
fails here, and so does a traced book that differs from the workflow's
or a book whose sampled rules do not recount.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, random, sys, tempfile
from pathlib import Path

from mine import make_table, timed_pass, traced_pass
from oracles import check_mined_book
from spans import Tracer

from repro.core import MiningConfig
from repro.serve import RuleBook
from repro.traces import get_trace

tables = [(name, make_table(name, 500, 0)) for name in ("pai", "supercloud", "philly")]
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    _, untraced = timed_pass(tables, out)
    _, traced, counts = traced_pass(tables, out, Tracer("bench-api"))
    problems, checked = [], 0
    rng = random.Random(0)
    for name, table in tables:
        database = get_trace(name).make_preprocessor().run(table, use_cache=False).database
        book = RuleBook.load(out / f"{name}.rulebook.jsonl")
        n, found = check_mined_book(book, database, MiningConfig(), rng)
        checked += n
        problems += [f"{name}: {p}" for p in found]
print(json.dumps({"untraced": untraced, "traced": traced, "counts": counts,
                  "checked": checked, "problems": problems}))
"""


def test_timed_and_traced_passes_agree_and_recount():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(out["untraced"]) == 3
    assert out["traced"] == out["untraced"]
    assert out["counts"]["kept"] > 0
    assert out["counts"]["generated"] >= out["counts"]["kept"]
    assert out["checked"] > 0
    assert out["problems"] == []
