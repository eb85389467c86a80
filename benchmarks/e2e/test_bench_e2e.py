"""Self-test of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_bench_e2e.py -q

It runs all four workloads, traced, at a twentieth of their input size
for two measured seconds each, and checks that every metric named in
``BENCHMARK.json`` is printed with its unit.  It also shows that each
answer oracle rejects a planted wrong answer.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from oracles import FiredOracle, check_mined_book  # noqa: E402
from repro.analysis import InterpretableAnalysis  # noqa: E402
from repro.core import MiningConfig  # noqa: E402
from repro.engine import MiningEngine  # noqa: E402
from repro.serve import RuleBook, RuleIndex  # noqa: E402
from repro.traces import get_trace  # noqa: E402


def _mined_book(tmp_path: Path):
    definition = get_trace("philly")
    table = definition.generate_scaled(n_jobs=2000, seed=5, use_scheduler=False)
    result = InterpretableAnalysis(
        definition.make_preprocessor(), MiningConfig(), MiningEngine()
    ).run(table, dict(definition.keywords))
    path = tmp_path / "book.jsonl"
    result.to_rulebook(trace="philly").save(path)
    return path, result.preprocess.database


def test_all_workloads_print_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "bench_e2e.py"), "--seed", "1",
            "--scale", "0.05", "--seconds", "2", "--trace", "1",
            "--json-out", str(tmp_path / "result.json"),
            "--trace-out", str(tmp_path / "spans.jsonl"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert elapsed < 90, f"self-test took {elapsed:.0f}s"
    results = json.loads((tmp_path / "result.json").read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        pattern = rf"\s{re.escape(entry['name'])}\s+-?[\d.e+-]+ {re.escape(entry['unit'])}\s"
        printed = re.findall(pattern, proc.stdout)
        assert len(printed) >= len(results), f"{entry['name']} [{entry['unit']}] not printed"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for name in results:
        spans = (tmp_path / f"spans-{name}.jsonl").read_text().splitlines()
        assert spans and {json.loads(s)["workload"] for s in spans} == {name}


def test_fired_oracle_rejects_a_dropped_rule(tmp_path):
    path, database = _mined_book(tmp_path)
    book = RuleBook.load(path)
    index = RuleIndex.from_rulebook(book)
    oracle = FiredOracle(book.table)
    transaction = max(
        ([str(i) for i in t] for t in database.iter_item_transactions()),
        key=lambda t: len(index.match_wire(t)),
    )
    fired = [json.loads(fragment) for _, fragment in index.match_wire(transaction)]
    assert len(fired) > 1
    answer = {"type": "match_result", "id": 1, "version": 1, "fired": fired}
    assert oracle.check(answer, transaction) is None
    dropped = dict(answer, fired=fired[:-1])
    assert "missing" in oracle.check(dropped, transaction)
    first = dict(fired[0], consequent_observed=not fired[0]["consequent_observed"])
    flipped = dict(answer, fired=[first] + fired[1:])
    assert oracle.check(flipped, transaction) is not None


def test_mined_book_oracle_rejects_a_perturbed_support(tmp_path):
    path, database = _mined_book(tmp_path)
    config = MiningConfig()
    book = RuleBook.load(path)
    checked, problems = check_mined_book(book, database, config, random.Random(0), len(book))
    assert checked == len(book) + 1 and problems == []

    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["support"] += 1e-9
    lines[3] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    planted = RuleBook.load(path)
    _, problems = check_mined_book(planted, database, config, random.Random(0), len(planted))
    assert len(problems) == 1 and "recounted" in problems[0]
