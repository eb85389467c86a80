#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark: mine → rulebook → serve → follow.

Run from the repository root (``BENCHMARK.json`` lists the metrics)::

    python3 benchmarks/e2e/bench_e2e.py --seed 0 --json-out a.json
    python3 benchmarks/e2e/bench_e2e.py --workload serve-pai --seed 3 --trace 1
    python3 benchmarks/e2e/bench_e2e.py --compare a.json b.json

Without ``--workload`` all four workloads run, each in a fresh process.
Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  The exit status is 0 only when
every answer check passed and no operation failed.

The program is reached only from outside: mining through the public
layer functions in process, serving by launching ``python -m repro
serve`` and speaking its NDJSON protocol.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: gitignored working space inside the checkout (work dirs, spans)
WORK_ROOT = ROOT / ".bench_e2e"

WORKLOADS = ("mine-pai-300k", "mine-3trace-20k", "serve-pai", "serve-philly-follow")

#: unit of every per-layer metric a traced run can report; BENCHMARK.json
#: lists the ones every workload reports, the rest are printed only
LAYER_UNITS = {
    "preprocess.s": "s", "engine.mine_s": "s", "engine.itemsets": "count",
    "rules.generate_s": "s", "rules.generated": "count", "prune.s": "s",
    "prune.kept_ratio": "ratio", "rulebook.export_s": "s", "rulebook.load_s": "s",
    "index.compile_s": "s", "index.match_batch_us": "us", "index.match_scalar_us": "us",
    "index.explain_us": "us", "index.fired_per_job": "count",
    "trace.residual_s": "s", "trace.overhead_s": "s",
    "service.queue_p50_ms": "ms", "service.queue_p99_ms": "ms",
    "service.batch_mean": "count", "service.kernel_share": "ratio",
    "service.rejected": "count", "wire.response_kb": "KB", "client.lag_p99_ms": "ms",
    "router.link_p50_ms": "ms", "router.link_p99_ms": "ms", "router.hop_p50_ms": "ms",
    "router.retries": "count", "router.timeouts": "count", "lb.imbalance": "ratio",
    "stream.ingest_eps": "1/s", "stream.tick_s": "s", "stream.remine_s": "s",
    "shm.publish_s": "s", "swap.mixed_ms": "ms",
}

#: seconds one workload child may take before it is stopped
CHILD_TIMEOUT_S = 900

#: seconds processes left at the end of a workload get to end on their own
REAP_TIMEOUT_S = 10.0

#: prctl option: orphaned descendants are reparented to the caller
PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Context:
    """What a workload runner needs to know about this run."""

    seed: int
    seconds: float
    scale: float
    trace: bool
    work_dir: Path
    child_env: dict
    tracer: Tracer
    notes: list[str] = field(default_factory=list)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: mined tables use S, request pools S+1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, report per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="spans as JSON lines (default: "
                             ".bench_e2e/spans-<workload>.jsonl; with several "
                             "workloads, one file each: <stem>-<workload><suffix>)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply mined table sizes (self-test: 0.05)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="write the full result, with metadata, here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two --json-out results against the bounds")
    return parser


def _git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _child_env() -> dict:
    """Environment of the processes a workload starts: ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _become_subreaper() -> None:
    """Adopt the orphans of every process this one starts (Linux), so
    :func:`_reap_children` also waits for helpers whose parent has exited,
    such as the resource trackers of ``repro serve`` processes."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, from the /proc process table."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def _reap_children(timeout: float) -> list[int]:
    """Wait for every child process to end; SIGKILL those still running
    after *timeout* seconds.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + timeout
    while True:
        running = []
        for pid in _children():
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    running.append(pid)
            except ChildProcessError:
                pass
        if not running:
            return []
        if time.monotonic() >= deadline:
            for pid in running:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return running
        time.sleep(0.01)


def run_workload(name: str, args) -> dict:
    """Run one workload in this process and shape its result."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=bool(args.trace),
        work_dir=work_dir,
        child_env=_child_env(),
        tracer=Tracer(name),
    )
    started = time.perf_counter()
    try:
        if name.startswith("mine-"):
            from mine import run_mine

            raw = run_mine(name, ctx)
        else:
            from serve import run_serve

            raw = run_serve(name, ctx)
    except Exception:  # the run must still report, and fail, cleanly
        raw = {
            "metrics": {},
            "attempted": 1,
            "failed": 1,
            "problems": [traceback.format_exc()],
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        mine = sys.modules.get("mine")  # both runners import it
        if mine is not None:
            mine.stop_resource_tracker()
        killed = _reap_children(REAP_TIMEOUT_S)
    if killed:
        raw["problems"] = [*raw.get("problems", []),
                           f"processes still running at the end, killed: {killed}"]
        if "failed" in raw:
            raw["failed"] += 1
    if ctx.trace:
        out = args.trace_out or WORK_ROOT / f"spans-{name}.jsonl"
        ctx.tracer.write(out)
        ctx.notes.append(f"{len(ctx.tracer.spans)} spans written to {out}")

    problems = raw.get("problems", [])
    failed = raw.get("failed", len(problems))
    metrics = {
        key: {"value": value, "unit": unit, "n": n}
        for key, (value, unit, n) in {**raw.get("metrics", {}), **raw.get("extra", {})}.items()
    }
    layers = {
        key: {"value": float(value), "unit": LAYER_UNITS[key]}
        for key, value in raw.get("layers", {}).items()
    }
    return {
        "workload": name,
        "correct": failed == 0 and not problems,
        "attempted": max(1, raw.get("attempted", 1)),
        "failed": failed,
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
        "layers": layers,
        "phases": raw.get("phases", []),
        "inputs": raw.get("inputs", {}),
        "notes": ctx.notes,
        "problems": problems[:50],
    }


def run_child(name: str, args) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    WORK_ROOT.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=WORK_ROOT)
    os.close(fd)
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--trace", str(args.trace), "--json-out", out,
    ]
    if args.trace_out is not None:
        out_spans = args.trace_out.with_name(
            f"{args.trace_out.stem}-{name}{args.trace_out.suffix}"
        )
        cmd += ["--trace-out", str(out_spans)]
    try:
        subprocess.run(cmd, timeout=CHILD_TIMEOUT_S, check=False)
        return json.loads(Path(out).read_text())["workloads"][name]
    except (subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        return {
            "workload": name, "correct": False, "attempted": 1, "failed": 1,
            "metrics": {}, "layers": {}, "phases": [], "inputs": {}, "notes": [],
            "problems": [f"workload process failed: {exc!r}"],
        }
    finally:
        os.unlink(out)


def _print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} ==")
    for key, m in result["metrics"].items():
        print(f"  {key:<22} {m['value']:>14.4f} {m['unit']:<6} n={m['n']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<22} {ratio:>14.4f} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for key, m in result["layers"].items():
        print(f"  layer {key:<24} {m['value']:>14.6g} {m['unit']}")
    for phase in result["phases"]:
        fields = " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in phase.items() if k != "name")
        print(f"  phase {phase['name']:<10} {fields}")
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in result["problems"]:
        print(f"  FAIL: {problem}")


def _contract_line(results: dict, spec: dict, trace: int) -> dict:
    """The last stdout line: totals plus the BENCHMARK.json metrics."""
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    ok = all(r["correct"] for r in results.values())
    for name, result in results.items():
        source = result["layers"] if trace else result["metrics"]
        for entry in spec[key]:
            measured = source.get(entry["name"])
            if measured is None or measured["unit"] != entry["unit"]:
                ok = False
                continue
            label = entry["name"] if len(results) == 1 else f"{name}:{entry['name']}"
            metrics[label] = {"value": measured["value"], "unit": entry["unit"]}
    return {
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Print B/A per end-to-end metric and workload against its bound."""
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    ok = True
    print(f"{'workload':<22} {'metric':<16} {'A':>12} {'B':>12} {'B/A':>7} "
          f"{'worse':>7} {'bound':>6}")
    for workload in [w for w in a if w in b]:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            va = a[workload]["metrics"].get(name, {}).get("value")
            vb = b[workload]["metrics"].get(name, {}).get("value")
            if not va or vb is None:
                print(f"{workload:<22} {name:<16} missing")
                ok = False
                continue
            ratio = vb / va
            worse = ratio - 1 if entry["better"] == "lower" else 1 - ratio
            verdict = "ok" if worse <= entry["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{workload:<22} {name:<16} {va:>12.4f} {vb:>12.4f} {ratio:>7.3f} "
                  f"{worse:>+7.3f} {entry['bound']:>6.2f} {verdict}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    host = _metadata(args)
    if len(names) == 1:
        _become_subreaper()
        results = {names[0]: run_workload(names[0], args)}
        print(f"host: {host['cpu_count']} cpus, python {host['python']}, numpy "
              f"{host['numpy']}, sha {host['git_sha']}, seed {args.seed}")
        _print_result(results[names[0]])
    else:
        # each child prints its own workload's metrics as it finishes
        results = {name: run_child(name, args) for name in names}
    if args.json_out is not None:
        document = {"host": host, "workloads": results}
        args.json_out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    line = _contract_line(results, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
