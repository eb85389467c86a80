"""Serve workloads: the real ``python -m repro serve`` CLI, driven from
outside over its NDJSON protocol by :mod:`loadgen`.

Each workload mines its own book (seed S), builds a request pool from
freshly generated, preprocessed jobs (seed S+1), then launches the server
:data:`LAUNCHES` times, each time on a free port in a fresh directory:

    warm-up → open-loop slice → scrape → closed-loop slice → scrape
    [→ follow's last launch: drift phase (a drift batch appended every
    1.5 s) → healthz]

The open-loop latencies of all launches are pooled, and so are the
closed-loop answers and slice seconds.  Pooling, because PAI answers
cost 1–50 ms each (explain requests the most), so a second-long slice
carries too few of them for its rate to settle; several launches,
because on a 2-CPU box where the server, the router and the load
generator share the cores, how the scheduler places one launch's
processes moves that launch's speed.  Every launch is timed from process start to its first correct
answer (a set-up sample) and stopped with SIGTERM, which must end in exit
code 0 within :data:`EXIT_TIMEOUT_S` with no surviving child and no
leaked ``rsm.*`` shared-memory segment.

No scrape follows the drift phase: after a hot-swap to a smaller book the
server's ``metrics`` answer indexes rule ids of the old book and fails.

In a traced run the served book's mining is traced layer by layer, and
the book, requests and drift batches are replayed in process through
``RuleBook.load``, ``RuleIndex``, ``StreamingBitmapWindow``,
``RuleBookRefresher`` and ``publish_rule_plane`` (see :mod:`replay`).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.stats import LatencyHistogram
from repro.serve import RuleBook
from repro.shm.segment import gc_stale_segments, list_segments
from repro.traces import get_trace

from loadgen import LoadClient, PhaseStats, RequestPool
from mine import make_table, mining_layers, timed_pass
from hostspeed import at_reference, slowdown
from oracles import FiredOracle
from replay import index_layers, median_or_zero, stream_layers


@dataclass(frozen=True)
class ServeSpec:
    trace: str
    n_jobs: int
    pool_jobs: int
    rate: float
    explain_every: int
    shards: int
    follow: bool
    #: share of ``--seconds`` each launch spends in its open-loop slice
    open_share: float


SERVE_WORKLOADS = {
    "serve-pai": ServeSpec("pai", 20_000, 2_000, 100.0, 50, 1, False, 0.10),
    "serve-philly-follow": ServeSpec("philly", 20_000, 4_000, 2000.0, 0, 2, True, 0.04),
}

#: seconds SIGTERM gets to end the whole process tree with exit code 0
EXIT_TIMEOUT_S = 30.0

#: seconds a launch gets to give its first correct answer
READY_TIMEOUT_S = 120.0

#: server launches per workload; every launch is also one set-up sample
LAUNCHES = 3

#: shares of ``--seconds``: each launch's warm-up, and follow's drift
#: phase; the closed-loop slices get what the other phases leave
WARMUP_SHARE, DRIFT_SHARE = 0.027, 1 / 3

#: shortest closed-loop slice, however short ``--seconds`` is
MIN_CLOSED_S = 0.25

#: closed loop: requests kept in flight per connection
DEPTH = 32

#: request ids of launch k start at k times this, so each launch sends
#: other jobs (and explains others) than the launch before
LAUNCH_ID_STRIDE = 100_003

#: follow mode: events per drift batch (the CLI's default window size),
#: seconds between batches, delay of the first one into the drift phase
DRIFT_BATCH = 4096
DRIFT_EVERY_S = 1.5
DRIFT_FIRST_S = 0.5
FOLLOW_INTERVAL_S = "0.2"

#: traced runs: drift batches replayed in process, and untraced passes
#: whose median the traced mining pass is compared with
REPLAY_DRIFT = 4
TRACE_UNTRACED = 3

FAILED = "Failed = Failed"
KILLED = "Job Killed = Job Killed"


# -- inputs -------------------------------------------------------------------
def make_inputs(spec: ServeSpec, seed: int, scale: float, work_dir: Path):
    """Mine the served book (seed S) and build the request pool (S+1).

    The book comes out of one untraced ``mine-rulebook`` pass; returns
    ``(tables, book path, pass seconds, book fingerprints, pool)``.
    """
    tables = [(spec.trace, make_table(spec.trace, spec.n_jobs, seed, scale))]
    books = work_dir / "books"
    books.mkdir()
    seconds, fingerprints = timed_pass(tables, books)
    pool_table = make_table(spec.trace, spec.pool_jobs, seed + 1)
    database = get_trace(spec.trace).make_preprocessor().run(pool_table).database
    transactions = [
        sorted(str(item) for item in t) for t in database.iter_item_transactions()
    ]
    book_path = books / f"{spec.trace}.rulebook.jsonl"
    pool = RequestPool(transactions, spec.explain_every)
    return tables, book_path, seconds, fingerprints, pool


def drift_batches(pool: RequestPool, seed: int, n: int) -> list[list[list[str]]]:
    """Batches alternating between the Failed half and the
    neither-Failed-nor-Killed half of the pool."""
    failed = [t for t in pool.transactions if FAILED in t]
    neither = [t for t in pool.transactions if FAILED not in t and KILLED not in t]
    rng = random.Random(seed + 1)
    return [
        [rng.choice(failed if j % 2 == 0 else neither) for _ in range(DRIFT_BATCH)]
        for j in range(n)
    ]


# -- process control ----------------------------------------------------------
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _process_tree(root: int) -> list[int]:
    """*root* and every live descendant, from the /proc process table."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One launch of ``python -m repro serve``."""

    def __init__(self, spec: ServeSpec, book_path: Path, launch_dir: Path, env: dict):
        self.spec = spec
        self.book_path = book_path
        self.dir = launch_dir
        self.env = env
        self.port = _free_port()
        self.stream = launch_dir / "stream.ndjson"
        self.follow_out = launch_dir / "follow-books"
        self.output: deque[str] = deque(maxlen=400)
        self.proc: asyncio.subprocess.Process | None = None
        self.started = 0.0
        self._drain: asyncio.Task | None = None

    async def start(self) -> None:
        self.dir.mkdir(parents=True)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--rulebook", str(self.book_path), "--port", str(self.port),
        ]
        if self.spec.shards > 1:
            cmd += ["--shards", str(self.spec.shards)]
        if self.spec.follow:
            self.stream.touch()
            cmd += [
                "--follow", str(self.stream),
                "--follow-interval", FOLLOW_INTERVAL_S,
                "--follow-out", str(self.follow_out),
            ]
        self.started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *cmd,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=self.env,
            cwd=self.dir,
        )
        self._drain = asyncio.create_task(self._read_output())

    async def _read_output(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                return
            self.output.append(line.decode(errors="replace").rstrip())

    async def first_answer(self, transaction: list[str]) -> tuple[float, bytes]:
        """Seconds from launch to the first match answer, and the answer."""
        request = json.dumps(
            {"type": "match", "id": "setup", "transaction": transaction}
        ).encode() + b"\n"
        while time.perf_counter() - self.started < READY_TIMEOUT_S:
            if self.proc.returncode is not None:
                break
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.port, limit=1 << 26
                )
            except OSError:
                await asyncio.sleep(0.005)
                continue
            try:
                writer.write(request)
                line = await reader.readline()
            except (ConnectionError, OSError):
                line = b""
            finally:
                writer.close()
            if line.startswith(b'{"type": "match_result"'):
                return time.perf_counter() - self.started, line
            await asyncio.sleep(0.005)
        raise RuntimeError(
            "server gave no answer; last output:\n" + "\n".join(self.output)
        )

    async def stop(self) -> tuple[int, list[str]]:
        """SIGTERM; returns (VmHWM sum in kB before the signal, problems)."""
        pids = _process_tree(self.proc.pid)
        hwm_kb = sum(_vm_hwm_kb(pid) for pid in pids)
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        try:
            code = await asyncio.wait_for(self.proc.wait(), EXIT_TIMEOUT_S)
            if code != 0:
                problems.append(f"exit code {code} after SIGTERM")
        except asyncio.TimeoutError:
            problems.append(f"still running {EXIT_TIMEOUT_S:.0f}s after SIGTERM")
        # helpers such as multiprocessing's resource tracker exit on their
        # own once their parent is gone; they get the same deadline
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        survivors = [pid for pid in pids if _alive(pid)]
        if survivors:
            problems.append(f"processes survived shutdown: {survivors}")
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc.returncode is None:
            await self.proc.wait()
        await self._drain
        owners = {str(pid) for pid in pids}
        leaked = [
            name for name in list_segments()
            if len(name.split(".")) >= 5 and name.split(".")[3] in owners
        ]
        if leaked:
            problems.append(f"shared-memory segments left behind: {leaked}")
            gc_stale_segments()
        if problems:
            problems.append("last output:\n" + "\n".join(list(self.output)[-20:]))
        return hwm_kb, problems


# -- books by served version ----------------------------------------------------
class Books:
    """Oracle per served version: 1 is the launched book, v>1 the follow
    book ``rulebook.v{v-1}.jsonl`` the follower wrote."""

    def __init__(self, book_path: Path, follow_out: Path):
        self.book_path = book_path
        self.follow_out = follow_out
        self._oracles: dict[int, FiredOracle] = {}

    def path(self, version: int) -> Path:
        if version == 1:
            return self.book_path
        return self.follow_out / f"rulebook.v{version - 1}.jsonl"

    def oracle(self, version: int) -> FiredOracle:
        if version not in self._oracles:
            self._oracles[version] = FiredOracle(RuleBook.load(self.path(version)).table)
        return self._oracles[version]

    def check(self, line: bytes, transaction: list[str]) -> str | None:
        """Fully parse one answer and test it against its version's book."""
        response = json.loads(line)
        version = response["version"]
        try:
            oracle = self.oracle(version)
        except OSError as exc:
            return f"no book for served version {version}: {exc}"
        return oracle.check(response, transaction)


# -- measurement helpers --------------------------------------------------------
def _quantile_ms(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) * 1e3 if values else 0.0


def _refresh_times(flushes, transitions) -> list[float | None]:
    """Per drift batch: flush → first answer tagged with a newer version."""
    out = []
    for flushed_at, version_before in flushes:
        out.append(
            next(
                (t - flushed_at for t, v in transitions if t > flushed_at and v > version_before),
                None,
            )
        )
    return out


def _mixed_windows_ms(versions: list[tuple[float, int]]) -> list[float]:
    """Per new version: last older-version answer minus first newer one."""
    if not versions:
        return []
    times = np.array([t for t, _ in versions])
    served = np.array([v for _, v in versions])
    out = []
    for v in np.unique(served)[1:]:
        first_new = times[served >= v].min()
        older = times[served < v]
        out.append(max(0.0, float(older.max() - first_new)) * 1e3)
    return out


# -- the workload ---------------------------------------------------------------
class _Run:
    """Operations attempted and failed over one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    def phases(self, phases: list[PhaseStats], books: Books, pool: RequestPool) -> None:
        """Count a launch's requests and test its sampled answers."""
        for phase in phases:
            self.attempted += phase.sent
            self.failed += phase.failed
            self.problems.extend(f"{phase.name}: {e}" for e in phase.errors[:5])
            for request_id, line in phase.samples:
                wrong = books.check(line, pool.transaction(request_id))
                if wrong:
                    self.failed += 1
                    self.problems.append(f"{phase.name}: {wrong}")


def _plan(spec: ServeSpec, seconds: float) -> dict:
    """Seconds of each launch's warm-up, open- and closed-loop slice, and
    of the drift phase with the number of drift batches it carries."""
    warm = WARMUP_SHARE * seconds
    open_s = spec.open_share * seconds
    drift, n_drift = 0.0, 0
    if spec.follow:
        # every batch gets at least one spacing to be answered by a new book
        drift = max(DRIFT_SHARE * seconds, DRIFT_FIRST_S + 2 * DRIFT_EVERY_S)
        n_drift = int((drift - DRIFT_FIRST_S) // DRIFT_EVERY_S)
    closed = max((seconds - drift) / LAUNCHES - warm - open_s, MIN_CLOSED_S)
    return {"warm": warm, "open": open_s, "closed": closed, "drift": drift, "n_drift": n_drift}


async def _load(server: Server, k: int, spec: ServeSpec, pool: RequestPool,
                books: Books, plan: dict, drift_bytes: list[bytes], run: _Run) -> dict:
    """The load one launch carries: warm-up, open-loop slice, closed-loop
    slice with metrics scrapes around it, and the drift phase when
    *drift_bytes* holds batches to append."""
    client = LoadClient(
        "127.0.0.1", server.port, pool,
        n_conns=min(2, os.cpu_count() or 1), first_id=k * LAUNCH_ID_STRIDE,
    )
    await client.open()
    load: dict = {}
    flushes: list[tuple[float, int]] = []
    try:
        warm = await client.open_loop(f"warm{k}", plan["warm"], spec.rate)
        opened = await client.open_loop(f"open{k}", plan["open"], spec.rate)
        load["before"] = await client.control({"type": "metrics"})
        before = slowdown()
        closed = await client.closed_loop(f"closed{k}", plan["closed"], DEPTH)
        load["slowdown"] = (before + slowdown()) / 2
        load["after"] = await client.control({"type": "metrics"})
        load["phases"] = [warm, opened, closed]
        if drift_bytes:
            appender = asyncio.create_task(
                _append_drift(server.stream, drift_bytes, client, flushes)
            )
            load["drift"] = await client.open_loop(f"drift{k}", plan["drift"], spec.rate)
            await appender
            load["phases"].append(load["drift"])
            health = await client.control({"type": "healthz"})
            run.check("served version", _check_version_tag(health, books))
    finally:
        await client.close()
    if drift_bytes:
        refresh = _refresh_times(flushes, client.transitions)
        for j, seconds in enumerate(refresh):
            missed = "no answer from a newer version" if seconds is None else None
            run.check(f"drift batch {j}", missed)
        load["refresh"] = [r for r in refresh if r is not None]
    return load


async def _run(workload: str, ctx) -> dict:
    spec = SERVE_WORKLOADS[workload]
    tables, book_path, mined_s, reference, pool = make_inputs(
        spec, ctx.seed, ctx.scale, ctx.work_dir
    )
    plan = _plan(spec, ctx.seconds)
    drift = []
    if spec.follow:
        drift = drift_batches(pool, ctx.seed, max(plan["n_drift"], REPLAY_DRIFT))
    drift_bytes = [
        "".join(json.dumps(t) + "\n" for t in batch).encode() for batch in drift[:plan["n_drift"]]
    ]

    run = _Run()
    setup: list[float] = []
    scaled_setup: list[float] = []
    launches: list[dict] = []
    first_tx = pool.transaction(0)
    for k in range(LAUNCHES):
        server = Server(spec, book_path, ctx.work_dir / f"launch{k}", ctx.child_env)
        books = Books(book_path, server.follow_out)
        drifting = drift_bytes if k == LAUNCHES - 1 else []
        before = slowdown()
        await server.start()
        try:
            seconds, answer = await server.first_answer(first_tx)
            setup.append(seconds)
            scaled_setup.append(at_reference(seconds, before, slowdown()))
            run.check(f"launch {k} first answer", books.check(answer, first_tx))
            load = await _load(server, k, spec, pool, books, plan, drifting, run)
            run.phases(load["phases"], books, pool)
        finally:
            kb, stop_problems = await server.stop()
        run.check(f"launch {k} shutdown", "; ".join(stop_problems))
        load["rss_mb"] = kb / 1024
        launches.append(load)

    opens = [launch["phases"][1] for launch in launches]
    closed = [launch["phases"][2] for launch in launches]
    drifted = [launch["drift"] for launch in launches if "drift" in launch]
    latencies = [x for phase in opens for x in phase.latencies]
    tail = [x for phase in (drifted or opens) for x in phase.latencies]
    if len(latencies) < 1000 or len(tail) < 1000:
        ctx.notes.append("fewer than 1000 open-loop samples: p99 has < 10 beyond it")
    lags = [x for phase in opens + drifted for x in phase.lags]
    lag_p99_ms = _quantile_ms(lags, 0.99)
    if lag_p99_ms > 5.0:
        ctx.notes.append(f"open loop flagged: generator lag p99 {lag_p99_ms:.1f} ms > 5 ms")
    refresh = [r for launch in launches for r in launch.get("refresh", ())]
    answered = sum(phase.in_window for phase in closed)
    scaled_answered = sum(x["phases"][2].in_window * x["slowdown"] for x in launches)
    closed_s = len(closed) * plan["closed"]
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s", len(setup)),
        "jobs_per_s": (scaled_answered / closed_s, "1/s", answered),
        "peak_rss_mb": (statistics.median(x["rss_mb"] for x in launches), "MB", len(launches)),
    }
    extra = {
        "raw.setup_s": (statistics.median(setup), "s", len(setup)),
        "raw.jobs_per_s": (answered / closed_s, "1/s", answered),
        "host.slowdown": (statistics.median(x["slowdown"] for x in launches), "ratio", len(launches)),
        "serve_p50_ms": (_quantile_ms(latencies, 0.5), "ms", len(latencies)),
        "serve_p99_ms": (_quantile_ms(tail, 0.99), "ms", len(tail)),
    }
    if spec.follow:
        extra["refresh_s"] = (median_or_zero(refresh), "s", len(refresh))

    layers: dict = {}
    if ctx.trace:
        # after the last server is gone, so nothing competes with the replays
        untraced = [mined_s] + [
            timed_pass(tables, book_path.parent)[0] for _ in range(TRACE_UNTRACED - 1)
        ]
        layers, found, plan_text = mining_layers(
            tables, book_path.parent, ctx.tracer, untraced, reference
        )
        run.check("traced pass", "; ".join(found))
        ctx.notes.append(f"engine plan: {plan_text}")
        layers.update(index_layers([(book_path, pool.transactions)], ctx.tracer))
        if spec.follow:
            layers.update(stream_layers(book_path, drift[:REPLAY_DRIFT], DRIFT_BATCH, ctx.tracer))
        layers["trace.residual_s"] = ctx.tracer.self_time("pass") + ctx.tracer.self_time("replay")
        layers.update(_service_layers(launches, extra["serve_p50_ms"][0]))
        layers["client.lag_p99_ms"] = lag_p99_ms

    return {
        "metrics": metrics,
        "extra": extra,
        "layers": layers,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "phases": [{"name": "setup", "seconds": sum(setup), "n": len(setup)}]
        + [p.summary() for launch in launches for p in launch["phases"]],
        "inputs": {
            "book_rules": len(RuleBook.load(book_path)),
            "pool_jobs": len(pool.transactions),
            "drift_batches": plan["n_drift"],
        },
    }


def _service_layers(launches: list[dict], p50_ms: float) -> dict:
    """Per-layer numbers from the metrics scrapes and the client side.

    Batching, kernel share and balance come from the closed-loop slices
    (scrape diffs); server-side queue times and router link times from
    each launch's life up to the end of its open-loop slice, before any
    closed-loop queueing or hot-swap.
    """
    phases = [p for launch in launches for p in launch["phases"]]

    def diff(launch: dict, *keys: str) -> float:
        before, after = launch["before"], launch["after"]
        for key in keys:
            before, after = before[key], after[key]
        return after - before

    queue = LatencyHistogram()
    for launch in launches:
        queue.merge(launch["before"]["latency_state"])
    batches = sum(diff(x, "requests", "batches") for x in launches)
    answered = sum(p.ok for p in phases)
    layers = {
        "service.queue_p50_ms": queue.quantile(0.5) * 1e3,
        "service.queue_p99_ms": queue.quantile(0.99) * 1e3,
        "service.batch_mean": sum(diff(x, "requests", "matched") for x in launches)
        / max(1, batches),
        "service.kernel_share": sum(diff(x, "kernel", "seconds") for x in launches)
        / sum(x["phases"][2].seconds for x in launches),
        "service.rejected": sum(x["after"]["requests"]["rejected"] for x in launches),
        "wire.response_kb": sum(p.response_bytes for p in phases) / max(1, answered) / 1024,
    }
    for launch in launches:
        if "drift" in launch:
            layers["swap.mixed_ms"] = median_or_zero(_mixed_windows_ms(launch["drift"].versions))
    if "router" in launches[0]["after"]:
        link = [x["before"]["router"]["latency"] for x in launches]
        link_p50 = statistics.median(x["p50_s"] for x in link) * 1e3
        per_shard = [
            sum(x["after"]["router"]["shards"][i]["answered"]
                - x["before"]["router"]["shards"][i]["answered"] for x in launches)
            for i in range(len(launches[0]["after"]["router"]["shards"]))
        ]
        layers.update({
            "router.link_p50_ms": link_p50,
            "router.link_p99_ms": statistics.median(x["p99_s"] for x in link) * 1e3,
            "router.hop_p50_ms": p50_ms - link_p50,
            "router.retries": sum(x["after"]["router"]["shard_retries"] for x in launches),
            "router.timeouts": sum(x["after"]["router"]["timeouts"] for x in launches),
            "lb.imbalance": max(per_shard) / max(1, min(per_shard)),
        })
    return layers


async def _append_drift(stream: Path, batches: list[bytes], client: LoadClient, flushes) -> None:
    """Append each drift batch on schedule; record (flush time, version)."""
    started = time.perf_counter()
    for j, data in enumerate(batches):
        delay = started + DRIFT_FIRST_S + j * DRIFT_EVERY_S - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        with open(stream, "ab") as fh:
            fh.write(data)
            fh.flush()
        flushes.append((time.perf_counter(), client.max_version))


def _check_version_tag(health: dict, books: Books) -> str | None:
    """The served version must be the newest follow book, by fingerprint."""
    written = [int(p.name.split(".")[1][1:]) for p in books.follow_out.glob("rulebook.v*.jsonl")]
    version = health.get("version")
    if not written or version != max(written) + 1:
        return f"healthz version {version!r}, newest follow book v{max(written, default=0)}"
    book = RuleBook.load(books.path(version))
    if book.fingerprint != health.get("version_tag"):
        return (
            f"healthz version {version} tag {health.get('version_tag')} is not "
            f"the fingerprint of {books.path(version).name}"
        )
    return None


def run_serve(workload: str, ctx) -> dict:
    return asyncio.run(_run(workload, ctx))
