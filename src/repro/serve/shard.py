"""Shard workers: N rule-serving processes behind one public endpoint.

``repro serve --shards N`` (N > 1) runs one topology: each worker binds
an ephemeral port and a :class:`~repro.serve.router.ShardRouter` in the
parent process owns the public port, sending each match to the healthy
shard with the fewest requests in flight and aggregating
healthz/metrics/reload across the fleet.

Workers are real OS processes spawned fresh (``python -m
repro.serve._shard_worker``), never forked: nothing is pickled and no
interpreter state is shared.  Each worker attaches the published
shared-memory rule plane (one compile, N zero-copy attaches) wherever
the platform has shared memory; where it does not, or a segment cannot
be attached, the worker says so on stdout and builds its own RuleIndex
from the rulebook path.  A worker announces readiness by printing one
line::

    SHARD_READY name=shard0 pid=4242 port=43121

which the parent parses for port and pid — the pid is what chaos tests
and the CI smoke job use to kill or stall a specific shard.

Hot-swap across the fleet is *rolling*: shards flip one at a time while
the rest keep serving, all told the same explicit version number so the
new version tag means the same rulebook on every replica (see
:func:`broadcast_reload` and ``ShardRouter._reload``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Sequence

from ..shm.ruleplane import attach_rule_plane, publish_rule_plane
from ..shm.segment import (
    SegmentError,
    SegmentLease,
    gc_stale_segments,
    shm_available,
)
from .index import RuleIndex
from .router import ShardHandle, ShardRouter
from .rulebook import RuleBook
from .service import MAX_LINE_BYTES, RuleService

__all__ = [
    "ShardProcess",
    "ShardCluster",
    "send_control",
    "broadcast_reload",
    "run_cluster",
]

#: seconds a freshly spawned worker gets to print SHARD_READY
DEFAULT_READY_TIMEOUT_S = 30.0

#: seconds a SIGTERM'd worker gets to drain before SIGKILL
DEFAULT_DRAIN_TIMEOUT_S = 10.0


def _src_root() -> Path:
    """The directory that must be on PYTHONPATH to import ``repro``."""
    return Path(__file__).resolve().parents[2]


class ShardProcess:
    """One worker subprocess: spawn, readiness handshake, signals."""

    def __init__(
        self,
        name: str,
        rulebook: str,
        *,
        host: str = "127.0.0.1",
        max_queue: int | None = None,
        max_batch: int | None = None,
        segment: str | None = None,
    ):
        self.name = name
        self.rulebook = rulebook
        self.host = host
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.segment = segment
        self.port: int | None = None
        self.pid: int | None = None
        self.process: asyncio.subprocess.Process | None = None
        self._drain_task: asyncio.Task | None = None

    def _command(self) -> list[str]:
        cmd = [
            sys.executable,
            "-u",
            "-m",
            "repro.serve._shard_worker",
            "--rulebook",
            self.rulebook,
            "--host",
            self.host,
            "--name",
            self.name,
        ]
        if self.max_queue is not None:
            cmd.extend(["--max-queue", str(self.max_queue)])
        if self.max_batch is not None:
            cmd.extend(["--max-batch", str(self.max_batch)])
        if self.segment is not None:
            cmd.extend(["--segment", self.segment])
        return cmd

    async def spawn(
        self, ready_timeout: float = DEFAULT_READY_TIMEOUT_S
    ) -> None:
        """Start the worker and wait for its SHARD_READY line."""
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{_src_root()}{os.pathsep}{existing}"
            if existing
            else str(_src_root())
        )
        self.process = await asyncio.create_subprocess_exec(
            *self._command(),
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        try:
            await asyncio.wait_for(self._wait_ready(), ready_timeout)
        except asyncio.TimeoutError:
            self.process.kill()
            await self.process.wait()
            raise RuntimeError(
                f"shard {self.name} did not become ready within "
                f"{ready_timeout}s"
            ) from None
        self._drain_task = asyncio.create_task(self._drain_stdout())

    async def _wait_ready(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        while True:
            line = await self.process.stdout.readline()
            if not line:
                returncode = await self.process.wait()
                raise RuntimeError(
                    f"shard {self.name} exited (rc={returncode}) "
                    "before becoming ready"
                )
            text = line.decode(errors="replace").strip()
            if text.startswith("SHARD_READY"):
                fields = dict(
                    part.split("=", 1)
                    for part in text.split()[1:]
                    if "=" in part
                )
                self.pid = int(fields["pid"])
                self.port = int(fields["port"])
                return
            print(f"[{self.name}] {text}", flush=True)

    async def _drain_stdout(self) -> None:
        """Keep forwarding worker output so its pipe never fills."""
        assert self.process is not None and self.process.stdout is not None
        while True:
            line = await self.process.stdout.readline()
            if not line:
                return
            print(
                f"[{self.name}] {line.decode(errors='replace').rstrip()}",
                flush=True,
            )

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.returncode is None

    def send_signal(self, signum: int) -> None:
        if self.running:
            assert self.process is not None
            self.process.send_signal(signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        if self.running:
            assert self.process is not None
            self.process.kill()

    async def wait(self, timeout: float | None = None) -> int | None:
        if self.process is None:
            return None
        if timeout is None:
            returncode = await self.process.wait()
        else:
            returncode = await asyncio.wait_for(self.process.wait(), timeout)
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        return returncode

    async def stop(
        self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT_S
    ) -> None:
        """SIGTERM (graceful drain), escalate to SIGKILL on timeout."""
        if not self.running:
            if self._drain_task is not None:
                await self._drain_task
                self._drain_task = None
            return
        self.terminate()
        try:
            await self.wait(drain_timeout)
        except asyncio.TimeoutError:  # pragma: no cover - stuck worker
            self.kill()
            await self.wait()


async def send_control(
    host: str, port: int, payload: dict, *, timeout: float = 60.0
) -> dict:
    """One-shot request/response against a service or router."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError(
                f"{host}:{port} closed the connection without answering"
            )
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def broadcast_reload(
    host: str,
    port: int,
    rulebook: str,
    *,
    version: int | None = None,
    version_tag: str | None = None,
    segment: str | None = None,
    timeout: float = 60.0,
) -> dict:
    """Hot-swap the rulebook of the one endpoint at *host*:*port*.

    The endpoint is a router, which flips its shards one at a time, or
    a lone service.  Without an explicit *version* the receiving end
    picks current + 1 itself.

    When *segment* names a published shared-memory rule plane, the
    shards attach it zero-copy instead of re-parsing and re-compiling
    the rulebook; the path still rides along as the fallback for a
    shard that cannot attach the segment.
    """
    payload: dict = {"type": "reload", "rulebook": rulebook}
    if version is not None:
        payload["version"] = version
    if version_tag is not None:
        payload["version_tag"] = version_tag
    if segment is not None:
        payload["segment"] = segment
    try:
        result = await send_control(host, port, payload, timeout=timeout)
    except (OSError, asyncio.TimeoutError, json.JSONDecodeError) as exc:
        result = {"detail": repr(exc)}
    answered = result.get("type") == "reload_result"
    report = {
        # a lone service answers without a status; a router reports
        # "partial" when a replica missed the flip
        "status": result.get("status", "ok") if answered else "partial",
        "port": port,
        "version": result.get("version", version),
        "version_tag": result.get("version_tag", version_tag),
        "n_rules": result.get("n_rules"),
        "shards": result.get("shards"),
    }
    if not answered:
        report["error"] = result.get("detail", "reload refused")
    elif report["status"] != "ok":
        failed = [
            s.get("name", "?") for s in report["shards"] or [] if not s.get("ok")
        ]
        report["error"] = f"{report['status']}: " + (
            ", ".join(failed) if failed else "no shard flipped"
        )
    return report


class ShardCluster:
    """N shard workers plus the front-end router."""

    def __init__(
        self,
        rulebook: str,
        n_shards: int,
        *,
        book: RuleBook | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int | None = None,
        max_batch: int | None = None,
        request_timeout_s: float | None = 30.0,
        name_prefix: str = "shard",
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.rulebook = rulebook
        #: *rulebook* already loaded by the caller, published by start()
        #: instead of a second load
        self._book = book
        self.n_shards = n_shards
        self.host = host
        self.requested_port = port
        self.request_timeout_s = request_timeout_s
        self.workers: list[ShardProcess] = [
            ShardProcess(
                f"{name_prefix}{k}",
                rulebook,
                host=host,
                max_queue=max_queue,
                max_batch=max_batch,
            )
            for k in range(n_shards)
        ]
        self.router: ShardRouter | None = None
        self._plane_lease: SegmentLease | None = None
        self._generation = 0

    def _publish_plane(
        self, rulebook: str, book: RuleBook | None = None
    ) -> SegmentLease | None:
        """Compile *rulebook* (or its loaded *book*) once and publish it
        to shared memory.

        Runs in a thread (index compilation is CPU-bound).  Returns
        ``None`` when the platform has no shared memory — workers then
        compile their own index from the rulebook path.
        """
        if not shm_available():
            return None
        if book is None:
            book = RuleBook.load(rulebook)
        index = RuleIndex.from_rulebook(book)
        self._generation += 1
        return publish_rule_plane(
            index,
            generation=self._generation,
            version_tag=book.fingerprint,
        )

    async def start(self) -> None:
        # reap segments orphaned by crashed predecessors before adding ours
        await asyncio.to_thread(gc_stale_segments)
        if not shm_available():
            print(
                "cluster: shared memory unavailable on this host; "
                "every shard compiles its own index from the rulebook",
                flush=True,
            )
        try:
            self._plane_lease = await asyncio.to_thread(
                self._publish_plane, self.rulebook, self._book
            )
        except (OSError, ValueError, SegmentError) as exc:
            # a bad rulebook will be reported by the first worker; a shm
            # hiccup just means every worker compiles its own copy
            print(f"cluster: rule-plane publish skipped: {exc}", flush=True)
            self._plane_lease = None
        if self._plane_lease is not None:
            for worker in self.workers:
                worker.segment = self._plane_lease.name
        try:
            # workers import and load side by side; one that fails takes
            # every started sibling down with it (below)
            outcomes = await asyncio.gather(
                *(worker.spawn() for worker in self.workers), return_exceptions=True
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
            handles = [
                ShardHandle(
                    w.name, self.host, w.port, pid=w.pid  # type: ignore[arg-type]
                )
                for w in self.workers
            ]
            self.router = ShardRouter(
                handles, request_timeout_s=self.request_timeout_s
            )
            await self.router.start(self.host, self.requested_port)
        except BaseException:
            started = [w for w in self.workers if w.process is not None]
            for worker in started:
                worker.kill()
            for worker in started:
                try:
                    await worker.wait(5.0)
                except asyncio.TimeoutError:  # pragma: no cover
                    pass
            if self._plane_lease is not None:
                self._plane_lease.unlink()
                self._plane_lease = None
            raise

    @property
    def port(self) -> int:
        """The public port clients connect to."""
        if self.router is None:
            raise RuntimeError("cluster is not started")
        return self.router.port

    def describe(self) -> str:
        lines = [
            f"CLUSTER_READY host={self.host} port={self.port} "
            f"shards={self.n_shards}"
        ]
        for worker in self.workers:
            lines.append(f"  {worker.name} pid={worker.pid} port={worker.port}")
        return "\n".join(lines)

    async def reload(
        self,
        rulebook: str,
        *,
        version: int | None = None,
        version_tag: str | None = None,
    ) -> dict:
        """Rolling hot-swap of every shard's rulebook.

        The parent compiles and publishes the new rule plane *once*;
        the broadcast then ships only the segment name, so each shard's
        flip is a zero-copy attach instead of a parse-and-compile.  The
        previous generation's segment is retired after the broadcast —
        shards that already attached it keep their mappings alive.
        """
        previous = self._plane_lease
        try:
            lease = await asyncio.to_thread(self._publish_plane, rulebook)
        except (OSError, ValueError, SegmentError):
            # let the per-shard path reload report the real error
            lease = None
        result = await broadcast_reload(
            self.host,
            self.port,
            rulebook,
            version=version,
            version_tag=version_tag,
            segment=lease.name if lease is not None else None,
        )
        self.rulebook = rulebook
        if lease is not None:
            self._plane_lease = lease
            if previous is not None and previous.name != lease.name:
                previous.unlink()
            for worker in self.workers:
                worker.segment = lease.name
        return result

    def kill_shard(self, k: int) -> ShardProcess:
        """SIGKILL worker *k* (chaos testing / CI smoke)."""
        worker = self.workers[k]
        worker.kill()
        return worker

    async def shutdown(self) -> None:
        if self.router is not None:
            await self.router.shutdown()
            self.router = None
        for worker in self.workers:
            worker.terminate()
        # wait, not stop(): a second SIGTERM polls the child and can reap
        # a worker that already drained before asyncio's child watcher
        # does, which then logs "Unknown child process" on stderr
        for worker in self.workers:
            try:
                await worker.wait(DEFAULT_DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:  # pragma: no cover - stuck worker
                worker.kill()
                await worker.wait()
        if self._plane_lease is not None:
            # workers are gone; drop the segment so /dev/shm stays clean
            self._plane_lease.unlink()
            self._plane_lease = None


async def run_cluster(cluster: ShardCluster) -> None:
    """Run a cluster until SIGTERM/SIGINT, then drain everything."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    # handle the signals before any worker exists: a SIGTERM that lands
    # while the fleet starts must drain it, not kill the parent and
    # leave the workers running
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await cluster.start()
    print(cluster.describe(), flush=True)
    try:
        await stop.wait()
    finally:
        await cluster.shutdown()


# -- worker entry point --------------------------------------------------------
def _build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.shard",
        description="One rule-serving shard worker (spawned by repro serve)",
    )
    parser.add_argument("--rulebook", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--name", default=f"shard-pid{os.getpid()}")
    parser.add_argument("--max-queue", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument(
        "--segment",
        default=None,
        help="shared-memory rule-plane segment to attach instead of "
        "compiling the rulebook (falls back to --rulebook)",
    )
    return parser


def _worker_service(args: argparse.Namespace) -> RuleService:
    """The worker's service: the attached plane, else its own compile."""
    kwargs: dict = {"name": args.name}
    if args.max_queue is not None:
        kwargs["max_queue"] = args.max_queue
    if args.max_batch is not None:
        kwargs["max_batch"] = args.max_batch
    if args.segment and not shm_available():
        print(
            f"shard {args.name}: shared memory unavailable on this host; "
            "compiling from rulebook",
            flush=True,
        )
    elif args.segment:
        try:
            index, plane_meta = attach_rule_plane(args.segment)
        except SegmentError as exc:
            print(
                f"shard {args.name}: segment {args.segment} not "
                f"attachable ({exc}); compiling from rulebook",
                flush=True,
            )
        else:
            return RuleService(
                index, version_tag=plane_meta.get("version_tag"), **kwargs
            )
    return RuleService.from_rulebook(RuleBook.load(args.rulebook), **kwargs)


async def _run_worker(args: argparse.Namespace) -> None:
    def on_ready(svc: RuleService) -> None:
        print(
            f"SHARD_READY name={svc.name} pid={os.getpid()} port={svc.port}",
            flush=True,
        )

    await _worker_service(args).serve_forever(
        args.host, args.port, on_ready=on_ready
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_worker_parser().parse_args(argv)
    started = time.monotonic()
    asyncio.run(_run_worker(args))
    print(
        f"shard {args.name} drained after "
        f"{time.monotonic() - started:.1f}s",
        flush=True,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
