"""Shard workers: N rule-serving processes behind one public endpoint.

Two deployment modes, both driven by ``repro serve --shards N``:

* **router** (default, portable) — each worker binds an ephemeral port
  and a :class:`~repro.serve.router.ShardRouter` in the parent process
  owns the public port, balancing requests with a pluggable LB policy
  and aggregating healthz/metrics/reload across the fleet.
* **reuseport** (Linux) — every worker binds the *same* public port
  with ``SO_REUSEPORT`` and the kernel spreads incoming connections
  across them.  No router hop, but also no load-aware balancing and no
  way to address one worker through the shared port — so each worker
  opens a private control listener where the parent (and the
  ``reload-rulebook`` CLI) sends control messages.

Workers are real OS processes spawned fresh (``python -m
repro.serve._shard_worker``), never forked: nothing is pickled and no
interpreter state is shared.  Each worker either attaches the published
shared-memory rule plane (one compile, N zero-copy attaches) or, when
the plane is unavailable, builds its own RuleIndex from the rulebook
path.  A worker announces readiness by printing one line::

    SHARD_READY name=shard0 pid=4242 port=43121 control_port=43997

which the parent parses for ports and pid — the pid is what chaos tests
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
import socket
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

SHARD_MODES = ("router", "reuseport")


def _src_root() -> Path:
    """The directory that must be on PYTHONPATH to import ``repro``."""
    return Path(__file__).resolve().parents[2]


def _pick_free_port(host: str) -> int:
    """Reserve-and-release an ephemeral port for reuseport mode.

    All reuseport workers must bind the *same* number, so the parent
    picks one up front.  The close-then-rebind window is a benign race
    on a loopback test host.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class ShardProcess:
    """One worker subprocess: spawn, readiness handshake, signals."""

    def __init__(
        self,
        name: str,
        rulebook: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
        control: bool = False,
        max_queue: int | None = None,
        max_batch: int | None = None,
        segment: str | None = None,
    ):
        self.name = name
        self.rulebook = rulebook
        self.host = host
        self.requested_port = port
        self.reuse_port = reuse_port
        self.control = control
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.segment = segment
        self.port: int | None = None
        self.control_port: int | None = None
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
            "--port",
            str(self.requested_port),
            "--name",
            self.name,
        ]
        if self.reuse_port:
            cmd.append("--reuse-port")
        if self.control:
            cmd.extend(["--control-host", self.host])
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
                control_port = int(fields.get("control_port", 0))
                self.control_port = control_port or None
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
    """One-shot request/response against a service, router, or control port."""
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
    ports: Sequence[int],
    rulebook: str,
    *,
    version: int | None = None,
    version_tag: str | None = None,
    segment: str | None = None,
    timeout: float = 60.0,
) -> dict:
    """Rolling reload across *ports*, one endpoint at a time.

    With several ports (reuseport workers' control ports) and no
    explicit version, the current maximum version across the fleet is
    probed first so every worker flips to the *same* number — version
    tags would otherwise diverge between replicas.  With a single port
    (a router, which does its own rolling broadcast, or a lone service)
    the receiving end picks the version itself.

    When *segment* names a published shared-memory rule plane, each
    endpoint attaches it zero-copy instead of re-parsing and
    re-compiling the rulebook; the path still rides along as the
    fallback for endpoints that cannot see shared memory.
    """
    ports = list(ports)
    if not ports:
        raise ValueError("broadcast_reload needs at least one port")
    if version is None and len(ports) > 1:
        current = 0
        for port in ports:
            try:
                health = await send_control(
                    host, port, {"type": "healthz"}, timeout=timeout
                )
                current = max(current, int(health.get("version") or 0))
            except (OSError, asyncio.TimeoutError, json.JSONDecodeError):
                continue
        version = current + 1
    payload: dict = {"type": "reload", "rulebook": rulebook}
    if version is not None:
        payload["version"] = version
    if version_tag is not None:
        payload["version_tag"] = version_tag
    if segment is not None:
        payload["segment"] = segment
    outcomes = []
    n_rules = None
    final_tag = version_tag
    for port in ports:
        try:
            result = await send_control(host, port, payload, timeout=timeout)
        except (OSError, asyncio.TimeoutError, json.JSONDecodeError) as exc:
            outcomes.append({"port": port, "ok": False, "error": repr(exc)})
            continue
        if result.get("type") == "reload_result":
            version = result.get("version", version)
            final_tag = result.get("version_tag", final_tag)
            n_rules = result.get("n_rules", n_rules)
            ok = result.get("status", "ok") in ("ok", None)
            outcome = {
                "port": port,
                "ok": ok,
                "version": result.get("version"),
                "shards": result.get("shards"),
            }
            if not ok:
                # name the replicas that missed the flip (a router's
                # rolling reload reports per-shard results)
                failed = [
                    s.get("name", "?")
                    for s in result.get("shards") or []
                    if not s.get("ok")
                ]
                outcome["error"] = (
                    f"{result.get('status')}: "
                    + (", ".join(failed) if failed else "no shard flipped")
                )
            outcomes.append(outcome)
        else:
            outcomes.append(
                {
                    "port": port,
                    "ok": False,
                    "error": result.get("detail", "reload refused"),
                }
            )
    return {
        "status": "ok" if all(o["ok"] for o in outcomes) else "partial",
        "version": version,
        "version_tag": final_tag,
        "n_rules": n_rules,
        "endpoints": outcomes,
    }


class ShardCluster:
    """N shard workers plus (in router mode) the front-end router."""

    def __init__(
        self,
        rulebook: str,
        n_shards: int,
        *,
        mode: str = "router",
        host: str = "127.0.0.1",
        port: int = 0,
        lb_policy: str = "round_robin",
        max_queue: int | None = None,
        max_batch: int | None = None,
        request_timeout_s: float | None = 30.0,
        name_prefix: str = "shard",
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if mode not in SHARD_MODES:
            raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
        if mode == "reuseport" and not hasattr(socket, "SO_REUSEPORT"):
            raise ValueError("SO_REUSEPORT is not available on this platform")
        self.rulebook = rulebook
        self.n_shards = n_shards
        self.mode = mode
        self.host = host
        self.requested_port = port
        self.lb_policy = lb_policy
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
        self._reuseport_port: int | None = None
        self._plane_lease: SegmentLease | None = None
        self._generation = 0

    def _publish_plane(self, rulebook: str) -> SegmentLease | None:
        """Compile *rulebook* once and publish it to shared memory.

        Runs in a thread (index compilation is CPU-bound).  Returns
        ``None`` when shared memory is unavailable — workers then fall
        back to compiling their own index from the rulebook path.
        """
        if not shm_available():
            return None
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
        try:
            self._plane_lease = await asyncio.to_thread(
                self._publish_plane, self.rulebook
            )
        except (OSError, ValueError, SegmentError) as exc:
            # a bad rulebook will be reported by the first worker; a shm
            # hiccup just means every worker compiles its own copy
            print(f"cluster: rule-plane publish skipped: {exc}", flush=True)
            self._plane_lease = None
        if self._plane_lease is not None:
            for worker in self.workers:
                worker.segment = self._plane_lease.name
        if self.mode == "reuseport":
            port = self.requested_port or _pick_free_port(self.host)
            for worker in self.workers:
                worker.requested_port = port
                worker.reuse_port = True
                worker.control = True
            self._reuseport_port = port
        spawned: list[ShardProcess] = []
        try:
            for worker in self.workers:
                await worker.spawn()
                spawned.append(worker)
            if self.mode == "router":
                handles = [
                    ShardHandle(
                        w.name, self.host, w.port, pid=w.pid  # type: ignore[arg-type]
                    )
                    for w in self.workers
                ]
                self.router = ShardRouter(
                    handles,
                    policy=self.lb_policy,
                    request_timeout_s=self.request_timeout_s,
                )
                await self.router.start(self.host, self.requested_port)
        except BaseException:
            for worker in spawned:
                worker.kill()
            for worker in spawned:
                try:
                    await worker.wait(5.0)
                except asyncio.TimeoutError:  # pragma: no cover
                    pass
            raise

    @property
    def port(self) -> int:
        """The public port clients connect to."""
        if self.mode == "reuseport":
            if self._reuseport_port is None:
                raise RuntimeError("cluster is not started")
            return self._reuseport_port
        if self.router is None:
            raise RuntimeError("cluster is not started")
        return self.router.port

    @property
    def control_ports(self) -> list[int]:
        """Per-worker control ports (reuseport mode only)."""
        return [w.control_port for w in self.workers if w.control_port]

    def describe(self) -> str:
        lines = [
            f"CLUSTER_READY mode={self.mode} host={self.host} "
            f"port={self.port} shards={self.n_shards}"
            + (f" lb_policy={self.lb_policy}" if self.mode == "router" else "")
        ]
        for worker in self.workers:
            line = f"  {worker.name} pid={worker.pid} port={worker.port}"
            if worker.control_port:
                line += f" control_port={worker.control_port}"
            lines.append(line)
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
        if self.mode == "router":
            ports = [self.port]
        else:
            ports = self.control_ports
        result = await broadcast_reload(
            self.host,
            ports,
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
    await cluster.start()
    print(cluster.describe(), flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
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
    parser.add_argument("--reuse-port", action="store_true")
    parser.add_argument(
        "--control-host",
        default=None,
        help="also open a control listener on this host (ephemeral port)",
    )
    parser.add_argument("--max-queue", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument(
        "--segment",
        default=None,
        help="shared-memory rule-plane segment to attach instead of "
        "compiling the rulebook (falls back to --rulebook)",
    )
    return parser


async def _run_worker(args: argparse.Namespace) -> None:
    kwargs: dict = {"name": args.name}
    if args.max_queue is not None:
        kwargs["max_queue"] = args.max_queue
    if args.max_batch is not None:
        kwargs["max_batch"] = args.max_batch
    service = None
    if args.segment and shm_available():
        try:
            index, plane_meta = attach_rule_plane(args.segment)
        except SegmentError as exc:
            print(
                f"shard {args.name}: segment {args.segment} not "
                f"attachable ({exc}); compiling from rulebook",
                flush=True,
            )
        else:
            service = RuleService(
                index,
                version_tag=plane_meta.get("version_tag"),
                **kwargs,
            )
    if service is None:
        book = RuleBook.load(args.rulebook)
        service = RuleService.from_rulebook(book, **kwargs)

    def on_ready(svc: RuleService) -> None:
        parts = [
            f"SHARD_READY name={svc.name}",
            f"pid={os.getpid()}",
            f"port={svc.port}",
        ]
        if args.control_host is not None:
            parts.append(f"control_port={svc.control_port}")
        print(" ".join(parts), flush=True)

    await service.serve_forever(
        args.host,
        args.port,
        reuse_port=args.reuse_port,
        control_host=args.control_host,
        on_ready=on_ready,
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
