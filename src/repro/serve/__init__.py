"""Online rule serving: persist mined rules, match live jobs against them.

The offline pipeline (``repro.analysis``) ends at a pruned rule set; this
package is what turns that artefact into an operator-facing capability:

* :mod:`repro.serve.rulebook` — :class:`RuleBook`, the versioned
  JSON-lines persistence format (rules + provenance), so mined rules
  outlive the mining process;
* :mod:`repro.serve.index` — :class:`RuleIndex`, the compiled book:
  a memoised item canonicaliser, the batch kernel, and a flat table of
  pre-encoded answer fragments, answering every request — plain,
  ``explain`` or singleton — through one batch path (``wire_batch``);
* :mod:`repro.serve.batchmatch` — :class:`BatchMaskKernel`, the packed
  uint64 bitmask matrices the index compiles per hot-swap so whole
  micro-batches resolve in a few NumPy passes;
* :mod:`repro.serve.service` — :class:`RuleService`, an asyncio TCP
  service (newline-delimited JSON) with micro-batching, bounded-queue
  backpressure, zero-downtime rulebook hot-swap and graceful drain;
* :mod:`repro.serve.router` / :mod:`repro.serve.shard` — horizontal
  scale-out: N shard worker processes behind one front-end router that
  sends each match to the healthy shard with the fewest requests in
  flight, with rolling cluster-wide hot-swap;
* :mod:`repro.serve.client` — :class:`RuleServiceClient` (with built-in
  backpressure backoff) plus the trace-replay load generator used by
  ``benchmarks/bench_serve_throughput``.

CLI entry points: ``repro mine-rulebook``, ``repro serve`` (optionally
``--shards N``), ``repro reload-rulebook``, ``repro match`` (see
DESIGN.md §7 and §11).
"""

from .batchmatch import BatchMaskKernel
from .client import (
    ReplayStats,
    RuleServiceClient,
    ServiceError,
    replay_traffic,
    trace_transactions,
)
from .index import Match, NearMiss, RuleIndex
from .router import ShardDown, ShardHandle, ShardRouter
from .rulebook import SCHEMA_VERSION, RuleBook, RuleBookSchemaError
from .service import RuleService, ServiceMetrics
from .shard import ShardCluster, ShardProcess, broadcast_reload

__all__ = [
    "RuleBook",
    "RuleBookSchemaError",
    "SCHEMA_VERSION",
    "BatchMaskKernel",
    "RuleIndex",
    "Match",
    "NearMiss",
    "RuleService",
    "ServiceMetrics",
    "RuleServiceClient",
    "ServiceError",
    "ReplayStats",
    "replay_traffic",
    "trace_transactions",
    "ShardDown",
    "ShardHandle",
    "ShardRouter",
    "ShardCluster",
    "ShardProcess",
    "broadcast_reload",
]
