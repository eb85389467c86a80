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

Nothing is imported until a name is first used (PEP 562). A serving
process loads the rulebook, index and service modules it runs, and
never the client (which pulls in the trace generators).
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".rulebook": ("RuleBook", "RuleBookSchemaError", "SCHEMA_VERSION"),
    ".batchmatch": ("BatchMaskKernel",),
    ".index": ("RuleIndex", "Match", "NearMiss"),
    ".service": ("RuleService", "ServiceMetrics"),
    ".client": (
        "RuleServiceClient", "ServiceError", "ReplayStats", "replay_traffic",
        "trace_transactions",
    ),
    ".router": ("ShardDown", "ShardHandle", "ShardRouter"),
    ".shard": ("ShardCluster", "ShardProcess", "broadcast_reload"),
}
#: public name → its module
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = importlib.import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value
