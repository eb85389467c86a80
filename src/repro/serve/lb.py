"""Pluggable load-balancing policies for the shard router.

A policy answers one question — *which healthy shard takes this
request?* — from the live signals every
:class:`~repro.serve.router.ShardHandle` exposes: ``inflight`` (requests
forwarded but not yet answered) and ``ewma_latency_s`` (exponentially
weighted response latency).  Policies register in :data:`LB_POLICIES`,
so ``repro serve --lb-policy`` enumerates them and downstream code can
add its own (cost-weighted over heterogeneous workers, session-affine,
…) without touching the router.

All three built-ins are deterministic — no randomness — which keeps the
router property-testable: given the same shard states they pick the same
shard.

* ``round_robin`` — cycle through shards in order; ignores load.  The
  right default when shards are homogeneous replicas (they are: each
  holds the full RuleIndex).
* ``least_loaded`` — fewest in-flight requests wins, round-robin
  tie-break.  Routes around stalled or slow shards automatically,
  because a shard that stops answering accumulates in-flight count.
* ``latency_weighted`` — minimise ``ewma_latency × (inflight + 1)``,
  the expected wait on that shard; round-robin tie-break.  Prefers
  consistently fast shards even when queue depths match — the policy
  for heterogeneous hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import ShardHandle

__all__ = [
    "LBPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "LatencyWeightedPolicy",
    "LB_POLICIES",
    "register_policy",
    "get_policy",
]


class LBPolicy:
    """Base class: subclasses override :meth:`choose`."""

    name = "abstract"

    def choose(self, shards: Sequence["ShardHandle"]) -> "ShardHandle":
        """Pick one shard from a non-empty sequence of healthy shards."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinPolicy(LBPolicy):
    """Cycle through shards in order, skipping nothing."""

    name = "round_robin"

    def __init__(self) -> None:
        self._turn = 0

    def choose(self, shards: Sequence["ShardHandle"]) -> "ShardHandle":
        shard = shards[self._turn % len(shards)]
        self._turn += 1
        return shard


class LeastLoadedPolicy(LBPolicy):
    """Fewest in-flight requests wins; round-robin breaks ties.

    The tie-break matters: on an idle cluster every shard has zero
    in-flight, and always picking shard 0 would serialise light traffic
    onto one worker.
    """

    name = "least_loaded"

    def __init__(self) -> None:
        self._turn = 0

    def choose(self, shards: Sequence["ShardHandle"]) -> "ShardHandle":
        self._turn += 1
        offset = self._turn % len(shards)
        rotated = [shards[(offset + k) % len(shards)] for k in range(len(shards))]
        return min(rotated, key=lambda s: s.inflight)


class LatencyWeightedPolicy(LBPolicy):
    """Minimise expected wait: EWMA latency × (in-flight + 1).

    A shard that has never answered (EWMA 0) scores 0 and is tried
    first, which doubles as warm-up probing of fresh shards.
    """

    name = "latency_weighted"

    def __init__(self) -> None:
        self._turn = 0

    def choose(self, shards: Sequence["ShardHandle"]) -> "ShardHandle":
        self._turn += 1
        offset = self._turn % len(shards)
        rotated = [shards[(offset + k) % len(shards)] for k in range(len(shards))]
        return min(
            rotated, key=lambda s: s.ewma_latency_s * (s.inflight + 1)
        )


#: registry of LB policy factories, keyed by CLI-facing name
LB_POLICIES: dict[str, Callable[[], LBPolicy]] = {}


def register_policy(name: str, factory: Callable[[], LBPolicy]) -> None:
    """Register a policy factory under *name* (overwrites)."""
    LB_POLICIES[name] = factory


def get_policy(policy: "str | LBPolicy") -> LBPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, LBPolicy):
        return policy
    try:
        factory = LB_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown LB policy {policy!r}; have {sorted(LB_POLICIES)}"
        ) from None
    return factory()


register_policy(RoundRobinPolicy.name, RoundRobinPolicy)
register_policy(LeastLoadedPolicy.name, LeastLoadedPolicy)
register_policy(LatencyWeightedPolicy.name, LatencyWeightedPolicy)
