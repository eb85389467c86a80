"""Scalar serve oracle: the inverted-index countdown, one job at a time.

The service answers from a packed-bitmask kernel and pre-encoded
fragment bytes (``repro.serve.index``).  This module answers the same
questions the slow, obvious way, from the rules' item sets:

* a rule **fires** on a job when the job's items include its whole
  antecedent — counted down per rule over a postings map
  ``item → rules whose antecedent contains it``, a rule firing exactly
  when its hit counter reaches its antecedent size;
* ``consequent_observed`` says whether the job also includes the whole
  consequent;
* a **near miss** is a rule with two or more antecedent items whose
  counter stops exactly one short; the missing item is the one
  antecedent item the job lacks.

Fired rules and near misses are listed in rule-id order (the book's
lift ranking).  Answers are built as dicts and rendered with
``json.dumps``, so a served line can be compared with
:meth:`CountdownOracle.line` byte for byte.

Beside the oracle: :func:`serve_batch` answers requests as one
micro-batch of a service's batcher (no sockets), and
:func:`rules_over` / :data:`EXOTIC_ITEMS` build books whose item
renders ``json.dumps`` must escape.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Iterable

from repro.core.items import Item, ItemVocabulary
from repro.core.rules import AssociationRule
from repro.serve import Match, NearMiss, RuleIndex, RuleService

__all__ = ["CountdownOracle", "EXOTIC_ITEMS", "rules_over", "serve_batch"]

#: items whose renders ``json.dumps`` must escape: non-ASCII, quotes,
#: backslashes — multi-byte in UTF-8, so any byte/char confusion shows
EXOTIC_ITEMS = (
    Item("Größe", "groß ☃"),
    Item.flag("Fehlgeschlagen ✗"),
    Item('GPU "Typ"', "T4"),
    Item("Pfad", "C:\\jobs"),
    Item("名前", "値"),
    Item.flag("plain"),
    Item("Zeit", "0–5 min"),
)


class CountdownOracle:
    """Scalar twin of one :class:`~repro.serve.RuleIndex`."""

    def __init__(self, index: RuleIndex):
        table = index.table
        vocabulary = list(table.vocabulary)
        self.rules = index.rules
        self._spelling: dict[str, Item] = {}
        for item in vocabulary:
            self._spelling[str(item)] = item
            self._spelling[item.render()] = item
        self._known = set(vocabulary)
        self._postings: dict[Item, list[int]] = {}
        self._wire: list[dict] = []
        for rule_id, rule in enumerate(self.rules):
            for item in rule.antecedent:
                self._postings.setdefault(item, []).append(rule_id)
            self._wire.append(
                {
                    "rule_id": rule_id,
                    "antecedent": sorted(i.render() for i in rule.antecedent),
                    "consequent": sorted(i.render() for i in rule.consequent),
                    "support": float(table.support[rule_id]),
                    "confidence": float(table.confidence[rule_id]),
                    "lift": float(table.lift[rule_id]),
                }
            )

    def _items(self, transaction: Iterable[Item | str]) -> set[Item]:
        """The job's known items; unknown spellings drop."""
        items = set()
        for element in transaction:
            item = (
                element
                if isinstance(element, Item)
                else self._spelling.get(element) or Item.parse(element)
            )
            if item in self._known:
                items.add(item)
        return items

    def _count_hits(self, items: set[Item]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for item in items:
            for rule_id in self._postings.get(item, ()):
                counts[rule_id] = counts.get(rule_id, 0) + 1
        return counts

    def fired(self, transaction) -> list[tuple[int, bool]]:
        """``(rule_id, consequent_observed)`` per fired rule, ranked."""
        items = self._items(transaction)
        return [
            (rule_id, self.rules[rule_id].consequent <= items)
            for rule_id, hits in sorted(self._count_hits(items).items())
            if hits == len(self.rules[rule_id].antecedent)
        ]

    def match(self, transaction) -> list[Match]:
        """:class:`Match` objects, as ``RuleIndex.match``."""
        return [
            Match(
                rule=self.rules[entry["rule_id"]],
                rule_id=entry["rule_id"],
                consequent_observed=entry["consequent_observed"],
                _frag=json.dumps(entry).encode(),
            )
            for entry in self.fired_dicts(transaction)
        ]

    def match_wire(self, transaction) -> list[tuple[int, bytes]]:
        """``(rule_id, JSON fragment)`` pairs, as ``RuleIndex.match_wire``."""
        return [
            (entry["rule_id"], json.dumps(entry).encode())
            for entry in self.fired_dicts(transaction)
        ]

    def fired_dicts(self, transaction) -> list[dict]:
        """The ``fired`` array of a ``match_result``."""
        return [
            {**self._wire[rule_id], "consequent_observed": observed}
            for rule_id, observed in self.fired(transaction)
        ]

    def explain(self, transaction) -> list[NearMiss]:
        """Rules exactly one antecedent item short of firing, ranked."""
        items = self._items(transaction)
        near = []
        for rule_id, hits in sorted(self._count_hits(items).items()):
            rule = self.rules[rule_id]
            if len(rule.antecedent) >= 2 and hits == len(rule.antecedent) - 1:
                (missing,) = rule.antecedent - items
                near.append(NearMiss(rule=rule, rule_id=rule_id, missing=missing))
        return near

    def answer(self, request: dict, version: int) -> dict:
        """The ``match_result`` object a service must answer *request* with."""
        transaction = request["transaction"]
        response = {
            "type": "match_result",
            "id": request.get("id"),
            "version": version,
            "fired": self.fired_dicts(transaction),
        }
        if request.get("explain"):
            response["near_misses"] = [
                near.as_dict() for near in self.explain(transaction)
            ]
        return response

    def line(self, request: dict, version: int) -> bytes:
        """:meth:`answer` encoded as the protocol's response line."""
        return json.dumps(self.answer(request, version)).encode() + b"\n"


def rules_over(items, seed: int, n_rules: int) -> list[AssociationRule]:
    """Random well-formed rules over an explicit item list."""
    rng = random.Random(seed)
    vocabulary = ItemVocabulary(items)
    rules = []
    for _ in range(n_rules):
        size = rng.randint(2, min(5, len(items)))
        ids = rng.sample(range(len(items)), size)
        cut = rng.randint(1, size - 1)
        ant, cons = frozenset(ids[:cut]), frozenset(ids[cut:])
        rules.append(
            AssociationRule(
                antecedent=vocabulary.items_of(ant),
                consequent=vocabulary.items_of(cons),
                antecedent_ids=ant,
                consequent_ids=cons,
                support=rng.random(),
                confidence=rng.random(),
                lift=rng.random() * 10,
                leverage=rng.random() - 0.5,
                conviction=rng.random() * 5,
            )
        )
    return rules


def serve_batch(service: RuleService, requests: list[dict]) -> list[bytes]:
    """Answer *requests* as one micro-batch of *service*'s batcher."""

    async def scenario():
        loop = asyncio.get_running_loop()
        now = time.perf_counter()
        batch = [(r, now, loop.create_future()) for r in requests]
        await service._process_batch(batch)
        return [future.result() for _, _, future in batch]

    return asyncio.run(scenario())
