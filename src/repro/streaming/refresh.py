"""Drift-gated rulebook refresh — the streaming control loop.

The serving fleet holds a :class:`~repro.serve.rulebook.RuleBook` mined
from some past window.  As the stream advances, two questions recur:

1. *Are the book's rules still true?*  Answered incrementally: the
   book's antecedent/consequent/union itemsets are registered as the
   window's tracked set (:meth:`StreamingBitmapWindow.set_tracked`), so
   their supports are maintained by popcount deltas and a tick re-scores
   the whole book via :meth:`MiningEngine.recount_rules` without mining.
2. *Has the distribution shifted enough that new rules exist?*  Only
   then is a full remine worth its cost.  The gate compares the
   recounted book against itself after re-applying the mining thresholds
   (rules that died — a vectorised mask, since the recount is row-aligned
   with the book) and the window's frequent-item set against the
   baseline captured at the last remine (items that appeared/disappeared
   in the support distribution).  The full item-keyed diff
   (:mod:`repro.analysis.drift`) is attached only to remine ticks, where
   "what changed" is the report worth paying for.  When either fraction
   crosses ``threshold`` — or the caller forces it — the engine remines
   the window snapshot and a new versioned RuleBook is produced with
   stream provenance (window bounds, ``n_seen``, trigger reason) in its
   header, then the tracked set is *rebased* onto the new book.

A ``threshold`` of ``0.0`` remines on every tick (the deterministic knob
the CI smoke uses); ``1.1`` never remines short of ``force=True``.
Each tick reports an :class:`~repro.obs.EngineStats` with
``stream-recount`` / ``stream-drift`` / ``stream-remine`` stages and
their kernel attribution, the same schema the batch pipeline emits, so
CLI ``--profile`` renders streaming ticks with the familiar footer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.drift import RuleDrift, diff_rules
from ..core.mining import MiningConfig, keyword_rule_set
from ..core.ruletable import RuleTable
from ..core.transactions import min_support_count
from ..engine import MiningEngine
from ..obs import EngineStats, stage
from ..serve.rulebook import RuleBook
from .bitwindow import StreamingBitmapWindow

__all__ = ["TrackedRules", "TickResult", "RuleBookRefresher"]


class TrackedRules:
    """A rulebook's itemsets, indexed into a window's tracked set.

    Maps every rule of *table* to three slots of the window's tracked
    support vector — antecedent, consequent and union — deduplicating
    shared itemsets (rule sets over the same keyword share most of
    them).  The gather indices are what
    :meth:`MiningEngine.recount_rules` uses to re-score the book from
    one ``tracked_counts()`` read.
    """

    __slots__ = ("table", "ant_idx", "cons_idx", "union_idx", "n_itemsets")

    def __init__(
        self,
        table: RuleTable,
        ant_idx: np.ndarray,
        cons_idx: np.ndarray,
        union_idx: np.ndarray,
        n_itemsets: int,
    ):
        self.table = table
        self.ant_idx = ant_idx
        self.cons_idx = cons_idx
        self.union_idx = union_idx
        self.n_itemsets = n_itemsets

    @classmethod
    def from_table(
        cls, table: RuleTable, window: StreamingBitmapWindow
    ) -> "TrackedRules":
        """Register *table*'s itemsets as *window*'s tracked set.

        Book ids are translated into the window's id-space by interning
        the book's items (growing the window vocabulary if the book
        mentions items the stream has not produced yet — their support
        is simply 0 until they arrive).  This is the rebase operation:
        it triggers the window's one full recount (``stream-track``).
        """
        book_vocab = table.vocabulary
        mapping = np.fromiter(
            (window.vocabulary.intern(item) for item in book_vocab),
            dtype=np.int64,
            count=len(book_vocab),
        )
        index: dict[tuple[int, ...], int] = {}
        itemsets: list[tuple[int, ...]] = []

        def slot(ids: tuple[int, ...]) -> int:
            found = index.get(ids)
            if found is None:
                found = len(itemsets)
                index[ids] = found
                itemsets.append(ids)
            return found

        n = len(table)
        ant_idx = np.empty(n, dtype=np.int64)
        cons_idx = np.empty(n, dtype=np.int64)
        union_idx = np.empty(n, dtype=np.int64)
        for i in range(n):
            ant = tuple(sorted(int(mapping[x]) for x in table.ant_row(i)))
            cons = tuple(sorted(int(mapping[x]) for x in table.cons_row(i)))
            union = tuple(sorted(set(ant) | set(cons)))
            ant_idx[i] = slot(ant)
            cons_idx[i] = slot(cons)
            union_idx[i] = slot(union)
        window.set_tracked(itemsets)
        return cls(table, ant_idx, cons_idx, union_idx, len(itemsets))

    def __repr__(self) -> str:
        return (
            f"TrackedRules(n_rules={len(self.table)}, "
            f"n_itemsets={self.n_itemsets})"
        )


@dataclass(frozen=True, slots=True)
class TickResult:
    """What one refresh tick observed and decided."""

    remined: bool
    trigger: str | None
    drift_score: float
    rule_frac: float
    item_frac: float
    #: full item-keyed diff of the outgoing book vs what survived the
    #: recount — only computed on remine ticks, where "what changed" is
    #: the report that matters; hold ticks carry the fractions alone
    #: (the gate is vectorised and never builds per-rule objects)
    drift: RuleDrift | None
    recounted: RuleTable
    book: RuleBook
    version: int
    stats: EngineStats

    def __str__(self) -> str:
        action = f"remine ({self.trigger})" if self.remined else "hold"
        return (
            f"tick: drift={self.drift_score:.3f} "
            f"(rules={self.rule_frac:.3f}, items={self.item_frac:.3f}) "
            f"→ {action}, book v{self.version} ({len(self.book)} rules)"
        )


class RuleBookRefresher:
    """Keep a RuleBook honest against a streaming window.

    Parameters
    ----------
    window:
        The delta-maintained :class:`StreamingBitmapWindow` the stream
        feeds.  Construction rebases the book's itemsets onto it.
    book:
        The currently-served RuleBook.  Its ``keywords`` and ``config``
        drive remines, so a remined book answers the same study the
        original did.
    threshold:
        Drift fraction at which a tick escalates to a full remine;
        ``0.0`` remines every tick, values above 1 only on ``force``.
    """

    __slots__ = (
        "window",
        "book",
        "engine",
        "threshold",
        "config",
        "keywords",
        "version",
        "n_ticks",
        "n_remines",
        "tracked",
        "_baseline_frequent",
    )

    def __init__(
        self,
        window: StreamingBitmapWindow,
        book: RuleBook,
        *,
        engine: MiningEngine | None = None,
        threshold: float = 0.05,
    ):
        if threshold < 0.0:
            raise ValueError("threshold must be >= 0")
        self.window = window
        self.book = book
        self.engine = engine if engine is not None else MiningEngine()
        self.threshold = threshold
        self.config = book.config if book.config is not None else MiningConfig()
        self.keywords = dict(book.keywords)
        self.version = 0
        self.n_ticks = 0
        self.n_remines = 0
        self._rebase()

    @classmethod
    def bootstrap(
        cls,
        window: StreamingBitmapWindow,
        keywords: dict[str, str],
        config: MiningConfig = MiningConfig(),
        *,
        engine: MiningEngine | None = None,
        threshold: float = 0.05,
        trace: str | None = None,
    ) -> "RuleBookRefresher":
        """Mine the window's current content into an initial book.

        For follow mode started without a pre-mined rulebook: observe a
        warm-up slice of the stream, then bootstrap — the forced first
        remine stamps version 1 with ``trigger="bootstrap"``.
        """
        seed = RuleBook(keywords=keywords, config=config, trace=trace)
        refresher = cls(window, seed, engine=engine, threshold=threshold)
        refresher.tick(force=True, trigger="bootstrap")
        return refresher

    # -- the tick ---------------------------------------------------------------
    def _rebase(self) -> None:
        """Re-anchor tracked itemsets and the drift baseline on the book."""
        self.tracked = TrackedRules.from_table(self.book.table, self.window)
        self._baseline_frequent = self._frequent_items()

    def _frequent_items(self) -> frozenset[int]:
        """Window ids whose support clears the mining floor right now."""
        n = len(self.window)
        if n == 0:
            return frozenset()
        floor = min_support_count(n, self.config.min_support)
        counts = self.window.item_support_counts()
        return frozenset(int(i) for i in np.flatnonzero(counts >= floor))

    def tick(self, force: bool = False, trigger: str | None = None) -> TickResult:
        """Recount the book, measure drift, remine if the gate opens.

        Raises :class:`ValueError` on an empty window — there is nothing
        to recount and "the book drifted from no data" is meaningless.
        """
        n = len(self.window)
        if n == 0:
            raise ValueError("cannot tick over an empty window")
        self.n_ticks += 1
        stats = EngineStats()

        with stage(stats, "stream-recount", len(self.book.table)) as s:
            recounted = self.engine.recount_rules(self.window, self.tracked)
            s.n_out = len(recounted)

        with stage(stats, "stream-drift", len(recounted)) as s:
            # recounted is row-aligned with the (deduped) book table, so
            # "rules that died" is a threshold mask, not a keyed diff —
            # the gate itself never materialises per-rule objects
            surviving_mask = (
                (recounted.support >= self.config.min_support)
                & (recounted.confidence >= self.config.min_confidence)
                & (recounted.lift >= self.config.min_lift)
            )
            n_surviving = s.n_out = int(surviving_mask.sum())
            rule_frac = (len(self.book.table) - n_surviving) / max(
                1, len(self.book.table)
            )
            current_frequent = self._frequent_items()
            item_frac = len(current_frequent ^ self._baseline_frequent) / max(
                1, len(self._baseline_frequent)
            )
            drift_score = max(rule_frac, item_frac)

        if force:
            reason = trigger if trigger is not None else "forced"
        elif drift_score >= self.threshold:
            reason = "drift"
        else:
            reason = None
        drift = None
        if reason is not None:
            drift = diff_rules(
                self.book.table,
                recounted.select(np.flatnonzero(surviving_mask)),
            )
            self._remine(stats, reason)
        return TickResult(
            remined=reason is not None,
            trigger=reason,
            drift_score=drift_score,
            rule_frac=rule_frac,
            item_frac=item_frac,
            drift=drift,
            recounted=recounted,
            book=self.book,
            version=self.version,
            stats=stats,
        )

    def remine_now(self) -> TickResult:
        """Force a full remine regardless of the drift gate."""
        return self.tick(force=True)

    def _remine(self, stats: EngineStats, trigger: str) -> None:
        """Full engine pass over the window → new versioned RuleBook."""
        with stage(stats, "stream-remine", len(self.window)) as s:
            db = self.window.snapshot()
            itemsets = self.engine.mine(db, self.config)
            kept: list[RuleTable] = []
            for keyword in self.keywords.values():
                ruleset = keyword_rule_set(itemsets, keyword, self.config)
                if ruleset.table is not None and len(ruleset.table):
                    kept.append(ruleset.table)
            table = (
                RuleTable.concat(kept).dedup()
                if kept
                else RuleTable.empty(db.vocabulary)
            )
            first, last = self.window.window_bounds()
            self.version += 1
            self.n_remines += 1
            self.book = RuleBook(
                table=table,
                trace=self.book.trace,
                keywords=self.keywords,
                config=self.config,
                fingerprint=db.fingerprint(),
                backend="serial",
                n_transactions=len(db),
                stream={
                    "window": [int(first), int(last)],
                    "n_seen": int(self.window.n_seen),
                    "n_window": len(db),
                    "version": self.version,
                    "trigger": trigger,
                },
            )
            s.n_out = len(self.book)
        self._rebase()

    def __repr__(self) -> str:
        return (
            f"RuleBookRefresher(v{self.version}, ticks={self.n_ticks}, "
            f"remines={self.n_remines}, threshold={self.threshold}, "
            f"book={len(self.book)} rules)"
        )
