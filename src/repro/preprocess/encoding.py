"""Transactional (one-hot) encoding of a job table (Sec. III-E).

:class:`TransactionEncoder` turns a :class:`~repro.dataframe.ColumnTable`
into a :class:`~repro.core.transactions.TransactionDatabase`: every row
becomes one transaction whose items are feature/value pairs —
categorical values directly, continuous values through a fitted
:class:`~repro.preprocess.binning.Discretizer`, booleans as presence
flags.

The encoder is fit/transform-shaped so the same fitted bin edges can be
applied to a hold-out slice of the trace (used by the failure-prediction
takeaway experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..core.items import Item, ItemVocabulary
from ..core.transactions import TransactionDatabase
from ..dataframe import (
    BooleanColumn,
    CategoricalColumn,
    ColumnTable,
    NumericColumn,
)
from ..obs import kernel_timer
from .binning import BinningSpec, Discretizer

__all__ = ["FeatureSpec", "TransactionEncoder"]

_ABSENT = np.int32(np.iinfo(np.int32).max)


@dataclass(frozen=True, slots=True)
class FeatureSpec:
    """How one table column becomes items.

    ``kind="auto"`` resolves from the column type: numeric → binned,
    categorical → one item per value, boolean → flag.  ``item_feature``
    overrides the display name ("gpu_sm_util" column → "SM Util" items).

    ``kind="label"`` encodes a categorical column whose values are already
    self-describing item names — each value becomes a bare flag item
    ("Freq User", "Tensorflow"), matching how the paper renders such
    attributes in its rule tables.
    """

    column: str
    item_feature: str | None = None
    kind: Literal["auto", "numeric", "categorical", "flag", "label"] = "auto"
    binning: BinningSpec = field(default_factory=BinningSpec)
    #: for flags: item text used when the value is True (default: feature name)
    true_label: str | None = None

    @property
    def feature_name(self) -> str:
        return self.item_feature if self.item_feature is not None else self.column


def _ranges_increase(id_tables: list[np.ndarray]) -> bool:
    """Whether each table's ids all lie above every id of the tables before.

    ``_ABSENT`` entries (codes never seen in the data) are not ids.
    """
    top = -1
    for table in id_tables:
        table = table[table != _ABSENT]
        if table.size:
            if int(table.min()) <= top:
                return False
            top = int(table.max())
    return True


class TransactionEncoder:
    """Fit on a job table, transform rows into transactions.

    Without explicit *specs*, every column is encoded under its own name
    with default quartile binning.  Fitted discretisers are exposed via
    ``discretizers`` / :meth:`bin_ranges` so bin labels remain
    interpretable.
    """

    def __init__(self, specs: list[FeatureSpec] | None = None):
        self.specs = specs
        self.discretizers: dict[str, Discretizer] = {}
        self._resolved: list[tuple[FeatureSpec, str]] = []  # (spec, resolved kind)
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # -- fitting -----------------------------------------------------------------
    def fit(self, table: ColumnTable) -> "TransactionEncoder":
        specs = self.specs
        if specs is None:
            specs = [FeatureSpec(column=name) for name in table.column_names]
        self._resolved = []
        self.discretizers = {}
        seen_features: set[str] = set()
        for spec in specs:
            column = table[spec.column]
            kind = spec.kind
            if kind == "auto":
                if isinstance(column, NumericColumn):
                    kind = "numeric"
                elif isinstance(column, CategoricalColumn):
                    kind = "categorical"
                elif isinstance(column, BooleanColumn):
                    kind = "flag"
                else:  # pragma: no cover
                    raise TypeError(f"cannot auto-encode column {spec.column!r}")
            name = spec.feature_name
            if kind != "label":
                # label columns mint one flag item per value, so they may
                # repeat another spec's item; _assemble keeps one copy per
                # transaction
                if name in seen_features:
                    raise ValueError(f"duplicate item feature name {name!r}")
                seen_features.add(name)
            if kind == "numeric":
                if not isinstance(column, NumericColumn):
                    raise TypeError(f"column {spec.column!r} is not numeric")
                with kernel_timer("ingest-bin"):
                    self.discretizers[spec.column] = Discretizer(spec.binning).fit(
                        column.values
                    )
            self._resolved.append((spec, kind))
        self._fitted = True
        return self

    # -- transform ----------------------------------------------------------------
    def transform(
        self,
        table: ColumnTable,
        vocabulary: ItemVocabulary | None = None,
    ) -> TransactionDatabase:
        """Encode *table* rows into a transaction database.

        Missing values simply contribute no item — a job with no GPU
        telemetry still forms a transaction from its scheduler features.

        Continuous features go through the integer-coded fast path: the
        discretiser emits a bin-code array, codes map to vocab ids with
        one gather per feature, and the CSR arrays are written directly —
        no per-row Python.  Items are interned in the order DESIGN §9
        documents, which fixes the database fingerprint.
        """
        if not self._fitted:
            raise RuntimeError("TransactionEncoder.transform called before fit")
        vocab = vocabulary if vocabulary is not None else ItemVocabulary()
        n_rows = len(table)
        with kernel_timer("ingest-encode"):
            encoded = [
                self._encode_feature(spec, kind, table, vocab, n_rows)
                for spec, kind in self._resolved
            ]
            return self._assemble(encoded, n_rows, vocab)

    def _encode_feature(
        self,
        spec: FeatureSpec,
        kind: str,
        table: ColumnTable,
        vocab: ItemVocabulary,
        n_rows: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row item ids (``_ABSENT`` for none) contributed by one spec,
        and the spec's code → id table: every id the rows can hold."""
        column = table[spec.column]
        feature = spec.feature_name
        if kind in ("categorical", "label"):
            if not isinstance(column, CategoricalColumn):
                raise TypeError(f"column {spec.column!r} is not categorical")
            if kind == "categorical":
                items = [Item(feature, cat) for cat in column.categories]
            else:
                items = [Item.flag(cat) for cat in column.categories]
            code_to_id = np.asarray(
                [vocab.intern(item) for item in items], dtype=np.int32
            )
            codes = column.codes
        elif kind == "numeric":
            if not isinstance(column, NumericColumn):
                raise TypeError(f"column {spec.column!r} is not numeric")
            disc = self.discretizers[spec.column]
            codes = disc.transform_codes(column.values)
            code_labels = disc.code_labels()
            # intern in sorted-label order over the codes *present* in
            # the data (DESIGN §9); a bincount over the few codes finds
            # them in one linear pass, missing (-1) counted apart
            present_codes = np.flatnonzero(np.bincount(codes + 1)[1:])
            code_to_id = np.full(len(code_labels), _ABSENT, dtype=np.int32)
            for code in sorted(
                present_codes.tolist(), key=lambda c: code_labels[c]
            ):
                code_to_id[code] = vocab.intern(Item(feature, code_labels[code]))
        elif kind == "flag":
            if isinstance(column, BooleanColumn):
                truth = column.values
            elif isinstance(column, NumericColumn):
                truth = (column.values == 1.0) & ~np.isnan(column.values)
            else:
                raise TypeError(f"column {spec.column!r} cannot be a flag")
            label = spec.true_label if spec.true_label is not None else feature
            code_to_id = np.asarray([vocab.intern(Item.flag(label))], dtype=np.int32)
            ids = np.full(n_rows, _ABSENT, dtype=np.int32)
            ids[truth] = code_to_id[0]
            return ids, code_to_id
        else:  # pragma: no cover
            raise AssertionError(kind)
        # one gather: code -1 (missing) picks the _ABSENT appended last
        return np.append(code_to_id, _ABSENT)[codes], code_to_id

    @staticmethod
    def _assemble(
        encoded: list[tuple[np.ndarray, np.ndarray]],
        n_rows: int,
        vocab: ItemVocabulary,
    ) -> TransactionDatabase:
        """Stack per-feature ``(ids, code → id)`` pairs into a CSR database.

        Items are interned spec by spec (DESIGN §9), so each spec's ids
        usually lie above every earlier spec's: the ids of a row, read in
        spec order, are then strictly increasing already.  That is decided
        from the code → id tables, without a scan of the rows; only when
        the ranges overlap — a ``label`` value equal to another spec's
        item, or a caller-supplied vocabulary — are rows sorted, and an
        item two specs both produce for one row kept once, as in
        :meth:`TransactionDatabase.from_itemsets`.
        """
        if not encoded:
            return TransactionDatabase(
                vocab,
                np.zeros(n_rows + 1, dtype=np.int64),
                np.asarray([], dtype=np.int32),
            )
        # one row per feature, one column per transaction
        matrix = np.stack([ids for ids, _ in encoded])
        if _ranges_increase([code_to_id for _, code_to_id in encoded]):
            keep = matrix != _ABSENT
        else:
            matrix.sort(axis=0)
            keep = matrix != _ABSENT
            keep[1:] &= matrix[1:] != matrix[:-1]
        counts = keep.sum(axis=0)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # the transposed views walk transaction by transaction
        return TransactionDatabase(vocab, indptr, matrix.T[keep.T])

    def fit_transform(
        self, table: ColumnTable, vocabulary: ItemVocabulary | None = None
    ) -> TransactionDatabase:
        return self.fit(table).transform(table, vocabulary)

    # -- interpretability ----------------------------------------------------------
    def bin_ranges(self) -> dict[str, dict[str, tuple[float, float]]]:
        """column name → (bin label → numeric range) for every fitted feature."""
        return {
            column: disc.bin_ranges() for column, disc in self.discretizers.items()
        }
