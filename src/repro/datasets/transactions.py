"""Immutable transaction database with fast counting kernels.

A :class:`TransactionDatabase` holds ``N`` transactions over an item
vocabulary ``I = {0, …, num_items − 1}`` (paper Section 2.2).  Items are
small integers internally; an optional ``item_labels`` sequence maps
them back to external names (e.g. FIMI item ids or AOL keywords).

Two complementary representations are kept:

* **horizontal** — each transaction as a sorted ``numpy`` int array,
  used for streaming scans (BasisFreq bin counting);
* **vertical** — a CSR-style inverted index mapping each item to its
  *tid-list* (sorted array of transaction indices), built lazily in one
  vectorized pass and used for support counting via intersection and
  for the scatter-add bin kernel.

The class is deliberately immutable: every mining and privacy component
treats the database as a read-only value, which makes the DP accounting
auditable (the only data accesses are through these query methods).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

Itemset = Tuple[int, ...]


def canonical_itemset(items: Iterable[int]) -> Itemset:
    """Return ``items`` as a sorted, duplicate-free tuple of ints."""
    return tuple(sorted({int(item) for item in items}))


def _merge_csr(
    tids_a: np.ndarray,
    offsets_a: np.ndarray,
    tids_b: np.ndarray,
    offsets_b: np.ndarray,
    tid_offset_b: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two CSR inverted indexes over the same item vocabulary.

    ``b``'s tids are shifted by ``tid_offset_b`` (the number of
    transactions in ``a``), so per-item concatenation ``a ⧺ b`` stays
    sorted without any comparison work.  Both inputs are scattered into
    one flat array in O(total) with no Python-level per-item loop.
    """
    counts_a = np.diff(offsets_a)
    counts_b = np.diff(offsets_b)
    offsets = np.zeros_like(offsets_a)
    np.cumsum(counts_a + counts_b, out=offsets[1:])
    merged = np.empty(tids_a.size + tids_b.size, dtype=np.int64)
    within_a = np.arange(tids_a.size, dtype=np.int64) - np.repeat(
        offsets_a[:-1], counts_a
    )
    merged[np.repeat(offsets[:-1], counts_a) + within_a] = tids_a
    within_b = np.arange(tids_b.size, dtype=np.int64) - np.repeat(
        offsets_b[:-1], counts_b
    )
    merged[np.repeat(offsets[:-1] + counts_a, counts_b) + within_b] = (
        tids_b + tid_offset_b
    )
    return merged, offsets


class TransactionDatabase:
    """An immutable set-valued dataset ``D = [t_1, …, t_N]``, ``t_i ⊆ I``.

    Parameters
    ----------
    transactions:
        Iterable of transactions; each transaction is an iterable of
        non-negative integer item ids.  Duplicates within a transaction
        are collapsed (transactions are sets).
    num_items:
        Size of the item vocabulary ``|I|``.  Defaults to
        ``max(item) + 1`` over all transactions; pass it explicitly when
        the vocabulary is larger than what is observed (the paper's
        AOL setting, where ``I`` is public knowledge).
    item_labels:
        Optional external names, ``len(item_labels) == num_items``.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        num_items: Optional[int] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> None:
        rows: List[np.ndarray] = []
        max_item = -1
        for transaction in transactions:
            row = np.array(sorted({int(item) for item in transaction}),
                           dtype=np.int64)
            if row.size and row[0] < 0:
                raise ValidationError(
                    f"item ids must be non-negative, got {row[0]}"
                )
            if row.size:
                max_item = max(max_item, int(row[-1]))
            rows.append(row)
        self._init_from_rows(rows, max_item, num_items, item_labels)

    def _init_from_rows(
        self,
        rows: List[np.ndarray],
        max_item: int,
        num_items: Optional[int],
        item_labels: Optional[Sequence[str]],
    ) -> None:
        if num_items is None:
            num_items = max_item + 1
        elif num_items <= max_item:
            raise ValidationError(
                f"num_items={num_items} is smaller than the largest "
                f"observed item id {max_item}"
            )
        if item_labels is not None and len(item_labels) != num_items:
            raise ValidationError(
                f"item_labels has {len(item_labels)} entries but "
                f"num_items={num_items}"
            )
        self._rows: Tuple[np.ndarray, ...] = tuple(rows)
        self._num_items = int(num_items)
        self._item_labels = tuple(item_labels) if item_labels else None
        # Lazy vertical index (CSR layout over items).
        self._index_tids: Optional[np.ndarray] = None
        self._index_offsets: Optional[np.ndarray] = None
        self._item_support_cache: Optional[np.ndarray] = None

    @classmethod
    def from_sorted_rows(
        cls,
        rows: Sequence[np.ndarray],
        num_items: int,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "TransactionDatabase":
        """Fast construction path for trusted callers (generators).

        ``rows`` must already be sorted, duplicate-free int64 arrays
        with items in ``[0, num_items)``.  Only cheap spot checks are
        performed; use the regular constructor for untrusted data.
        """
        rows = [np.asarray(row, dtype=np.int64) for row in rows]
        for row in rows[: min(len(rows), 8)]:
            if row.size and (
                row[0] < 0
                or row[-1] >= num_items
                or np.any(np.diff(row) <= 0)
            ):
                raise ValidationError(
                    "from_sorted_rows requires sorted unique in-range rows"
                )
        database = cls.__new__(cls)
        database._init_from_rows(list(rows), num_items - 1, num_items,
                                 item_labels)
        return database

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_transactions(self) -> int:
        """``N``, the number of transactions."""
        return len(self._rows)

    @property
    def num_items(self) -> int:
        """``|I|``, the vocabulary size."""
        return self._num_items

    @property
    def item_labels(self) -> Optional[Tuple[str, ...]]:
        """External item names, if any were supplied."""
        return self._item_labels

    @property
    def total_size(self) -> int:
        """Sum of transaction lengths (the paper's ``|D|``)."""
        return int(sum(row.size for row in self._rows))

    @property
    def avg_transaction_length(self) -> float:
        """Average ``|t|`` (Table 2(a)'s ``avg |t|`` column)."""
        if not self._rows:
            return 0.0
        return self.total_size / self.num_transactions

    def __len__(self) -> int:
        return self.num_transactions

    def __iter__(self) -> Iterator[Itemset]:
        for row in self._rows:
            yield tuple(int(item) for item in row)

    def transaction(self, index: int) -> Itemset:
        """The ``index``-th transaction as a sorted tuple of items."""
        return tuple(int(item) for item in self._rows[index])

    def transaction_array(self, index: int) -> np.ndarray:
        """The ``index``-th transaction as a read-only sorted array."""
        return self._rows[index]

    @property
    def rows(self) -> Tuple[np.ndarray, ...]:
        """All transactions as a tuple of sorted row arrays.

        This is the horizontal CSR-of-rows representation itself —
        shared, never copied — so bulk consumers (shard construction,
        segment spilling) can slice it directly instead of
        looping :meth:`transaction_array` per transaction.  Treat the
        arrays as read-only; mutating them breaks immutability.
        """
        return self._rows

    def slice(self, start: int, stop: int) -> "TransactionDatabase":
        """A database over transactions ``[start, stop)``, rows shared.

        The shard-construction fast path: one tuple slice of the
        horizontal representation, no per-transaction Python loop and
        no row copies or revalidation (the rows are already canonical).
        Vocabulary and labels carry over unchanged.
        """
        sliced = TransactionDatabase.__new__(TransactionDatabase)
        sliced._init_from_rows(
            list(self._rows[start:stop]),
            self._num_items - 1,
            self._num_items,
            self._item_labels,
        )
        return sliced

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(N={self.num_transactions}, "
            f"|I|={self.num_items}, "
            f"avg|t|={self.avg_transaction_length:.2f})"
        )

    # ------------------------------------------------------------------
    # Vertical representation
    # ------------------------------------------------------------------
    def _ensure_inverted_index(self) -> None:
        """Build the CSR inverted index in one vectorized pass."""
        if self._index_offsets is not None:
            return
        lengths = np.array([row.size for row in self._rows], dtype=np.int64)
        if lengths.sum() == 0:
            self._index_tids = np.empty(0, dtype=np.int64)
            self._index_offsets = np.zeros(
                self._num_items + 1, dtype=np.int64
            )
            return
        flat_items = (
            np.concatenate([row for row in self._rows if row.size])
            if len(self._rows)
            else np.empty(0, dtype=np.int64)
        )
        flat_tids = np.repeat(
            np.arange(len(self._rows), dtype=np.int64), lengths
        )
        order = np.argsort(flat_items, kind="stable")
        sorted_items = flat_items[order]
        self._index_tids = flat_tids[order]
        self._index_offsets = np.searchsorted(
            sorted_items, np.arange(self._num_items + 1, dtype=np.int64)
        )

    def tidlist(self, item: int) -> np.ndarray:
        """Sorted array of transaction indices containing ``item``."""
        item = int(item)
        if not 0 <= item < self._num_items:
            raise ValidationError(
                f"item {item} outside vocabulary [0, {self._num_items})"
            )
        self._ensure_inverted_index()
        start = self._index_offsets[item]
        stop = self._index_offsets[item + 1]
        return self._index_tids[start:stop]

    def item_supports(self) -> np.ndarray:
        """Support count of every single item, shape ``(num_items,)``."""
        if self._item_support_cache is None:
            if self._rows:
                flat = [row for row in self._rows if row.size]
                if flat:
                    counts = np.bincount(
                        np.concatenate(flat), minlength=self._num_items
                    ).astype(np.int64)
                else:
                    counts = np.zeros(self._num_items, dtype=np.int64)
            else:
                counts = np.zeros(self._num_items, dtype=np.int64)
            self._item_support_cache = counts
        return self._item_support_cache.copy()

    def item_frequencies(self) -> np.ndarray:
        """Frequency (support / N) of every single item."""
        if self.num_transactions == 0:
            return np.zeros(self._num_items, dtype=float)
        return self.item_supports() / float(self.num_transactions)

    # ------------------------------------------------------------------
    # Itemset queries
    # ------------------------------------------------------------------
    def support(self, itemset: Iterable[int]) -> int:
        """Support count of ``itemset`` (number of supersets in D)."""
        items = canonical_itemset(itemset)
        if not items:
            return self.num_transactions
        return int(self.covering_tids(items).size)

    def frequency(self, itemset: Iterable[int]) -> float:
        """Frequency ``f(X) = support(X) / N`` (paper Section 2.2)."""
        if self.num_transactions == 0:
            return 0.0
        return self.support(itemset) / float(self.num_transactions)

    def supports(self, itemsets: Sequence[Iterable[int]]) -> List[int]:
        """Support counts for many itemsets (convenience wrapper)."""
        return [self.support(itemset) for itemset in itemsets]

    def covering_tids(self, itemset: Iterable[int]) -> np.ndarray:
        """Sorted tids of transactions containing ``itemset``."""
        items = canonical_itemset(itemset)
        if not items:
            return np.arange(self.num_transactions, dtype=np.int64)
        lists = sorted(
            (self.tidlist(item) for item in items), key=lambda a: a.size
        )
        current = lists[0]
        for other in lists[1:]:
            if current.size == 0:
                break
            current = np.intersect1d(current, other, assume_unique=True)
        return current

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def extended(self, delta: "TransactionDatabase") -> "TransactionDatabase":
        """Copy-on-write concatenation ``self ⧺ delta``.

        Returns a *new* database whose transactions are this database's
        followed by ``delta``'s; both inputs are left untouched (the
        immutability contract holds — streaming callers advance by
        replacing their reference).  Row arrays are shared, never
        copied, and warm derived state carries over instead of being
        rebuilt from scratch:

        * the item-support cache, when built, is extended by adding
          ``delta``'s supports;
        * the CSR inverted index, when built, is merged with
          ``delta``'s in one vectorized scatter pass — per-item
          tid-lists stay sorted because every appended tid exceeds
          every existing tid.

        This is the substrate beneath
        :class:`repro.datasets.stream.TransactionLog` snapshots and
        the incremental ``extend`` path of the counting backends.
        """
        if delta.num_items != self._num_items:
            raise ValidationError(
                f"cannot extend a database over {self._num_items} items "
                f"with a delta over {delta.num_items} items"
            )
        combined = TransactionDatabase.__new__(TransactionDatabase)
        combined._init_from_rows(
            list(self._rows) + list(delta._rows),
            self._num_items - 1,
            self._num_items,
            self._item_labels,
        )
        if self._item_support_cache is not None:
            combined._item_support_cache = (
                self._item_support_cache + delta.item_supports()
            )
        if self._index_offsets is not None:
            delta._ensure_inverted_index()
            combined._index_tids, combined._index_offsets = _merge_csr(
                self._index_tids,
                self._index_offsets,
                delta._index_tids,
                delta._index_offsets,
                self.num_transactions,
            )
        return combined

    def project(self, items: Iterable[int]) -> "TransactionDatabase":
        """Project every transaction onto ``items`` (paper Section 4.1).

        Keeps all ``N`` transactions (some possibly empty) and the full
        vocabulary, so frequencies remain comparable.
        """
        keep = np.zeros(self._num_items, dtype=bool)
        for item in canonical_itemset(items):
            if not 0 <= item < self._num_items:
                raise ValidationError(
                    f"item {item} outside vocabulary [0, {self._num_items})"
                )
            keep[item] = True
        projected = [row[keep[row]] for row in self._rows]
        return TransactionDatabase.from_sorted_rows(
            projected, self._num_items, self._item_labels
        )

    def relabel(self, item_labels: Sequence[str]) -> "TransactionDatabase":
        """Return a copy with new external item labels."""
        return TransactionDatabase.from_sorted_rows(
            list(self._rows), self._num_items, item_labels
        )

    @classmethod
    def from_labeled_transactions(
        cls, transactions: Iterable[Iterable[str]]
    ) -> "TransactionDatabase":
        """Build a database from transactions of arbitrary string labels.

        Labels are interned to dense int ids in first-seen order and
        preserved in :attr:`item_labels`.
        """
        label_to_id: dict = {}
        rows: List[List[int]] = []
        for transaction in transactions:
            row = []
            for label in transaction:
                identifier = label_to_id.setdefault(
                    str(label), len(label_to_id)
                )
                row.append(identifier)
            rows.append(row)
        labels = [""] * len(label_to_id)
        for label, identifier in label_to_id.items():
            labels[identifier] = label
        return cls(
            rows,
            num_items=len(labels) or None,
            item_labels=labels or None,
        )
