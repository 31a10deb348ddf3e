"""Sharded counting with bounded per-shard memory.

:class:`ShardedBackend` partitions the ``N`` transactions into
fixed-size contiguous shards, materializes each shard as its own
:class:`~repro.datasets.transactions.TransactionDatabase` (sharing the
row arrays — no transaction data is copied), and answers every
counting primitive by running the ordinary kernels per shard in a
thread pool and merging:

* item-support vectors and bin histograms add elementwise (the bins of
  a basis partition each shard exactly as they partition ``D``);
* pairwise/conjunction supports add as scalars per key.

Counts are additive over any partition of the transactions, so the
merged answers equal the single-scan answers exactly — the
equivalence test-suite pins this against both
:class:`~repro.engine.bitmap.BitmapBackend` and the naive oracle.

The numpy kernels release the GIL in their hot loops, but the
Python-level per-shard work (bitmap row packing, dict merges)
serializes on it, which caps the speedup well below the core count.
Per-query working memory is one shard's scratch per worker instead of
one full-database scratch, which is what makes long bases feasible on
large ``N``.

**Out-of-core (mmap) plane.**  Instead of an in-memory database, the
backend can be built over a :class:`~repro.engine.mmap.MmapShardStore`
(``ShardedBackend.from_store`` or the ``store=`` kwarg): shards then
live in memory-mapped segment files under the state dir, fetched
through the store's budget-bounded LRU cache.  Counts are
bit-identical to the in-memory plane (same kernels, same additive
merges, exact integers); only residency changes.  The full
:attr:`database` is materialized lazily as mapped views and only if
something asks for it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.engine.backend import CountingBackend
from repro.errors import ValidationError
from repro.fim.counting import ItemBitmaps, bin_counts_for_items

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.engine.mmap import MmapShardStore

__all__ = ["ShardedBackend", "DEFAULT_SHARD_SIZE"]

#: Default transactions per shard — large enough that the per-shard
#: numpy kernels amortize Python dispatch, small enough that a worker's
#: scratch stays in cache-friendly territory.
DEFAULT_SHARD_SIZE = 65_536

_T = TypeVar("_T")


def _shard_extension_supports(
    shard: TransactionDatabase,
    base: Sequence[int],
    candidates: Sequence[int],
) -> np.ndarray:
    """Supports of ``base ∧ {c}`` for every candidate, one shard.

    One vectorized AND+popcount sweep over a bitmap pool covering the
    base and the candidates — the same kernel the exact top-k miner
    uses per heap pop.
    """
    pool = sorted(set(base) | set(candidates))
    bitmaps = ItemBitmaps(shard, pool)
    base_row = bitmaps.conjunction_row(sorted(set(base)))
    return bitmaps.extension_supports(base_row, candidates)


class ShardedBackend(CountingBackend):
    """Partitioned counting over fixed-size transaction shards.

    Parameters
    ----------
    database:
        The transactions to count over.
    shard_size:
        Transactions per shard (the last shard may be smaller).
    max_workers:
        Thread-pool width; defaults to ``min(num_shards, cpu_count)``.
        ``1`` degenerates to a sequential scan (useful for debugging).
    store:
        An :class:`~repro.engine.mmap.MmapShardStore` to count over
        instead of ``database`` (the out-of-core plane; its segments
        are the shards).
    """

    def __init__(
        self,
        database: Optional[TransactionDatabase] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_workers: Optional[int] = None,
        store: Optional["MmapShardStore"] = None,
    ) -> None:
        if shard_size < 1:
            raise ValidationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if database is None and store is None:
            raise ValidationError(
                "ShardedBackend needs a database or an mmap shard store"
            )
        self._store = store
        self._database = database
        # The store's segmentation is the sharding; a conflicting
        # shard_size would silently change shard boundaries.
        self._shard_size = (
            store.rows_per_segment if store is not None
            else int(shard_size)
        )
        self._max_workers = max_workers
        self._shards: Optional[List[TransactionDatabase]] = None
        self._item_supports: Optional[np.ndarray] = None

    @classmethod
    def from_store(
        cls,
        store: "MmapShardStore",
        max_workers: Optional[int] = None,
    ) -> "ShardedBackend":
        """A backend over a spilled shard store (the mmap data plane).

        The store's segments *are* the shards; queries open them
        through its budget-bounded cache.  ``close()`` closes the
        store too — mapped segments are this backend's OS resources.
        """
        return cls(max_workers=max_workers, store=store)

    @property
    def database(self) -> TransactionDatabase:
        """The full database (lazy memmap-view assembly on the mmap
        plane — avoid on hot paths; queries never need it)."""
        if self._database is None:
            self._database = self._store.database()
        return self._database

    @property
    def store(self) -> Optional["MmapShardStore"]:
        """The spill store, or ``None`` on the in-memory plane."""
        return self._store

    @property
    def num_items(self) -> int:
        if self._store is not None:
            return self._store.num_items
        return self.database.num_items

    @property
    def num_transactions(self) -> int:
        if self._store is not None:
            return self._store.num_rows
        return self.database.num_transactions

    @property
    def num_shards(self) -> int:
        if self._store is not None:
            return max(self._store.num_segments, 1)
        return len(self._ensure_shards())

    @property
    def data_plane(self) -> str:
        """``"mmap"`` when spilled to segment files, else ``"memory"``."""
        return "mmap" if self._store is not None else "memory"

    def data_plane_stats(self) -> Dict[str, object]:
        """Residency telemetry for ``/healthz`` (plane + store stats)."""
        stats: Dict[str, object] = {
            "plane": self.data_plane,
            "shards": self.num_shards,
        }
        if self._store is not None:
            stats.update(self._store.stats())
        return stats

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` by growing the tail shard, not resharding.

        Existing full shards are untouched (their warm per-shard
        indexes stay valid); the last, partially filled shard is
        rebuilt with the new rows folded in (rows shared, ≤ one
        shard's worth of work), and any remaining delta rows form new
        tail shards.  The cached item-support vector is advanced by
        adding ``delta``'s supports.  On the mmap plane the store
        rewrites only its partial tail segment (atomically, under a
        bumped generation) and adds new segments for the rest.
        """
        self._validate_delta(delta)
        if self._store is not None:
            if not delta.num_transactions:
                return
            self._store.extend(list(delta.rows))
            if self._database is not None:
                self._database = self._database.extended(delta)
        else:
            if self._shards is not None and delta.num_transactions:
                self._extend_shards(list(delta.rows))
            self._database = self._database.extended(delta)
        if self._item_supports is not None:
            self._item_supports = (
                self._item_supports + delta.item_supports()
            )

    def _extend_shards(self, pending: List[np.ndarray]) -> None:
        """Fold ``pending`` rows into the tail shard, then new shards."""
        num_items = self._database.num_items
        last = self._shards[-1]
        if last.num_transactions < self._shard_size:
            take = min(
                self._shard_size - last.num_transactions, len(pending)
            )
            self._shards[-1] = TransactionDatabase.from_sorted_rows(
                list(last.rows) + pending[:take], num_items
            )
            pending = pending[take:]
        for start in range(0, len(pending), self._shard_size):
            self._shards.append(
                TransactionDatabase.from_sorted_rows(
                    pending[start: start + self._shard_size], num_items
                )
            )

    # -- shard plumbing -------------------------------------------------
    def _ensure_shards(self) -> List[TransactionDatabase]:
        """Build the shard databases lazily (rows are shared, not
        copied — each shard is one slice of the horizontal CSR rows)."""
        if self._shards is None:
            n = self._database.num_transactions
            shards = [
                self._database.slice(
                    start, min(start + self._shard_size, n)
                )
                for start in range(0, n, self._shard_size)
            ]
            if not shards:  # empty database: one empty shard
                shards.append(
                    TransactionDatabase.from_sorted_rows(
                        [], self._database.num_items
                    )
                )
            self._shards = shards
        return self._shards

    def _workers_for(self, num_shards: int) -> int:
        workers = self._max_workers
        if workers is None:
            workers = min(num_shards, os.cpu_count() or 1)
        return max(1, workers)

    def _map_shards(
        self, task: Callable[[TransactionDatabase], _T]
    ) -> List[_T]:
        """Fan ``task`` out over every shard; results in shard order.

        On the mmap plane shards are fetched per task through the
        store's LRU cache instead of being held in a list, so the
        resident set stays inside the store's memory budget even while
        a query sweeps every shard.
        """
        if self._store is not None:
            count = self._store.num_segments
            if count == 0:
                empty = TransactionDatabase.from_sorted_rows(
                    [], self._store.num_items
                )
                return [task(empty)]
            shard_at = self._store.shard_database
        else:
            shards = self._ensure_shards()
            count = len(shards)
            shard_at = shards.__getitem__

        def run(index: int) -> _T:
            return task(shard_at(index))

        workers = self._workers_for(count)
        if workers <= 1 or count <= 1:
            return [run(index) for index in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(count)))

    # -- the four primitives --------------------------------------------
    def item_supports(self) -> np.ndarray:
        if self._item_supports is None:
            parts = self._map_shards(
                lambda shard: shard.item_supports()
            )
            self._item_supports = np.sum(parts, axis=0, dtype=np.int64)
        return self._item_supports.copy()

    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        pool = canonical_itemset(items)
        parts = self._map_shards(
            lambda shard: ItemBitmaps(shard, pool).pairwise_supports()
        )
        merged: Dict[Tuple[int, int], int] = {}
        for part in parts:
            for pair, count in part.items():
                merged[pair] = merged.get(pair, 0) + count
        return merged

    def conjunction_support(self, items: Iterable[int]) -> int:
        return self.conjunction_supports([items])[0]

    def bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        return self.bin_counts_batch([basis])[0]

    # -- batched primitives ---------------------------------------------
    def conjunction_supports(
        self, itemsets: Sequence[Iterable[int]]
    ) -> List[int]:
        """One fan-out for the whole batch: each shard answers every
        itemset, the parent sums per itemset."""
        canonical = [canonical_itemset(itemset) for itemset in itemsets]
        if not canonical:
            return []
        parts = self._map_shards(
            lambda shard: [shard.support(itemset) for itemset in canonical]
        )
        return [
            int(sum(part[index] for part in parts))
            for index in range(len(canonical))
        ]

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """One fan-out for all bases; histograms add elementwise."""
        bases = [
            tuple(int(item) for item in basis) for basis in bases
        ]
        if not bases:
            return []
        parts = self._map_shards(
            lambda shard: [
                bin_counts_for_items(shard, basis) for basis in bases
            ]
        )
        return [
            np.sum(
                [part[index] for part in parts], axis=0, dtype=np.int64
            )
            for index in range(len(bases))
        ]

    def extension_supports(
        self, base: Sequence[int], candidates: Sequence[int]
    ) -> np.ndarray:
        candidates = [int(item) for item in candidates]
        if not candidates:
            return np.zeros(0, dtype=np.int64)
        base = [int(item) for item in base]
        parts = self._map_shards(
            lambda shard: _shard_extension_supports(
                shard, base, candidates
            )
        )
        return np.sum(parts, axis=0, dtype=np.int64)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close the mmap store, if any (idempotent).

        The store's cached mappings are dropped; its files stay on
        disk — reopen with ``MmapShardStore.open``.  The in-memory
        plane owns no OS resources, so this is a no-op there.
        """
        if self._store is not None:
            self._store.close()

    def __repr__(self) -> str:
        source = (
            repr(self._store)
            if self._store is not None
            else repr(self._database)
        )
        return (
            f"ShardedBackend({source}, "
            f"shard_size={self._shard_size}, "
            f"max_workers={self._max_workers})"
        )
