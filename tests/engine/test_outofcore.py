"""Out-of-core plane equivalence suite (tiered, seeded-random DBs).

The pinned property: a database that is **chunk-loaded from disk and
spilled into memory-mapped shard segments** answers every counting
primitive — and produces every full PrivBasis release (itemsets,
noisy frequencies, ε ledger) — **bit-identically** to the RAM-resident
:class:`BitmapBackend` and the pure-Python :class:`NaiveBackend`
oracle.  Counts are exact integers and additive over any partition,
so this holds by construction; the suite pins it against regressions
across the chunk → spill → attach → merge path, after O(Δ)
``extend``, and across a full close/reopen restart of the shard store.

Randomization is seeded (no hypothesis dependency): each seed drives
an independent database shape, chunk size, and segment size.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.core.privbasis import privbasis
from repro.datasets.chunked import (
    iter_transaction_chunks,
    load_chunked,
)
from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    NaiveBackend,
    PrivBasisSession,
    ShardedBackend,
)
from repro.engine.mmap import MmapShardStore


def random_rows(seed: int, num_transactions: int = 70,
                num_items: int = 14):
    """Seeded random non-empty sorted transactions."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(num_transactions):
        size = int(rng.integers(1, 7))
        rows.append(
            np.unique(rng.integers(0, num_items, size=size))
        )
    return rows, num_items


def write_fimi_gz(path, rows) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for row in rows:
            handle.write(" ".join(str(int(i)) for i in row) + "\n")


def spilled_backend(tmp_path, seed: int, *, memory_budget_bytes=None):
    """Disk file → chunked load → mmap spill → sharded backend.

    Returns ``(backend, database, directory)`` where ``database`` is
    the same file materialized in RAM (the equivalence reference
    input) and ``directory`` is the spill dir (for reopen tests).
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    rows, num_items = random_rows(seed)
    source = tmp_path / f"db-{seed}.dat.gz"
    write_fimi_gz(source, rows)
    chunk_size = int(rng.integers(3, 40))
    rows_per_segment = int(rng.integers(5, 30))
    directory = tmp_path / f"shards-{seed}"
    store = MmapShardStore.build(
        directory,
        iter_transaction_chunks(
            source, num_items=num_items, chunk_size=chunk_size
        ),
        num_items=num_items,
        rows_per_segment=rows_per_segment,
        memory_budget_bytes=memory_budget_bytes,
    )
    backend = ShardedBackend.from_store(store, max_workers=2)
    database = load_chunked(source, num_items=num_items)
    return backend, database, directory


def queries_for(num_items: int, seed: int):
    rng = np.random.default_rng(seed + 99)
    pool = sorted(
        int(i) for i in rng.choice(num_items, size=6, replace=False)
    )
    bases = [pool[:4], pool[2:6], [pool[0]]]
    itemsets = [
        tuple(
            sorted(
                int(i)
                for i in rng.choice(num_items, size=s, replace=False)
            )
        )
        for s in (1, 2, 3, 2)
    ]
    return pool, bases, itemsets


def assert_backends_equivalent(candidate, reference, seed: int):
    """All five primitives, bit for bit."""
    num_items = reference.num_items
    pool, bases, itemsets = queries_for(num_items, seed)
    np.testing.assert_array_equal(
        candidate.item_supports(), reference.item_supports()
    )
    assert candidate.pairwise_supports(pool) == (
        reference.pairwise_supports(pool)
    )
    assert candidate.conjunction_supports(itemsets) == (
        reference.conjunction_supports(itemsets)
    )
    for got, want in zip(
        candidate.bin_counts_batch(bases),
        reference.bin_counts_batch(bases),
    ):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        candidate.extension_supports(pool[:2], pool),
        reference.extension_supports(pool[:2], pool),
    )
    assert candidate.num_transactions == reference.num_transactions
    assert candidate.num_items == reference.num_items


# ----------------------------------------------------------------------
# Counting equivalence: chunk → spill → attach vs RAM-resident
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_spilled_counts_match_bitmap_and_naive(tmp_path, seed):
    backend, database, _ = spilled_backend(tmp_path, seed)
    with backend:
        assert_backends_equivalent(
            backend, BitmapBackend(database), seed
        )
        assert_backends_equivalent(
            backend, NaiveBackend(database), seed
        )


def test_tiny_memory_budget_still_bit_identical(tmp_path):
    """Constant eviction pressure must never change an answer."""
    backend, database, _ = spilled_backend(
        tmp_path, seed=11, memory_budget_bytes=1
    )
    with backend:
        assert_backends_equivalent(
            backend, BitmapBackend(database), 11
        )
        stats = backend.data_plane_stats()
        assert stats["plane"] == "mmap"
        # The cache may keep at most one shard pinned under a budget
        # this small.
        assert stats["cached_shards"] <= 1


# ----------------------------------------------------------------------
# O(Δ) extend, then restart: close + reopen the same directory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_extend_then_reopen_matches_reference(tmp_path, seed):
    backend, database, directory = spilled_backend(tmp_path, seed)
    delta_rows, num_items = random_rows(seed + 500,
                                        num_transactions=23)
    delta = TransactionDatabase(delta_rows, num_items=num_items)
    extended = database.extended(delta)
    reference = BitmapBackend(extended)

    backend.extend(delta)
    assert_backends_equivalent(backend, reference, seed)
    backend.close()

    # Restart: reopen the spilled segments read-only (CRC-verified)
    # in a "fresh process" and answer identically again.
    reopened = MmapShardStore.open(directory, verify="crc")
    with ShardedBackend.from_store(reopened) as revived:
        assert_backends_equivalent(revived, reference, seed)


def test_reopened_store_serves_multiple_backends(tmp_path):
    """Segments are read-only after publish: two attachments of the
    same directory answer identically and independently."""
    backend, database, directory = spilled_backend(tmp_path, 7)
    backend.close()
    first = ShardedBackend.from_store(MmapShardStore.open(directory))
    second = ShardedBackend.from_store(MmapShardStore.open(directory))
    with first, second:
        np.testing.assert_array_equal(
            first.item_supports(), second.item_supports()
        )
        np.testing.assert_array_equal(
            first.item_supports(),
            BitmapBackend(database).item_supports(),
        )


# ----------------------------------------------------------------------
# Full pipeline: identical DP releases (itemsets, frequencies, ε)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_privbasis_release_bit_identical(tmp_path, seed):
    backend, database, _ = spilled_backend(tmp_path, seed)
    with backend:
        spilled = privbasis(
            backend, k=6, epsilon=1.0,
            rng=np.random.default_rng(seed),
        )
    resident = privbasis(
        database, k=6, epsilon=1.0,
        rng=np.random.default_rng(seed),
        backend=BitmapBackend(database),
    )
    assert spilled.itemsets == resident.itemsets
    assert spilled.frequencies() == resident.frequencies()
    assert spilled.budget == resident.budget


@pytest.mark.parametrize("seed", range(2))
def test_session_release_and_ledger_bit_identical(tmp_path, seed):
    """Sessions over both planes: same releases, same ε ledger —
    including after a live ingest."""
    backend, database, _ = spilled_backend(tmp_path, seed)
    out_of_core = PrivBasisSession(backend, epsilon_limit=10.0)
    resident = PrivBasisSession(database, epsilon_limit=10.0)

    for round_seed in (1, 2):
        got = out_of_core.release(
            k=5, epsilon=0.8, rng=np.random.default_rng(round_seed)
        )
        want = resident.release(
            k=5, epsilon=0.8, rng=np.random.default_rng(round_seed)
        )
        assert got.frequencies() == want.frequencies()
        assert got.itemsets == want.itemsets

    delta_rows, _ = random_rows(seed + 77, num_transactions=9)
    assert out_of_core.ingest(list(delta_rows)) == (
        resident.ingest(list(delta_rows))
    )
    got = out_of_core.release(
        k=4, epsilon=0.5, rng=np.random.default_rng(3)
    )
    want = resident.release(
        k=4, epsilon=0.5, rng=np.random.default_rng(3)
    )
    assert got.frequencies() == want.frequencies()
    assert got.snapshot_version == want.snapshot_version
    assert out_of_core.epsilon_spent == resident.epsilon_spent
    assert out_of_core.num_releases == resident.num_releases
    out_of_core.close()


# ----------------------------------------------------------------------
# Store-level invariants the planes rely on
# ----------------------------------------------------------------------
def test_store_stats_and_budget_accounting(tmp_path):
    backend, database, _ = spilled_backend(
        tmp_path, 13, memory_budget_bytes=1 << 20
    )
    with backend:
        backend.item_supports()
        stats = backend.data_plane_stats()
        assert stats["rows"] == database.num_transactions
        assert stats["spilled_bytes"] > 0
        assert stats["memory_budget_bytes"] == 1 << 20
        assert stats["segments"] == stats["shards"]


def test_closed_backend_store_rejects_queries(tmp_path):
    from repro.errors import StateStoreError

    backend, _, _ = spilled_backend(tmp_path, 17)
    store = backend.store
    backend.close()
    with pytest.raises(StateStoreError):
        store.shard_database(0)
