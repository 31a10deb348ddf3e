"""Thread-sharded counting: fan-out, lifecycle and extend mechanics.

The equivalence suites pin :class:`ShardedBackend`'s answers against
the oracle for a few fixed configurations.  These tests cover what
they do not: the worker-width and shard-boundary matrices, the
thread fan-out itself (order, sequential degeneration, width cap),
the close/context-manager lifecycle on the in-memory plane and
through :class:`PrivBasisSession`, and which shards ``extend``
rebuilds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    NaiveBackend,
    PrivBasisSession,
    ShardedBackend,
)
from repro.engine import sharded


def random_database(
    seed: int, num_transactions: int = 60, num_items: int = 16
) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    member = rng.random((num_transactions, num_items)) < 0.3
    return TransactionDatabase(
        [np.flatnonzero(row) for row in member], num_items=num_items
    )


def assert_matches_bitmap(backend, database) -> None:
    reference = BitmapBackend(database)
    np.testing.assert_array_equal(
        backend.item_supports(), reference.item_supports()
    )
    np.testing.assert_array_equal(
        backend.bin_counts([1, 4, 9]), reference.bin_counts([1, 4, 9])
    )
    assert backend.pairwise_supports(range(5)) == (
        reference.pairwise_supports(range(5))
    )
    assert backend.conjunction_supports([(0, 3), (2,), ()]) == (
        reference.conjunction_supports([(0, 3), (2,), ()])
    )
    np.testing.assert_array_equal(
        backend.extension_supports([1], [0, 2, 7]),
        reference.extension_supports([1], [0, 2, 7]),
    )


# ----------------------------------------------------------------------
# Configuration matrices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_worker_width_matrix(workers):
    """Every thread-pool width answers bit-identically."""
    database = random_database(3)
    with ShardedBackend(
        database, shard_size=17, max_workers=workers
    ) as backend:
        assert_matches_bitmap(backend, database)


@pytest.mark.parametrize("shard_size", [1, 59, 60, 61])
def test_shard_boundaries(shard_size):
    """Shard sizes around ``N`` partition exactly and count exactly."""
    database = random_database(4)
    backend = ShardedBackend(
        database, shard_size=shard_size, max_workers=2
    )
    expected_shards = -(-database.num_transactions // shard_size)
    assert backend.num_shards == expected_shards
    assert_matches_bitmap(backend, database)


# ----------------------------------------------------------------------
# The thread fan-out
# ----------------------------------------------------------------------
def test_fan_out_returns_results_in_shard_order():
    database = random_database(5)
    backend = ShardedBackend(database, shard_size=7, max_workers=4)
    sizes = backend._map_shards(lambda shard: shard.num_transactions)
    assert sizes == [7] * 8 + [4]


def test_single_worker_never_starts_a_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("max_workers=1 must scan sequentially")

    monkeypatch.setattr(sharded, "ThreadPoolExecutor", refuse)
    database = random_database(6)
    backend = ShardedBackend(database, shard_size=7, max_workers=1)
    assert_matches_bitmap(backend, database)


def test_default_width_is_capped_by_shards_and_cores(monkeypatch):
    monkeypatch.setattr(sharded.os, "cpu_count", lambda: 4)
    backend = ShardedBackend(random_database(7), shard_size=7)
    assert backend._workers_for(2) == 2
    assert backend._workers_for(9) == 4
    monkeypatch.setattr(sharded.os, "cpu_count", lambda: None)
    assert backend._workers_for(9) == 1


def test_empty_batches_answer_without_fanning_out(monkeypatch):
    backend = ShardedBackend(random_database(8), shard_size=7)

    def refuse(task):
        raise AssertionError("an empty batch must not touch shards")

    monkeypatch.setattr(backend, "_map_shards", refuse)
    assert backend.conjunction_supports([]) == []
    assert backend.bin_counts_batch([]) == []
    result = backend.extension_supports([1, 2], [])
    assert result.dtype == np.int64 and result.shape == (0,)


def test_item_supports_are_cached_and_copied():
    database = random_database(9)
    backend = ShardedBackend(database, shard_size=7, max_workers=2)
    first = backend.item_supports()
    first[:] = -1  # mutating a returned vector must not poison it
    np.testing.assert_array_equal(
        backend.item_supports(), database.item_supports()
    )


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_memory_plane_stays_queryable():
    database = random_database(10)
    backend = ShardedBackend(database, shard_size=13, max_workers=2)
    assert_matches_bitmap(backend, database)
    backend.close()
    backend.close()
    assert_matches_bitmap(backend, database)


def test_context_manager_yields_the_backend():
    database = random_database(11)
    backend = ShardedBackend(database, shard_size=13)
    with backend as entered:
        assert entered is backend
    assert backend.data_plane_stats() == {
        "plane": "memory",
        "shards": 5,
    }


def test_session_close_forwards_to_sharded_backend():
    database = random_database(12)
    inner = ShardedBackend(database, shard_size=13, max_workers=2)
    with PrivBasisSession(
        database, backend=CachedBackend(inner)
    ) as session:
        result = session.release(k=5, epsilon=1.0, rng=0)
        assert len(result.itemsets) == 5
    # The in-memory plane owns no OS resources: still answers.
    assert_matches_bitmap(inner, database)


def test_session_release_is_backend_independent():
    database = random_database(13)
    sharded_session = PrivBasisSession(
        database,
        backend=ShardedBackend(database, shard_size=11, max_workers=3),
    )
    bitmap_session = PrivBasisSession(database)
    sharded_result = sharded_session.release(k=6, epsilon=1.0, rng=7)
    bitmap_result = bitmap_session.release(k=6, epsilon=1.0, rng=7)
    assert sharded_result.itemsets == bitmap_result.itemsets


# ----------------------------------------------------------------------
# extend
# ----------------------------------------------------------------------
def test_extend_rebuilds_only_the_tail_shard():
    base = random_database(14, num_transactions=40)
    backend = ShardedBackend(base, shard_size=16, max_workers=2)
    backend.bin_counts([1, 2])  # build 3 shards (16/16/8)
    before = list(backend._shards)
    backend.extend(random_database(15, num_transactions=10))
    after = backend._shards
    assert after[0] is before[0] and after[1] is before[1]
    assert after[2] is not before[2]
    assert [shard.num_transactions for shard in after] == [16, 16, 16, 2]
    oracle = NaiveBackend(backend.database)
    np.testing.assert_array_equal(
        backend.bin_counts([1, 2]), oracle.bin_counts([1, 2])
    )


def test_extend_advances_cached_item_supports_without_rescanning(
    monkeypatch,
):
    base = random_database(16, num_transactions=30)
    backend = ShardedBackend(base, shard_size=8, max_workers=2)
    backend.item_supports()  # warm the cached vector
    delta = random_database(17, num_transactions=9)
    backend.extend(delta)

    def refuse(task):
        raise AssertionError("cached item supports must be advanced")

    monkeypatch.setattr(backend, "_map_shards", refuse)
    np.testing.assert_array_equal(
        backend.item_supports(),
        base.item_supports() + delta.item_supports(),
    )


def test_extend_before_first_query_shards_lazily():
    base = random_database(18, num_transactions=20)
    backend = ShardedBackend(base, shard_size=8, max_workers=2)
    backend.extend(random_database(19, num_transactions=5))
    assert backend._shards is None  # nothing built yet
    assert backend.num_shards == 4  # 8/8/8/1 over the grown database
    assert_matches_bitmap(backend, backend.database)
