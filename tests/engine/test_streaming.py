"""Streaming-append equivalence and snapshot-aware session tests.

The acceptance property for the incremental ingest path: for **every**
backend, appending transactions via ``extend`` and then querying must
yield supports identical to a cold rebuild over the concatenated
database — pinned against the :class:`NaiveBackend` oracle rebuilt
from scratch.  Appends are deliberately sized so the packed-bitmap
path crosses (and lands on) non-byte-aligned boundaries.

The session half: releases pin the snapshot version they were computed
on, are deterministic per (seed, snapshot), and the caching layer
invalidates per snapshot instead of serving stale answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.stream import TransactionLog
from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    NaiveBackend,
    PrivBasisSession,
    ShardedBackend,
)
from repro.errors import ValidationError


def random_database(
    seed: int, num_transactions: int, num_items: int = 14
) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    member = rng.random((num_transactions, num_items)) < rng.uniform(
        0.1, 0.4
    )
    return TransactionDatabase(
        [np.flatnonzero(row) for row in member], num_items=num_items
    )


#: Base size 37 and deltas 11/5 are chosen so every packed-bitmap
#: extension starts on a *non*-aligned boundary (37 % 8 = 5,
#: 48 % 8 = 0 then 53) — both branches of the byte-fusion path run.
BASE, DELTAS = 37, (11, 5)


def incremental_backends(database: TransactionDatabase):
    """Every production configuration that must track the oracle."""
    return [
        NaiveBackend(database),
        BitmapBackend(database),
        ShardedBackend(database, shard_size=16, max_workers=1),
        ShardedBackend(database, shard_size=7, max_workers=3),
        CachedBackend(BitmapBackend(database)),
        CachedBackend(ShardedBackend(database, shard_size=16)),
    ]


def warm_up(backend) -> None:
    """Touch every primitive so extend() exercises warm structures."""
    backend.item_supports()
    backend.pairwise_supports(range(6))
    backend.conjunction_support((0, 3))
    backend.bin_counts([0, 3, 7])
    if isinstance(backend, BitmapBackend):
        backend.bitmaps(range(8))


@pytest.mark.parametrize("seed", range(4))
class TestAppendEquivalence:
    def test_extend_matches_cold_rebuild_oracle(self, seed):
        base = random_database(seed, BASE)
        deltas = [
            random_database(1000 * seed + index, count)
            for index, count in enumerate(DELTAS, start=1)
        ]
        all_rows = list(base)
        for delta in deltas:
            all_rows.extend(delta)
        oracle = NaiveBackend(
            TransactionDatabase(all_rows, num_items=base.num_items)
        )
        rng = np.random.default_rng(seed + 77)
        for backend in incremental_backends(base):
            warm_up(backend)
            for delta in deltas:
                backend.extend(delta)
            assert backend.num_transactions == BASE + sum(DELTAS)
            np.testing.assert_array_equal(
                backend.item_supports(),
                oracle.item_supports(),
                err_msg=repr(backend),
            )
            pool = sorted(rng.choice(14, size=6, replace=False))
            assert backend.pairwise_supports(pool) == (
                oracle.pairwise_supports(pool)
            ), repr(backend)
            for size in (1, 2, 3, 0):
                itemset = sorted(
                    rng.choice(14, size=size, replace=False)
                )
                assert backend.conjunction_support(itemset) == (
                    oracle.conjunction_support(itemset)
                ), (repr(backend), itemset)
            basis = [
                int(item)
                for item in rng.choice(14, size=5, replace=False)
            ]
            np.testing.assert_array_equal(
                backend.bin_counts(basis),
                oracle.bin_counts(basis),
                err_msg=f"{backend!r} basis={basis}",
            )

    def test_extend_from_empty_database(self, seed):
        empty = TransactionDatabase([], num_items=14)
        delta = random_database(seed + 10, 21)
        oracle = NaiveBackend(
            TransactionDatabase(list(delta), num_items=14)
        )
        for backend in incremental_backends(empty):
            warm_up(backend)
            backend.extend(delta)
            np.testing.assert_array_equal(
                backend.item_supports(),
                oracle.item_supports(),
                err_msg=repr(backend),
            )
            np.testing.assert_array_equal(
                backend.bin_counts([1, 4]),
                oracle.bin_counts([1, 4]),
                err_msg=repr(backend),
            )


class TestExtendMechanics:
    def test_sharded_tail_shard_grows_before_new_shards(self):
        base = random_database(1, 20)
        backend = ShardedBackend(base, shard_size=16)
        assert backend.num_shards == 2  # 16 + 4
        backend.extend(random_database(2, 10))
        # 4-row tail absorbed 10 new rows: 16 + 14, still 2 shards.
        assert backend.num_shards == 2
        backend.extend(random_database(3, 40))
        # 14→16 fills the tail, then 38 remaining rows → 3 new shards.
        assert backend.num_shards == 5
        assert backend.num_transactions == 70

    def test_bitmap_pools_are_extended_not_rebuilt(self):
        base = random_database(4, 37)
        backend = BitmapBackend(base)
        backend.bitmaps(range(8))
        built_before = backend.pools_built
        backend.extend(random_database(5, 11))
        backend.pairwise_supports(range(8))
        assert backend.pools_built == built_before

    def test_cached_backend_invalidates_per_snapshot(self):
        base = random_database(6, 30)
        backend = CachedBackend(BitmapBackend(base))
        basis = [0, 2, 5]
        stale = backend.bin_counts(basis)
        assert backend.snapshot_version == 0
        delta = random_database(7, 12)
        backend.extend(delta)
        assert backend.snapshot_version == 1
        fresh = backend.bin_counts(basis)
        assert fresh.sum() == 42
        assert stale.sum() == 30  # the old copy was never mutated
        oracle = NaiveBackend(backend.database)
        np.testing.assert_array_equal(fresh, oracle.bin_counts(basis))

    def test_extend_rejects_mismatched_vocabulary(self):
        backend = BitmapBackend(random_database(8, 10, num_items=14))
        with pytest.raises(ValidationError):
            backend.extend(random_database(9, 5, num_items=9))
        with pytest.raises(ValidationError):
            backend.extend([[0, 1]])  # not a TransactionDatabase


class TestSnapshotAwareSession:
    def test_releases_pin_and_report_the_snapshot_version(self):
        session = PrivBasisSession(random_database(10, 60), rng=3)
        first = session.release(k=8, epsilon=1.0)
        assert first.snapshot_version == 0
        assert session.ingest(list(random_database(11, 9))) == 1
        second = session.release(k=8, epsilon=1.0)
        assert second.snapshot_version == 1
        assert session.snapshot_version == 1
        stats = session.stats()
        assert stats["snapshot_version"] == 1
        assert stats["num_transactions"] == 69

    @pytest.mark.parametrize("seed", (1, 2))
    def test_release_is_deterministic_per_seed_and_snapshot(self, seed):
        def run():
            log = TransactionLog.from_database(
                random_database(12, 50)
            )
            session = PrivBasisSession(log, rng=seed)
            results = [session.release(k=6, epsilon=1.0)]
            session.ingest(list(random_database(13, 8)))
            results.append(session.release(k=6, epsilon=1.0))
            return results

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.snapshot_version == b.snapshot_version
            assert a.frequencies() == b.frequencies()
        # Different snapshots of one run are genuinely different data.
        assert first[0].snapshot_version != first[1].snapshot_version

    def test_session_follows_an_external_log_via_sync(self):
        log = TransactionLog.from_database(random_database(14, 40))
        session = PrivBasisSession(log, rng=0)
        assert session.log is log
        log.append(list(random_database(15, 6)))
        log.append(list(random_database(16, 4)))
        assert session.snapshot_version == 0  # not yet synced
        assert session.sync() == 2
        assert session.database.num_transactions == 50
        # One extend covered both missed versions; data matches oracle.
        oracle = NaiveBackend(log.snapshot().database)
        np.testing.assert_array_equal(
            session.backend.item_supports(), oracle.item_supports()
        )

    def test_ingest_consumes_no_budget(self):
        session = PrivBasisSession(
            random_database(17, 40), epsilon_limit=1.0, rng=0
        )
        session.release(k=5, epsilon=0.5)
        session.ingest([[0, 1], [2]])
        assert session.epsilon_spent == pytest.approx(0.5)
        session.release(k=5, epsilon=0.5)  # still fits the limit

    def test_empty_ingest_is_rejected(self):
        session = PrivBasisSession(random_database(18, 20), rng=0)
        with pytest.raises(ValidationError):
            session.ingest([])
        assert session.snapshot_version == 0
