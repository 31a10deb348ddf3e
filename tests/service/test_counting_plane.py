"""The service's counting-plane selection: ``--parallel`` and friends.

One :func:`backend_factory_for` serves both the single-process CLI and
the cluster workers; these tests pin what it builds for each plane and
that the ``bitmap``/``threads`` choice is all the CLI and
:class:`ClusterConfig` accept.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import BitmapBackend, ShardedBackend
from repro.engine.sharded import DEFAULT_SHARD_SIZE
from repro.errors import ValidationError
from repro.service import ClusterConfig
from repro.service.__main__ import build_parser
from repro.service.app import backend_factory_for


def small_database() -> TransactionDatabase:
    rng = np.random.default_rng(0)
    member = rng.random((30, 8)) < 0.4
    return TransactionDatabase(
        [np.flatnonzero(row) for row in member], num_items=8
    )


def test_bitmap_plane_and_mmap_plane_need_no_factory():
    assert backend_factory_for("bitmap") is None
    assert backend_factory_for("threads", data_plane="mmap") is None


def test_threads_factory_builds_a_configured_sharded_backend():
    database = small_database()
    factory = backend_factory_for(
        "threads", shard_size=7, shard_workers=2
    )
    backend = factory(database)
    assert isinstance(backend, ShardedBackend)
    assert backend.num_shards == 5
    assert backend._max_workers == 2
    np.testing.assert_array_equal(
        backend.bin_counts([0, 3, 5]),
        BitmapBackend(database).bin_counts([0, 3, 5]),
    )


def test_threads_factory_defaults_to_engine_shard_size():
    backend = backend_factory_for("threads")(small_database())
    assert backend._shard_size == DEFAULT_SHARD_SIZE
    assert backend.num_shards == 1


def test_cli_accepts_only_bitmap_and_threads(capsys):
    parser = build_parser()
    assert parser.parse_args([]).parallel == "bitmap"
    assert parser.parse_args(["--parallel", "threads"]).parallel == (
        "threads"
    )
    with pytest.raises(SystemExit):
        parser.parse_args(["--parallel", "processes"])
    assert "invalid choice" in capsys.readouterr().err


def test_cluster_config_rejects_processes(tmp_path):
    config = ClusterConfig(
        tenants={"alice": {"dataset": "mushroom", "epsilon_limit": 1.0}},
        state_dir=str(tmp_path),
        parallel="processes",
    )
    with pytest.raises(ValidationError):
        config.validate()
