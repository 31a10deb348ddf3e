"""Memory-mapped shard segments: the out-of-core counting plane.

:class:`~repro.engine.sharded.ShardedBackend` normally holds every
shard database in RAM.  This module gives it a disk-backed
alternative: each shard's CSR rows live in one **segment file** under
the state dir, and queries open them through ``np.memmap`` — the OS
page cache decides which pages are resident, so a dataset far larger
than RAM can be counted with a bounded working set.

Segment file layout (all little-endian)::

    [ header: 64 bytes ] [ offsets: (num_rows+1) int64 ] [ items: int64 ]

The header carries a magic, a format version, the shape, and a CRC32
of the payload.  Every write goes ``<file>.tmp`` → ``fsync`` →
``rename``, and the manifest (``manifest.json``, same discipline) is
only updated afterwards — so a crash mid-spill can strand a ``.tmp``
orphan but never publish a half-written segment under a live name.
Damage that *does* happen to published files (disk faults, manual
truncation) is caught on :meth:`MmapShardStore.open` by the
header/size check (or a full CRC pass with ``verify="crc"``) and
reported as a :class:`~repro.errors.TornSegmentError` naming exactly
the broken segment indices, so the caller re-spills **those shards
only** via :meth:`MmapShardStore.rebuild_segment`.

The store is built **chunk by chunk** (:meth:`MmapShardStore.build`
over a :func:`~repro.datasets.chunked.iter_transaction_chunks`
stream): at no point does it hold more than one segment's rows in
memory.  Reading back, :meth:`shard_database` returns shard databases
whose rows are zero-copy views into the mapping, kept in an LRU cache
sized from ``memory_budget_bytes`` — evicting an entry drops the
mapping, and with it the resident pages.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import (
    StateStoreError,
    TornSegmentError,
    ValidationError,
)

__all__ = [
    "FileSegmentSpec",
    "MmapShardStore",
    "attach_file_segment",
    "process_resident_bytes",
    "read_segment_rows",
    "write_segment",
]

PathLike = Union[str, Path]

_WORD = 8  # int64 bytes
_MAGIC = b"PBSHRD01"
_HEADER_SIZE = 64
_HEADER_FORMAT = "<8sqqqqq"  # magic, version, rows, size, items, crc
_FORMAT_VERSION = 1
_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

#: Default per-store memory budget when none is configured: enough to
#: keep a handful of default-sized segments warm.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024


def process_resident_bytes() -> Optional[int]:
    """This process's resident set size in bytes, or ``None``.

    Reads ``/proc/self/statm`` (Linux); other platforms report
    ``None`` rather than a guess.  This is what ``/healthz`` shows
    next to the spilled byte count: pages the OS currently keeps
    resident for us, mapped segments included.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        return None


@dataclass(frozen=True)
class FileSegmentSpec:
    """Handle for one on-disk segment: its path and shape.

    The file name embeds the segment's generation counter — a rebuilt
    tail gets a fresh name, so a mapping of the old file can never be
    mistaken for the new contents.
    """

    path: str
    num_rows: int
    total_size: int
    num_items: int

    @property
    def num_words(self) -> int:
        """int64 words in the payload (offsets then flattened items)."""
        return self.num_rows + 1 + self.total_size


def _pack_rows(
    rows: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter(
        (row.size for row in rows), count=len(rows), dtype=np.int64
    )
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if len(rows) and offsets[-1]:
        items = np.concatenate(rows).astype(np.int64, copy=False)
    else:
        items = np.empty(0, dtype=np.int64)
    return offsets, items


def write_segment(
    path: PathLike,
    rows: Sequence[np.ndarray],
    num_items: int,
) -> FileSegmentSpec:
    """Write one segment file atomically; returns its spec.

    ``rows`` must already be sorted unique int64 arrays (the chunked
    loaders and the engine's own shard slices both guarantee this).
    The payload CRC is computed on the way out, the bytes are fsynced,
    and only then does the file appear under ``path`` — a crash leaves
    at worst an orphaned ``path.tmp``, never a torn live segment.

    Raises :class:`~repro.errors.StateStoreError` on I/O failure
    (``ENOSPC`` included), with the temp file cleaned up and any
    previously published segment untouched.
    """
    path = Path(path)
    offsets, items = _pack_rows(rows)
    header_crc = zlib.crc32(offsets.tobytes())
    header_crc = zlib.crc32(items.tobytes(), header_crc)
    header = struct.pack(
        _HEADER_FORMAT,
        _MAGIC,
        _FORMAT_VERSION,
        len(rows),
        int(offsets[-1]),
        int(num_items),
        header_crc,
    ).ljust(_HEADER_SIZE, b"\0")
    temp_path = path.with_name(path.name + ".tmp")
    try:
        with open(temp_path, "wb") as handle:
            handle.write(header)
            handle.write(offsets.tobytes())
            handle.write(items.tobytes())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        temp_path.unlink(missing_ok=True)
        reason = errno.errorcode.get(exc.errno, "I/O error")
        raise StateStoreError(
            f"cannot spill shard segment {path.name}: {reason}: {exc}"
        ) from exc
    return FileSegmentSpec(
        path=str(path),
        num_rows=len(rows),
        total_size=int(offsets[-1]),
        num_items=int(num_items),
    )


def _read_header(path: Path) -> Tuple[int, int, int, int]:
    """``(num_rows, total_size, num_items, crc)`` or raise ValueError."""
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER_SIZE)
    if len(raw) < _HEADER_SIZE:
        raise ValueError("short header")
    magic, version, num_rows, total_size, num_items, crc = struct.unpack(
        _HEADER_FORMAT, raw[: struct.calcsize(_HEADER_FORMAT)]
    )
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported segment version {version}")
    return int(num_rows), int(total_size), int(num_items), int(crc)


def verify_segment(
    spec: FileSegmentSpec, check_crc: bool = False
) -> Optional[str]:
    """``None`` if the file matches its spec, else what is wrong.

    The default check is cheap (header fields + exact file size —
    catches truncation, the crash-window damage).  ``check_crc=True``
    reads the whole payload, catching in-place corruption too.
    """
    path = Path(spec.path)
    try:
        num_rows, total_size, num_items, crc = _read_header(path)
    except (OSError, ValueError) as exc:
        return f"unreadable header: {exc}"
    if (num_rows, total_size) != (spec.num_rows, spec.total_size):
        return (
            f"header shape ({num_rows} rows, {total_size} items) "
            f"disagrees with manifest ({spec.num_rows}, "
            f"{spec.total_size})"
        )
    expected_bytes = _HEADER_SIZE + spec.num_words * _WORD
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        return f"file is {actual_bytes} bytes, expected {expected_bytes}"
    if check_crc:
        with open(path, "rb") as handle:
            handle.seek(_HEADER_SIZE)
            actual_crc = 0
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                actual_crc = zlib.crc32(block, actual_crc)
        if actual_crc != crc:
            return (
                f"payload crc {actual_crc:#010x} != header {crc:#010x}"
            )
    return None


def attach_file_segment(
    spec: FileSegmentSpec,
) -> Tuple[np.memmap, TransactionDatabase]:
    """Open a segment read-only and rebuild its shard zero-copy.

    Returns ``(memmap, database)``; the rows are views into the
    mapping, so the caller keeps the memmap referenced for as long as
    the database is in use.  Dropping both unmaps the file and gives
    the pages back.  Validates the header/size first — no query ever
    counts over a torn file.
    """
    problem = verify_segment(spec)
    if problem is not None:
        raise TornSegmentError(
            Path(spec.path).parent, [_index_of(Path(spec.path).name)], problem
        )
    mapping = np.memmap(
        spec.path,
        dtype=np.int64,
        mode="r",
        offset=_HEADER_SIZE,
        shape=(spec.num_words,),
    )
    offsets = mapping[: spec.num_rows + 1]
    items = mapping[spec.num_rows + 1:]
    if offsets.size and int(offsets[-1]) != spec.total_size:
        raise TornSegmentError(
            Path(spec.path).parent,
            [_index_of(Path(spec.path).name)],
            f"offsets end at {int(offsets[-1])}, "
            f"manifest says {spec.total_size}",
        )
    rows: List[np.ndarray] = [
        items[offsets[index]: offsets[index + 1]]
        for index in range(spec.num_rows)
    ]
    database = TransactionDatabase.from_sorted_rows(rows, spec.num_items)
    return mapping, database


def read_segment_rows(spec: FileSegmentSpec) -> List[np.ndarray]:
    """The segment's rows as in-memory copies (tail rewrites)."""
    mapping, database = attach_file_segment(spec)
    try:
        return [np.array(row) for row in database.rows]
    finally:
        del database
        del mapping


def _segment_file_name(index: int, generation: int) -> str:
    return f"seg-{index:06d}-g{generation:04d}.seg"


def _index_of(file_name: str) -> int:
    try:
        return int(file_name.split("-")[1])
    except (IndexError, ValueError):
        return -1


class MmapShardStore:
    """A directory of spilled shard segments plus their manifest.

    Build fresh with :meth:`create` / :meth:`build` (streaming, chunk
    by chunk), reopen read-only with :meth:`open` — the restart path,
    which verifies every segment and raises
    :class:`~repro.errors.TornSegmentError` for damage.  Thread-safe:
    the shard cache takes a lock, so worker threads can pull
    shard databases concurrently.

    Layout under ``directory`` (conventionally
    ``<state-dir>/shards/<dataset>/…``)::

        manifest.json            # shapes + segment file list, atomic
        seg-000000-g0000.seg     # one file per shard
        seg-000001-g0000.seg
        ...

    A segment file's name embeds its generation; tail rewrites (from
    ``extend``) bump it, so readers can never confuse old and new
    contents.
    """

    def __init__(
        self,
        directory: PathLike,
        num_items: int,
        rows_per_segment: int,
        memory_budget_bytes: Optional[int],
        specs: List[FileSegmentSpec],
        generations: List[int],
    ) -> None:
        self._directory = Path(directory)
        self._num_items = int(num_items)
        self._rows_per_segment = int(rows_per_segment)
        self._budget = int(
            memory_budget_bytes
            if memory_budget_bytes is not None
            else DEFAULT_MEMORY_BUDGET_BYTES
        )
        if self._budget < 1:
            raise ValidationError(
                f"memory_budget_bytes must be >= 1, got {self._budget}"
            )
        self._specs = list(specs)
        self._generations = list(generations)
        self._pending: List[np.ndarray] = []
        self._lock = threading.Lock()
        self._cache: "OrderedDict[int, Tuple[np.memmap, TransactionDatabase]]"
        self._cache = OrderedDict()
        self._closed = False

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        num_items: int,
        rows_per_segment: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "MmapShardStore":
        """Start a fresh, empty store under ``directory``.

        Any stale segments/manifest from a previous build in the same
        directory are removed first — a store directory belongs to
        exactly one build at a time.
        """
        from repro.engine.sharded import DEFAULT_SHARD_SIZE

        if num_items < 1:
            raise ValidationError(
                f"num_items must be >= 1, got {num_items}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("seg-*.seg*"):
            stale.unlink(missing_ok=True)
        (directory / _MANIFEST_NAME).unlink(missing_ok=True)
        rows_per_segment = int(rows_per_segment or DEFAULT_SHARD_SIZE)
        if rows_per_segment < 1:
            raise ValidationError(
                f"rows_per_segment must be >= 1, got {rows_per_segment}"
            )
        store = cls(
            directory,
            num_items,
            rows_per_segment,
            memory_budget_bytes,
            specs=[],
            generations=[],
        )
        store._write_manifest()
        return store

    @classmethod
    def build(
        cls,
        directory: PathLike,
        chunks: Iterable[object],
        num_items: int,
        rows_per_segment: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "MmapShardStore":
        """Spill a chunk stream into a fresh store, chunk by chunk.

        ``chunks`` yields :class:`~repro.datasets.chunked
        .TransactionChunk` objects (or anything with ``.rows``); peak
        memory during the build is one segment's rows plus one chunk.
        """
        store = cls.create(
            directory,
            num_items,
            rows_per_segment=rows_per_segment,
            memory_budget_bytes=memory_budget_bytes,
        )
        for chunk in chunks:
            store.append_rows(chunk.rows)
        store.flush()
        return store

    @classmethod
    def open(
        cls,
        directory: PathLike,
        memory_budget_bytes: Optional[int] = None,
        verify: str = "size",
    ) -> "MmapShardStore":
        """Reopen an existing store (the restart / other-worker path).

        Every segment is checked against the manifest — ``"size"``
        (default) validates headers and exact file sizes, ``"crc"``
        additionally re-hashes every payload.  Damage raises
        :class:`~repro.errors.TornSegmentError` listing **all** torn
        segment indices; repair by reopening with ``verify="none"``
        and calling :meth:`rebuild_segment` for exactly those indices.
        """
        if verify not in ("none", "size", "crc"):
            raise ValidationError(
                f"verify must be 'none', 'size' or 'crc', got {verify!r}"
            )
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StateStoreError(
                f"cannot read shard manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StateStoreError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')!r} in {manifest_path}"
            )
        specs: List[FileSegmentSpec] = []
        generations: List[int] = []
        for entry in manifest.get("segments", []):
            specs.append(
                FileSegmentSpec(
                    path=str(directory / str(entry["file"])),
                    num_rows=int(entry["num_rows"]),
                    total_size=int(entry["total_size"]),
                    num_items=int(manifest["num_items"]),
                )
            )
            generations.append(int(entry.get("generation", 0)))
        store = cls(
            directory,
            int(manifest["num_items"]),
            int(manifest["rows_per_segment"]),
            memory_budget_bytes,
            specs=specs,
            generations=generations,
        )
        if verify != "none":
            torn: List[int] = []
            detail = ""
            for index, spec in enumerate(specs):
                problem = verify_segment(
                    spec, check_crc=(verify == "crc")
                )
                if problem is not None:
                    torn.append(index)
                    detail = detail or problem
            if torn:
                raise TornSegmentError(directory, torn, detail)
        return store

    # -- shape ----------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The store's on-disk root."""
        return self._directory

    @property
    def num_items(self) -> int:
        """Vocabulary size shared by every segment."""
        return self._num_items

    @property
    def rows_per_segment(self) -> int:
        """Target rows per segment (the shard size)."""
        return self._rows_per_segment

    @property
    def num_segments(self) -> int:
        """Published segments (pending unflushed rows not counted)."""
        return len(self._specs)

    @property
    def num_rows(self) -> int:
        """Total spilled transactions."""
        return sum(spec.num_rows for spec in self._specs)

    @property
    def total_size(self) -> int:
        """Total spilled items (sum of transaction lengths)."""
        return sum(spec.total_size for spec in self._specs)

    @property
    def memory_budget_bytes(self) -> int:
        """The configured residency budget for cached shards."""
        return self._budget

    # -- writing --------------------------------------------------------
    def append_rows(self, rows: Sequence[np.ndarray]) -> None:
        """Buffer rows; publish full segments as they fill up.

        Items must be sorted unique int64 in ``[0, num_items)`` — the
        chunked loaders guarantee this, and the segment writer trusts
        it exactly like ``from_sorted_rows`` does.
        """
        self._ensure_open()
        for row in rows:
            array = np.asarray(row, dtype=np.int64)
            if array.size and int(array[-1]) >= self._num_items:
                raise ValidationError(
                    f"item {int(array[-1])} out of range for "
                    f"num_items={self._num_items}"
                )
            self._pending.append(array)
        while len(self._pending) >= self._rows_per_segment:
            self._publish(self._pending[: self._rows_per_segment])
            self._pending = self._pending[self._rows_per_segment:]

    def flush(self) -> None:
        """Publish any buffered rows and sync the manifest.

        Also the retry path after a failed publish (e.g. ``ENOSPC``):
        rows that could not be spilled stay in the pending buffer —
        never lost, never double-appended — and are drained here at
        segment granularity once the fault clears.
        """
        self._ensure_open()
        while len(self._pending) >= self._rows_per_segment:
            self._publish(self._pending[: self._rows_per_segment])
            self._pending = self._pending[self._rows_per_segment:]
        if self._pending:
            self._publish(self._pending)
            self._pending = []
        self._write_manifest()

    def extend(self, rows: Sequence[np.ndarray]) -> int:
        """Append ``rows`` to the spilled data; returns the index of
        the first changed segment.

        A partial tail segment is rewritten (read back, concatenated,
        republished under a bumped generation — atomically, so a crash
        mid-extend leaves the old tail live); full segments are never
        touched.  This is the
        :meth:`~repro.engine.backend.CountingBackend.extend` spill
        path: ingest appends, it does not respill.
        """
        self._ensure_open()
        if not rows:
            return max(len(self._specs) - 1, 0)
        first_changed = len(self._specs)
        tail_rows: List[np.ndarray] = []
        stale_tail: Optional[Path] = None
        if (
            self._specs
            and self._specs[-1].num_rows < self._rows_per_segment
        ):
            first_changed = len(self._specs) - 1
            tail_rows = read_segment_rows(self._specs[-1])
            self._drop_cached(first_changed)
            old_spec = self._specs.pop()
            generation = self._generations.pop() + 1
            self._publish(
                tail_rows + [
                    np.asarray(row, dtype=np.int64)
                    for row in rows[: self._rows_per_segment
                                    - len(tail_rows)]
                ],
                generation=generation,
            )
            stale_tail = Path(old_spec.path)
            rows = rows[self._rows_per_segment - len(tail_rows):]
        self.append_rows(rows)
        self.flush()
        # Only after the manifest names the new generation may the old
        # tail go: a crash before this line leaves both files, and the
        # manifest decides which one is live.
        if stale_tail is not None:
            stale_tail.unlink(missing_ok=True)
        return min(first_changed, len(self._specs) - 1)

    def rebuild_segment(
        self, index: int, rows: Sequence[np.ndarray]
    ) -> FileSegmentSpec:
        """Respill exactly one torn segment from its source rows.

        ``rows`` must be the same transactions the segment originally
        held (the chunked loader re-yields them deterministically);
        the row count is checked against the manifest.  All other
        segment files are left untouched — this is the single-shard
        repair the torn-segment error points at.
        """
        self._ensure_open()
        if not 0 <= index < len(self._specs):
            raise ValidationError(
                f"segment index {index} out of range "
                f"(store has {len(self._specs)})"
            )
        expected = self._specs[index]
        if len(rows) != expected.num_rows:
            raise ValidationError(
                f"rebuild of segment {index} got {len(rows)} rows, "
                f"manifest says {expected.num_rows}"
            )
        self._drop_cached(index)
        generation = self._generations[index] + 1
        name = _segment_file_name(index, generation)
        spec = write_segment(
            self._directory / name, list(rows), self._num_items
        )
        old_path = Path(self._specs[index].path)
        self._specs[index] = spec
        self._generations[index] = generation
        self._write_manifest()
        if old_path.name != name:
            old_path.unlink(missing_ok=True)
        return spec

    def _publish(
        self, rows: Sequence[np.ndarray], generation: int = 0
    ) -> None:
        index = len(self._specs)
        name = _segment_file_name(index, generation)
        spec = write_segment(
            self._directory / name, list(rows), self._num_items
        )
        self._specs.append(spec)
        self._generations.append(generation)

    def _write_manifest(self) -> None:
        manifest = {
            "version": _MANIFEST_VERSION,
            "num_items": self._num_items,
            "rows_per_segment": self._rows_per_segment,
            "num_rows": self.num_rows,
            "total_size": self.total_size,
            "segments": [
                {
                    "file": Path(spec.path).name,
                    "num_rows": spec.num_rows,
                    "total_size": spec.total_size,
                    "generation": generation,
                }
                for spec, generation in zip(
                    self._specs, self._generations
                )
            ],
        }
        manifest_path = self._directory / _MANIFEST_NAME
        temp_path = manifest_path.with_name(_MANIFEST_NAME + ".tmp")
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, manifest_path)
        except OSError as exc:
            temp_path.unlink(missing_ok=True)
            raise StateStoreError(
                f"cannot write shard manifest under {self._directory}: "
                f"{exc}"
            ) from exc

    # -- reading --------------------------------------------------------
    def shard_database(self, index: int) -> TransactionDatabase:
        """Shard ``index`` as a database of memmap views (LRU-cached).

        The cache holds at most ``memory_budget_bytes`` worth of open
        shards (estimated as payload + lazily built per-shard index);
        evicted entries drop their mapping, and the OS reclaims the
        pages.  Always keeps at least one entry, or nothing would ever
        be answerable.
        """
        self._ensure_open()
        if not 0 <= index < len(self._specs):
            raise ValidationError(
                f"shard index {index} out of range "
                f"(store has {len(self._specs)})"
            )
        with self._lock:
            entry = self._cache.get(index)
            if entry is not None:
                self._cache.move_to_end(index)
                return entry[1]
        mapping, database = attach_file_segment(self._specs[index])
        with self._lock:
            self._cache[index] = (mapping, database)
            self._cache.move_to_end(index)
            while (
                len(self._cache) > 1
                and self._resident_estimate_locked() > self._budget
            ):
                self._cache.popitem(last=False)
        return database

    def databases(self) -> List[TransactionDatabase]:
        """Every shard database, opened through the cache in order."""
        return [
            self.shard_database(index)
            for index in range(len(self._specs))
        ]

    def database(self) -> TransactionDatabase:
        """The full dataset as one database of memmap-view rows.

        This materializes row *view objects* for every transaction
        (cheap pages, but ~100 bytes of Python object per row), so the
        out-of-core plane avoids it on hot paths; it exists for
        whole-database consumers like the session's result assembly.
        """
        self._ensure_open()
        rows: List[np.ndarray] = []
        for index in range(len(self._specs)):
            rows.extend(self.shard_database(index).rows)
        return TransactionDatabase.from_sorted_rows(
            rows, self._num_items
        )

    def _segment_bytes(self, spec: FileSegmentSpec) -> int:
        # Payload words twice over: the mapped CSR plus the shard's
        # lazily built inverted index, which is the same nnz again.
        return 2 * spec.num_words * _WORD + 96 * spec.num_rows

    def _resident_estimate_locked(self) -> int:
        return sum(
            self._segment_bytes(self._specs[index])
            for index in self._cache
        )

    def resident_bytes(self) -> int:
        """Estimated bytes held by currently cached shards."""
        with self._lock:
            return self._resident_estimate_locked()

    def spilled_bytes(self) -> int:
        """Total bytes of segment files on disk."""
        total = 0
        for spec in self._specs:
            try:
                total += Path(spec.path).stat().st_size
            except OSError:
                pass
        return total

    def stats(self) -> Dict[str, object]:
        """Telemetry block for ``/healthz``/``/metrics``."""
        return {
            "directory": str(self._directory),
            "segments": self.num_segments,
            "rows": self.num_rows,
            "spilled_bytes": self.spilled_bytes(),
            "resident_shard_bytes": self.resident_bytes(),
            "memory_budget_bytes": self._budget,
            "cached_shards": len(self._cache),
        }

    # -- lifecycle ------------------------------------------------------
    def _drop_cached(self, index: int) -> None:
        with self._lock:
            self._cache.pop(index, None)

    def drop_caches(self) -> None:
        """Release every cached shard mapping (keeps files on disk)."""
        with self._lock:
            self._cache.clear()

    def close(self) -> None:
        """Release mappings and mark the store closed (idempotent).

        Segment files stay on disk — a store is durable state; remove
        the directory itself to discard it.
        """
        self.drop_caches()
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StateStoreError(
                f"shard store under {self._directory} is closed"
            )

    def __enter__(self) -> "MmapShardStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MmapShardStore({str(self._directory)!r}, "
            f"segments={self.num_segments}, rows={self.num_rows})"
        )
