"""Span recording around the program's layer boundaries (traced runs).

:func:`install` wraps public functions of each layer — the pipeline
stage mechanisms, the engine's cached counting primitives, the top-k
miner, the store's WAL, the reuse lookup and the service's request
dispatch — so that every call records a ``(name, start, end)`` span on
the shared :class:`SpanRecorder`.  Spans are kept in memory and
attributed afterwards to the request whose time window contains them:
one closed-loop client sends one request at a time, so containment in
time is containment in the request.  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which the service process and
the client share.

No wrapper is installed on an untraced run.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Pipeline stage spans: the direct children of one in-process release.
STAGES = (
    "get_lambda", "select_items", "select_pairs", "construct_basis",
    "basis_freq",
)

#: ``(module, attribute, span name)`` for module-level functions, named
#: where the caller looks them up so the wrapper sits on the call path.
_FUNCTIONS = (
    ("repro.pipeline.stages", "get_lambda", "pipeline.get_lambda"),
    ("repro.pipeline.stages", "get_frequent_items", "pipeline.select_items"),
    ("repro.pipeline.stages", "get_frequent_pairs", "pipeline.select_pairs"),
    ("repro.pipeline.stages", "construct_basis_set",
     "pipeline.construct_basis"),
    ("repro.pipeline.stages", "single_basis", "pipeline.construct_basis"),
    ("repro.pipeline.stages", "basis_freq", "pipeline.basis_freq"),
    ("repro.datasets.registry", "top_k_itemsets", "engine.top_k.mine"),
    ("repro.service.http", "write_response", "service.write_response"),
)

#: ``(module, class, method, span name)`` for methods.
_METHODS = (
    ("repro.engine.cache", "CachedBackend", "bin_counts_batch",
     "engine.bin_counts_batch"),
    ("repro.engine.cache", "CachedBackend", "conjunction_supports",
     "engine.conjunction_supports"),
    ("repro.engine.cache", "CachedBackend", "pairwise_supports",
     "engine.pairwise_supports"),
    ("repro.engine.cache", "CachedBackend", "extend", "engine.extend"),
    ("repro.store.wal", "WriteAheadLog", "append", "store.wal.append"),
    ("repro.store.results", "ResultStore", "reuse_lookup", "reuse.lookup"),
    ("repro.service.app", "PrivBasisService", "dispatch",
     "service.dispatch"),
)

#: Calls counted without a span (too many per release to time each).
_COUNTED = (
    ("repro.core.construct_basis", "average_case_ev",
     "core.average_case_ev.calls"),
)


class SpanRecorder:
    """In-memory spans and call counts, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self.counts: List[Tuple[str, float]] = []
        self._lock = threading.Lock()

    def span(self, name: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append((name, start, end))

    def count(self, name: str) -> None:
        stamp = time.monotonic()
        with self._lock:
            self.counts.append((name, stamp))

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def dump(self, path: str) -> None:
        with self._lock:
            data = {"spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        recorder = cls()
        recorder.spans = [tuple(span) for span in data["spans"]]
        recorder.counts = [tuple(count) for count in data["counts"]]
        return recorder


def _timed(function, name: str, recorder: SpanRecorder):
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return await function(*args, **kwargs)
            finally:
                recorder.span(name, start, time.monotonic())

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.monotonic()
        try:
            return function(*args, **kwargs)
        finally:
            recorder.span(name, start, time.monotonic())

    return wrapper


def _sync_wrapper(function, recorder: SpanRecorder):
    """``WriteAheadLog.sync``: a span per call plus a count per fsync
    actually issued (read from the log's public ``syncs`` counter)."""

    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        before = self.syncs
        start = time.monotonic()
        try:
            return function(self, *args, **kwargs)
        finally:
            end = time.monotonic()
            recorder.span("store.wal.sync", start, end)
            for _ in range(self.syncs - before):
                recorder.count("store.wal.fsyncs")

    return wrapper


def _counted(function, name: str, recorder: SpanRecorder):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return function(*args, **kwargs)

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary listed above (idempotence is not
    needed: each process installs once, before any release runs)."""
    import importlib

    for module_name, attribute, name in _FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(
            module, attribute,
            _timed(getattr(module, attribute), name, recorder),
        )
    for module_name, class_name, method, name in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, _timed(getattr(cls, method), name, recorder))
    wal = importlib.import_module("repro.store.wal").WriteAheadLog
    wal.sync = _sync_wrapper(wal.sync, recorder)
    for module_name, attribute, name in _COUNTED:
        module = importlib.import_module(module_name)
        setattr(
            module, attribute,
            _counted(getattr(module, attribute), name, recorder),
        )


# -- attribution -------------------------------------------------------
class Attribution:
    """Spans and counts grouped by the request window containing them."""

    def __init__(
        self, recorder: SpanRecorder, windows: Sequence[Tuple[float, float]]
    ) -> None:
        self._starts = [start for start, _ in windows]
        self._windows = list(windows)
        self.per_window: List[Dict[str, float]] = [
            {} for _ in self._windows
        ]
        for name, start, end in recorder.spans:
            index = self._index(start, end)
            if index is not None:
                totals = self.per_window[index]
                totals[name] = totals.get(name, 0.0) + (end - start) * 1000.0
                totals[name + "#n"] = totals.get(name + "#n", 0.0) + 1
        for name, stamp in recorder.counts:
            index = self._index(stamp, stamp)
            if index is not None:
                totals = self.per_window[index]
                totals[name] = totals.get(name, 0.0) + 1

    def _index(self, start: float, end: float):
        index = bisect.bisect_right(self._starts, start) - 1
        if index >= 0 and end <= self._windows[index][1]:
            return index
        return None

    def total(self, name: str, indices: Iterable[int]) -> float:
        return sum(self.per_window[index].get(name, 0.0) for index in indices)

    def each(self, name: str, indices: Iterable[int]) -> List[float]:
        return [self.per_window[index].get(name, 0.0) for index in indices]
