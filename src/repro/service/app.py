"""The multi-tenant PrivBasis service (asyncio JSON-over-HTTP).

One :class:`PrivBasisService` fronts one
:class:`~repro.engine.session.PrivBasisSession` per dataset:

* **Sessions are per-dataset, shared across tenants.**  Everything a
  session caches is exact and non-private, so sharing it leaks nothing
  between tenants; cold-start construction is deduplicated through a
  :class:`~repro.service.coalesce.Coalescer` so a thundering herd on a
  cold dataset builds its bitmaps once.
* **Budgets are per-tenant, never shared.**  Every release spends from
  the requesting tenant's :class:`~repro.dp.budget.PrivacyBudget`
  before any noise is drawn; overdrafts map to HTTP 403 with a
  structured ``budget_exceeded`` payload.
* **Noise is per-release, never shared.**  Requests are seed-less by
  contract (:mod:`repro.service.protocol`) and every release draws
  from a fresh OS-seeded generator, so even byte-identical coalesced
  requests return distinct outputs.
* **Admission is bounded.**  At most ``max_inflight`` releases are in
  flight (including time queued on the per-dataset lock); beyond that
  the service answers 429 immediately instead of queueing unboundedly.

* **Ingestion is serialized with releases, never with noise.**
  ``POST /v1/ingest`` appends transactions to a tenant's dataset
  through the warm session's incremental ``extend`` path, under the
  same per-dataset lock releases use — so every release sees one
  consistent snapshot and reports its version on the wire.  A cold
  dataset hit by concurrent ingests/releases still builds once: both
  paths acquire the session through the coalescer.  Tenants whose
  config sets ``"ingest": false`` get HTTP 403 ``ingest_forbidden``.

* **Plans are free.**  ``GET /v1/plan`` prices a release — per-stage ε
  under the requested :class:`~repro.pipeline.planner.BudgetPlanner` —
  from public parameters only: no tenant budget is spent, no session
  is built, no data is read.  Releases may opt into a per-stage
  execution trace (``"trace": true``) and every served release feeds
  the per-stage counters ``/metrics`` reports under ``pipeline``.

* **Stored releases are reused before data is touched.**  When a
  plain ``(k', ε')`` request is strictly dominated by a release the
  *same tenant* already bought on the *same snapshot* (``k' ≤ k``,
  ``ε' ≤ ε``, not byte-identical — see :mod:`repro.pipeline.reuse`),
  the service answers by truncating the stored payload: pure
  post-processing, charged exactly ε = 0, zero backend queries.
  Byte-identical repeats always run fresh (the seed-less contract
  above promises distinct noise), as do requests naming a ``planner``
  or ``noise`` override.  ``/v1/plan`` prices a reuse hit at 0 and
  ``/metrics`` counts hits, misses, and ε saved; ``--no-reuse``
  (``reuse=False``) opts a deployment out entirely.

* **State is durable when ``state_dir`` is set.**  Every ε debit is
  journaled write-ahead (durable *before* the noisy answer leaves the
  process), every ingest batch is logged with its snapshot version,
  and every released payload is stored under
  ``(tenant, dataset, snapshot_version)``.  A restart with the same
  ``state_dir`` restores the tenants' spent budgets, replays each
  dataset to its pre-crash version, rehydrates serving counters and
  the released-result history (``GET /v1/results``), and reports what
  it recovered on ``/healthz``.  Without ``state_dir`` the service
  runs fully in-memory, as before.  See ``docs/operations.md``.

Endpoints: ``POST /v1/release``, ``POST /v1/release_batch``,
``POST /v1/ingest``, ``GET /v1/plan?tenant=…&k=…&epsilon=…``,
``GET /v1/snapshot?tenant=…``, ``GET /v1/budget?tenant=…``,
``GET /v1/results?tenant=…``, ``GET /healthz``, ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import time
import traceback
from contextlib import asynccontextmanager
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.engine.session import PrivBasisSession
from repro.errors import (
    BudgetExceededError,
    IngestNotAllowedError,
    OverloadedError,
    ReproError,
    UnknownTenantError,
    ValidationError,
    WorkerUnavailableError,
    error_to_wire,
)
from repro.pipeline.plan import build_plan
from repro.pipeline.planner import AutoPlanner, TraceHistory
from repro.pipeline.reuse import ReuseDecision, ReuseIndex, top_k_truncate
from repro.service import http
from repro.service.coalesce import Coalescer
from repro.service.metrics import (
    ReuseMetrics,
    ServiceMetrics,
    StageMetrics,
)
from repro.service.protocol import (
    parse_batch_request,
    parse_ingest_request,
    parse_plan_query,
    parse_release_request,
    result_to_wire,
)
from repro.service.registry import Tenant, TenantRegistry

__all__ = [
    "PrivBasisService",
    "DEFAULT_MAX_INFLIGHT",
    "backend_factory_for",
]

#: Default bound on concurrently admitted releases.
DEFAULT_MAX_INFLIGHT = 8

#: The routes the service answers; metrics label anything else
#: "unknown" so a path-spraying client cannot grow per-route state
#: without bound.
ROUTES = frozenset(
    {"/healthz", "/metrics", "/v1/budget", "/v1/ingest", "/v1/plan",
     "/v1/release", "/v1/release_batch", "/v1/results", "/v1/snapshot"}
)


def _fresh_rng():
    """A fresh OS-entropy generator for exactly one release.

    The wire contract promises every release its own randomness; a
    dedicated generator per request makes that literal — no stream is
    shared across releases, tenants, or the session's own default rng.
    """
    import numpy as np

    return np.random.default_rng()


def _status_for(error: ReproError) -> int:
    """Map a repro exception onto its HTTP status."""
    if isinstance(error, UnknownTenantError):
        return 404
    if isinstance(error, (BudgetExceededError, IngestNotAllowedError)):
        return 403
    if isinstance(error, OverloadedError):
        return 429
    if isinstance(error, WorkerUnavailableError):
        return 503
    if isinstance(error, ValidationError):
        return 400
    return 500


def backend_factory_for(
    parallel: str,
    data_plane: str = "memory",
    shard_size: Optional[int] = None,
    shard_workers: Optional[int] = None,
) -> Optional[Callable[[Any], Any]]:
    """The ``database -> CountingBackend`` factory for a counting plane.

    ``parallel`` is the ``--parallel`` value.  Returns ``None`` for the
    default ``"bitmap"`` plane (the service then builds its usual
    :class:`~repro.engine.bitmap.BitmapBackend`) and for
    ``data_plane="mmap"``, where the service builds its own
    out-of-core sharded backend per dataset (a factory would fight it
    for ownership).  ``"threads"`` gives each dataset its own
    thread-sharded backend.
    """
    if parallel == "bitmap" or data_plane == "mmap":
        return None
    from repro.engine.sharded import DEFAULT_SHARD_SIZE, ShardedBackend

    return functools.partial(
        ShardedBackend,
        shard_size=shard_size or DEFAULT_SHARD_SIZE,
        max_workers=shard_workers,
    )


class PrivBasisService:
    """Serve DP releases for the tenants in ``registry``.

    Parameters
    ----------
    registry:
        The tenants to serve and their dataset bindings / ε limits.
    dataset_loader:
        ``name -> TransactionDatabase``; defaults to
        :func:`repro.datasets.registry.load_dataset`.  Tests inject
        small synthetic databases here.
    backend_factory:
        Optional ``database -> CountingBackend`` override (e.g. a
        :class:`~repro.engine.sharded.ShardedBackend` for huge
        datasets); the session wraps it in its caching layer.
    max_inflight:
        Admission bound on concurrent releases; excess requests get
        HTTP 429 without queueing.
    state_dir:
        Optional durable state directory.  When set, the service
        opens a :class:`~repro.store.state.StateStore` there, restores
        every tenant's journaled ε debits into its ledger (installing
        the write-ahead hook for future spends), replays each
        dataset's ingest log when its session is built, and persists
        debits / ingests / released results as it serves.  ``None``
        (default) keeps all state in memory.
    fsync:
        WAL fsync policy for the state store (ignored without
        ``state_dir``): ``"batch"`` (default; debits buffer and one
        barrier per release makes them durable), ``"always"``, or
        ``"never"`` (benchmarks only — crashes may then under-count).
    shared_state:
        ``True`` when other worker processes serve the same
        ``state_dir`` concurrently (cluster mode): the store opens its
        ledger in flock-serialized shared mode so ε admission is
        atomic cluster-wide.  Requires ``state_dir``.
    data_plane:
        ``"memory"`` (default) keeps every dataset's shards in RAM;
        ``"mmap"`` spills each dataset to memory-mapped segment files
        (under ``<state_dir>/shards/…``, or the system temp dir
        without a state dir) and serves queries through a
        budget-bounded shard cache — the out-of-core plane.  Counting
        results are bit-identical either way.  Mutually exclusive
        with ``backend_factory``.
    memory_budget_mb:
        Resident-shard budget per dataset for ``data_plane="mmap"``
        (default: the engine's
        :data:`~repro.engine.mmap.DEFAULT_MEMORY_BUDGET_BYTES`).
    shard_size, shard_workers:
        Shard rows / worker count for the mmap plane (same meaning as
        the ``--shard-size`` / ``--shard-workers`` flags).
    reuse:
        ``True`` (default) serves dominated plain requests from the
        tenant's stored releases at ε = 0 (see the module docstring's
        reuse bullet); ``False`` (``--no-reuse``) runs every release
        fresh.  With ``state_dir`` set, reuse sources survive restarts
        (the result store rebuilds its per-tenant indexes from the
        WAL); without it the indexes live in memory.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        dataset_loader: Optional[Callable[[str], Any]] = None,
        backend_factory: Optional[Callable[[Any], Any]] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        state_dir: Optional[str] = None,
        fsync: str = "batch",
        shared_state: bool = False,
        data_plane: str = "memory",
        memory_budget_mb: Optional[int] = None,
        shard_size: Optional[int] = None,
        shard_workers: Optional[int] = None,
        reuse: bool = True,
    ) -> None:
        if max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if data_plane not in ("memory", "mmap"):
            raise ValidationError(
                f"data_plane must be 'memory' or 'mmap', "
                f"got {data_plane!r}"
            )
        if data_plane == "mmap" and backend_factory is not None:
            raise ValidationError(
                "data_plane='mmap' builds its own sharded backend per "
                "dataset; drop backend_factory"
            )
        if memory_budget_mb is not None and memory_budget_mb < 1:
            raise ValidationError(
                f"memory_budget_mb must be >= 1, got {memory_budget_mb}"
            )
        self._data_plane = data_plane
        self._memory_budget_mb = memory_budget_mb
        self._shard_size = shard_size
        self._shard_workers = shard_workers
        if dataset_loader is None:
            from repro.datasets.registry import (
                load_dataset,
                registered_names,
            )

            # With the built-in loader the resolvable names are known
            # up front — fail at startup on a typo'd tenant config
            # instead of on the first request.  Custom loaders own
            # their namespace and skip this check.  ``registered_names``
            # covers the classic in-memory datasets *and* the
            # disk-backed synthetic tiers.
            known = set(registered_names())
            unknown = [
                name for name in registry.datasets() if name not in known
            ]
            if unknown:
                raise ValidationError(
                    f"tenant config references datasets the built-in "
                    f"registry does not know: {unknown}; available: "
                    f"{sorted(known)}"
                )
            dataset_loader = load_dataset
        self._registry = registry
        self._loader = dataset_loader
        self._backend_factory = backend_factory
        self._max_inflight = int(max_inflight)
        self._in_flight = 0
        self._store = None
        self._dataset_stores: Dict[str, Any] = {}
        if shared_state and state_dir is None:
            raise ValidationError(
                "shared_state requires a state_dir: cluster workers "
                "coordinate through the durable ledger"
            )
        if state_dir is not None:
            from repro.store.state import StateStore

            # Opening the store replays the ledger journal; attaching
            # it restores each tenant's spent history and makes every
            # future spend write-ahead.  This happens before any
            # request can be served, so there is no window where a
            # recovered tenant could overspend.
            self._store = StateStore(
                state_dir, fsync=fsync, shared=shared_state
            )
            registry.attach_journal(self._store.ledger)
        self._coalescer = Coalescer()
        self._sessions: Dict[str, PrivBasisSession] = {}
        self._release_locks: Dict[str, asyncio.Lock] = {}
        self._metrics = ServiceMetrics()
        self._stage_metrics = StageMetrics()
        self._reuse_enabled = bool(reuse)
        self._reuse_metrics = ReuseMetrics(enabled=self._reuse_enabled)
        #: In-memory per-tenant reuse indexes — only used without a
        #: state store (with one, the result store owns the indexes
        #: and rebuilds them from the WAL on restart).
        self._reuse_indexes: Dict[str, ReuseIndex] = {}
        #: Per-dataset release-trace history feeding AutoPlanner.
        self._trace_histories: Dict[str, TraceHistory] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._started_at = time.monotonic()

    # -- introspection ---------------------------------------------------
    @property
    def registry(self) -> TenantRegistry:
        return self._registry

    @property
    def in_flight(self) -> int:
        """Releases currently admitted (admission-control gauge)."""
        return self._in_flight

    def session_for(self, dataset: str) -> Optional[PrivBasisSession]:
        """The warm session for ``dataset``, if one was built."""
        return self._sessions.get(dataset)

    @property
    def store(self):
        """The :class:`~repro.store.state.StateStore`, or ``None``
        when the service runs in-memory."""
        return self._store

    # -- out-of-core data plane ------------------------------------------
    def _build_mmap_backend(self, dataset: str, database):
        """Spill ``database`` into mmap shard segments, return a backend.

        Each session build spills into a *fresh* per-build directory
        (``<state-dir>/shards/<dataset>/<pid>-<token>/`` when
        persistence is on, a tempdir otherwise).  A fresh spill per
        build is deliberate: WAL replay re-applies ingested deltas
        through ``session.restore`` → ``backend.extend``, so reusing a
        previous build's segments would double-apply them; and cluster
        workers each build their own session, so a shared directory
        would race.  Restart durability of the *format* is exercised
        directly at the engine layer (``MmapShardStore.open``).
        """
        import os
        import re
        import secrets
        import tempfile
        from pathlib import Path

        from repro.engine.mmap import MmapShardStore
        from repro.engine.sharded import ShardedBackend

        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", dataset) or "dataset"
        root = (
            Path(self._store.root) / "shards"
            if self._store is not None
            else Path(tempfile.gettempdir()) / "repro-shards"
        )
        directory = root / safe / f"{os.getpid()}-{secrets.token_hex(4)}"
        budget = (
            self._memory_budget_mb * 1024 * 1024
            if self._memory_budget_mb is not None
            else None
        )
        store = MmapShardStore.create(
            directory,
            num_items=database.num_items,
            rows_per_segment=self._shard_size,
            memory_budget_bytes=budget,
        )
        try:
            step = store.rows_per_segment
            rows = database.rows
            # Feed the spill in segment-sized chunks so peak resident
            # extra memory during the build is one segment, not the
            # whole dataset twice.
            for start in range(0, len(rows), step):
                store.append_rows(rows[start:start + step])
            store.flush()
        except BaseException:
            store.close()
            raise
        return ShardedBackend.from_store(
            store, max_workers=self._shard_workers
        )

    # -- session lifecycle (coalesced cold starts) -----------------------
    async def _build_session(self, dataset: str) -> PrivBasisSession:
        loop = asyncio.get_running_loop()
        # Snapshot the rehydration counters on the event loop thread:
        # the result store's aggregates are mutated loop-side by
        # _persist_release, and reading them from the executor while
        # another dataset's release records could race the dicts.
        restore_releases = restore_epsilon = None
        if self._store is not None:
            restore_releases = self._store.results.release_counts().get(
                dataset, 0
            )
            restore_epsilon = self._store.results.epsilon_by_dataset().get(
                dataset, 0.0
            )

        def build() -> PrivBasisSession:
            database = self._loader(dataset)
            if self._data_plane == "mmap":
                # The session is built from the backend alone: its
                # database view comes lazily out of the mmap store,
                # and the loaded in-memory copy is garbage once the
                # spill completes.
                backend = self._build_mmap_backend(dataset, database)
                del database
                session = PrivBasisSession(backend)
            else:
                backend = (
                    self._backend_factory(database)
                    if self._backend_factory is not None
                    else None
                )
                session = PrivBasisSession(database, backend=backend)
            session.warm_up()
            if self._store is not None:
                # Warm restore: replay every ingested batch recorded
                # for this dataset through the warm backend's O(Δ)
                # extend path and restore the pre-crash snapshot
                # version, then rehydrate the serving counters from
                # the released-result store — the session comes back
                # exactly where the crash left it, without recounting
                # or respending.
                log_store = self._store.dataset_log(dataset)
                version, rows = log_store.replay()
                session.restore(
                    delta=rows if rows else None,
                    snapshot_version=version,
                    num_releases=restore_releases,
                    epsilon_spent=restore_epsilon,
                )
                self._dataset_stores[dataset] = log_store
                self._store.recovery.note_dataset(dataset, version)
            return session

        session = await loop.run_in_executor(None, build)
        self._sessions[dataset] = session
        return session

    async def get_session(self, dataset: str) -> PrivBasisSession:
        """The dataset's shared session; cold builds are coalesced."""
        return await self._coalescer.get(
            dataset, functools.partial(self._build_session, dataset)
        )

    async def warm_all(self) -> None:
        """Pre-build sessions for every dataset tenants reference."""
        await asyncio.gather(
            *(self.get_session(name) for name in self._registry.datasets())
        )

    # -- admission control ----------------------------------------------
    def _admit(self, weight: int = 1) -> None:
        """Claim ``weight`` in-flight slots or raise 429.

        A batch is weighted by its request count, so ``max_inflight``
        bounds *releases*, not HTTP requests — a batch cannot smuggle
        in more concurrent mining work than the limit allows (which
        also means a batch larger than ``max_inflight`` is always
        refused; raise the limit to serve bigger batches).
        """
        if self._in_flight + weight > self._max_inflight:
            raise OverloadedError(self._in_flight, self._max_inflight)
        self._in_flight += weight

    def _release_slot(self, weight: int = 1) -> None:
        self._in_flight -= weight

    def _lock_for(self, dataset: str) -> asyncio.Lock:
        lock = self._release_locks.get(dataset)
        if lock is None:
            lock = self._release_locks[dataset] = asyncio.Lock()
        return lock

    # -- reuse plane ------------------------------------------------------
    def _history_for(self, dataset: str) -> TraceHistory:
        """The dataset's accumulated release-branch history."""
        history = self._trace_histories.get(dataset)
        if history is None:
            history = self._trace_histories[dataset] = TraceHistory()
        return history

    def _bind_auto(self, request: Dict[str, Any], dataset: str) -> None:
        """Give an unbound AutoPlanner this dataset's trace history."""
        planner = request.get("planner")
        if isinstance(planner, AutoPlanner) and planner.history is None:
            planner.bind(self._history_for(dataset))

    def _reuse_lookup(
        self, tenant: Tenant, snapshot_version: int, k: int,
        epsilon: float,
    ) -> ReuseDecision:
        """Per-tenant reuse decision (store-backed or in-memory)."""
        if self._store is not None:
            return self._store.results.reuse_lookup(
                tenant.tenant_id, tenant.dataset, snapshot_version,
                k, epsilon,
            )
        index = self._reuse_indexes.get(tenant.tenant_id)
        if index is None:
            return ReuseDecision(
                hit=False,
                reason=(
                    f"no stored release for dataset "
                    f"{tenant.dataset!r} at snapshot "
                    f"{int(snapshot_version)}"
                ),
            )
        return index.lookup(tenant.dataset, snapshot_version, k, epsilon)

    def _remember_reuse(self, tenant: Tenant, result: Any) -> None:
        """Index one fresh release as a future reuse source.

        Only the in-memory path does work: with a state store,
        :meth:`_persist_release` already feeds the result store's
        per-tenant index as a side effect of recording the payload.
        """
        if not self._reuse_enabled or self._store is not None:
            return
        index = self._reuse_indexes.get(tenant.tenant_id)
        if index is None:
            index = self._reuse_indexes[tenant.tenant_id] = ReuseIndex()
        index.add(
            tenant.dataset, result.snapshot_version or 0,
            result_to_wire(result),
        )

    def _invalidate_reuse(self, dataset: str, version: int) -> None:
        """Drop reuse sources made stale by an ingest to ``dataset``."""
        if not self._reuse_enabled:
            return
        if self._store is not None:
            self._store.results.invalidate_reuse(dataset, version)
            return
        for index in self._reuse_indexes.values():
            index.invalidate_before(dataset, version)

    # -- release serving -------------------------------------------------
    def _tenant_for(self, body: Mapping[str, Any]) -> Tenant:
        tenant_id = body.get("tenant") if isinstance(body, Mapping) else None
        if not isinstance(tenant_id, str) or not tenant_id:
            raise ValidationError(
                "request needs a 'tenant' string identifying the caller"
            )
        return self._registry.get(tenant_id)

    async def _run_locked(self, dataset: str, call: Callable[[], Any]) -> Any:
        """Run blocking mining work off-loop, serialized per dataset.

        The lock keeps concurrent releases from mutating one session's
        caches from two executor threads at once; releases against
        *different* datasets still run in parallel.
        """
        loop = asyncio.get_running_loop()
        async with self._lock_for(dataset):
            return await loop.run_in_executor(None, call)

    def _persist_release(self, tenant: Tenant, result: Any) -> None:
        """Append one released payload to the result WAL (no fsync).

        Runs on the event loop thread, like the ε-debit append inside
        :meth:`Tenant.charge` — keeping all appends loop-side is what
        lets :meth:`_barrier` run on a worker thread without racing
        them (the WAL's durability watermark only ever advances to
        appends observed before the fsync).
        """
        if self._store is None:
            return
        self._store.results.record(
            tenant.tenant_id,
            tenant.dataset,
            result.snapshot_version,
            result_to_wire(result),
        )

    async def _barrier(self) -> None:
        """Durability barrier before a response goes on the wire.

        One fsync covers the write-ahead ε debit (appended at charge
        time) and the stored result payload.  It runs in the executor
        so a slow disk stalls only this response, not the event loop;
        overlapping releases whose records an earlier barrier already
        covered skip theirs entirely (group commit).
        """
        if self._store is None:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._store.barrier)

    async def handle_release(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/release`` — one ε-DP release for one tenant."""
        tenant = self._tenant_for(body)
        request = parse_release_request(body)
        include_trace = request.pop("trace", False)
        self._admit()
        try:
            session = await self.get_session(tenant.dataset)
            self._bind_auto(request, tenant.dataset)
            reuse_block: Optional[Dict[str, Any]] = None
            if (
                self._reuse_enabled
                and "planner" not in request
                and "noise" not in request
            ):
                # Reuse-first: a dominated plain request is answered
                # by truncating the tenant's stored release — pure
                # post-processing, so no charge, no lock, no data
                # touched, no noise drawn.  The lookup reads the live
                # snapshot version; entries can only ever be from the
                # same tenant (indexes are per-tenant by construction).
                decision = self._reuse_lookup(
                    tenant, session.snapshot_version,
                    request["k"], request["epsilon"],
                )
                if decision.hit:
                    payload = top_k_truncate(
                        decision.source.payload,
                        request["k"], request["epsilon"],
                    )
                    self._reuse_metrics.hit(request["epsilon"])
                    return {
                        "tenant": tenant.tenant_id,
                        "dataset": tenant.dataset,
                        **payload,
                        "reuse": {
                            "hit": True,
                            "epsilon_charged": 0.0,
                            "epsilon_saved": request["epsilon"],
                            "source": decision.source.describe(),
                        },
                    }
                reuse_block = {"hit": False, "reason": decision.reason}
                self._reuse_metrics.miss()
            # Charge on the event loop thread *before* any noise is
            # drawn: spends are serialized (no budget race) and a
            # failed release after the charge errs on the safe side —
            # budget is forfeited, never refunded.  With a state
            # store attached the charge is write-ahead (the debit hits
            # the WAL before the in-memory ledger).
            tenant.charge(
                request["epsilon"],
                label=f"release k={request['k']}",
            )
            result = await self._run_locked(
                tenant.dataset,
                functools.partial(
                    session.release, rng=_fresh_rng(), **request
                ),
            )
        finally:
            self._release_slot()
        self._stage_metrics.record(result.trace)
        self._history_for(tenant.dataset).observe(result.trace)
        self._remember_reuse(tenant, result)
        self._persist_release(tenant, result)
        await self._barrier()
        response = {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            **result_to_wire(result, include_trace=include_trace),
        }
        if reuse_block is not None:
            response["reuse"] = reuse_block
        return response

    async def handle_release_batch(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/release_batch`` — all-or-nothing multi-release."""
        tenant = self._tenant_for(body)
        requests = parse_batch_request(body)
        trace_flags = [
            request.pop("trace", False) for request in requests
        ]
        total = sum(request["epsilon"] for request in requests)
        self._admit(weight=len(requests))
        try:
            session = await self.get_session(tenant.dataset)
            for request in requests:
                self._bind_auto(request, tenant.dataset)
            # All-or-nothing admission against the journaled spent
            # value (tenant.remaining), so a freshly recovered ledger
            # and a long-running one refuse an oversized batch through
            # the same check.
            if total > tenant.remaining:
                raise BudgetExceededError(total, tenant.remaining)
            for index, request in enumerate(requests):
                tenant.charge(
                    request["epsilon"],
                    label=f"batch[{index}] k={request['k']}",
                )
            seeded = [
                {**request, "rng": _fresh_rng()} for request in requests
            ]
            results = await self._run_locked(
                tenant.dataset,
                functools.partial(session.release_batch, seeded),
            )
        finally:
            self._release_slot(weight=len(requests))
        for result in results:
            self._stage_metrics.record(result.trace)
            self._history_for(tenant.dataset).observe(result.trace)
            self._remember_reuse(tenant, result)
            self._persist_release(tenant, result)
        await self._barrier()
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "results": [
                result_to_wire(result, include_trace=include_trace)
                for result, include_trace in zip(results, trace_flags)
            ],
        }

    async def handle_ingest(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/ingest`` — append transactions to a dataset.

        The append goes through the warm session's incremental
        ``extend`` path under the dataset's release lock, so it is
        serialized with in-flight releases (each of which pins the
        snapshot version it ran on) and a cold dataset is still built
        exactly once via the coalescer.  No ε is charged: ingestion
        changes which exact data later mechanisms read, it publishes
        nothing.
        """
        tenant = self._tenant_for(body)
        if not tenant.ingest:
            raise IngestNotAllowedError(tenant.tenant_id)
        transactions = parse_ingest_request(body)
        self._admit()
        try:
            session = await self.get_session(tenant.dataset)

            def append() -> Tuple[int, int]:
                log_store = self._dataset_stores.get(tenant.dataset)
                if log_store is None:
                    version = session.ingest(transactions)
                else:
                    # Journal-before-apply, under the dataset's
                    # release lock (this closure runs inside it).
                    # The batch is fully validated first — building
                    # the delta checks vocabulary bounds — so a bad
                    # batch answers 400 with neither store nor
                    # session touched; after that, journal and apply
                    # cannot diverge: if the WAL append fails the
                    # session was never advanced, and a crash before
                    # the sync barrier loses only an unacknowledged
                    # batch from both sides at once.
                    from repro.datasets.transactions import (
                        TransactionDatabase,
                    )

                    delta = TransactionDatabase(
                        transactions,
                        num_items=session.database.num_items,
                    )
                    log_store.record_append(
                        session.snapshot_version + 1, transactions
                    )
                    version = session.ingest(delta)
                    log_store.sync()
                return version, session.database.num_transactions

            version, total = await self._run_locked(
                tenant.dataset, append
            )
        finally:
            self._release_slot()
        # Releases stored on older snapshots stop being reuse sources
        # the moment the data moves; correctness never depends on this
        # (lookups key on the live snapshot version, which the ingest
        # just advanced), it only frees the stale entries.
        self._invalidate_reuse(tenant.dataset, version)
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "snapshot_version": version,
            "num_transactions": total,
            "appended": len(transactions),
        }

    async def handle_snapshot(self, tenant_id: str) -> Dict[str, Any]:
        """``GET /v1/snapshot?tenant=…`` — the dataset's data state.

        Reports the snapshot version and size the tenant's dataset
        currently serves.  A cold dataset is built (coalesced) rather
        than guessed at, and the read takes the dataset's lock so a
        concurrent ingest can never produce a torn version/size pair
        — the answer is always the version the next release would pin.
        """
        if not tenant_id:
            raise ValidationError(
                "snapshot queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        session = await self.get_session(tenant.dataset)
        async with self._lock_for(tenant.dataset):
            return {
                "tenant": tenant.tenant_id,
                "dataset": tenant.dataset,
                "snapshot_version": session.snapshot_version,
                "num_transactions": session.database.num_transactions,
                "num_items": session.database.num_items,
                "num_releases": session.num_releases,
            }

    def handle_plan(self, query: Mapping[str, str]) -> Dict[str, Any]:
        """``GET /v1/plan`` — dry-run ε pricing for a release.

        Prices the staged pipeline under the requested planner from
        public parameters only: the handler never builds a session,
        never touches the dataset, and spends nothing from the
        tenant's ledger — it only *reads* the ledger to report whether
        the quoted release would fit the remaining budget.  Analysts
        can therefore shop for (k, ε, planner) combinations for free
        before committing budget to a real release.
        """
        tenant_id = query.get("tenant", "")
        if not tenant_id:
            raise ValidationError(
                "plan queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        params = parse_plan_query(query)
        planner = params["planner"]
        if isinstance(planner, AutoPlanner) and planner.history is None:
            planner.bind(self._history_for(tenant.dataset))
        plan = build_plan(
            params["k"], params["epsilon"], planner=planner
        )
        remaining = tenant.remaining
        response = {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "remaining": remaining,
            "affordable": params["epsilon"] <= remaining * (1 + 1e-9),
            **plan.describe(),
        }
        if self._reuse_enabled:
            # Price the reuse path too — a hit would cost exactly 0.
            # Only a warm session knows the live snapshot version; a
            # cold dataset stays un-priced rather than building a
            # session inside a handler documented as data-free.
            session = self._sessions.get(tenant.dataset)
            if session is None:
                response["reuse"] = {
                    "available": False,
                    "reason": (
                        "dataset not warm: reuse is priced against "
                        "stored releases on the live snapshot"
                    ),
                }
            else:
                decision = self._reuse_lookup(
                    tenant, session.snapshot_version,
                    params["k"], params["epsilon"],
                )
                if decision.hit:
                    response["reuse"] = {
                        "available": True,
                        "epsilon": 0.0,
                        "source": decision.source.describe(),
                    }
                else:
                    response["reuse"] = {
                        "available": False,
                        "reason": decision.reason,
                    }
        return response

    def handle_budget(self, tenant_id: str) -> Dict[str, Any]:
        """``GET /v1/budget?tenant=…`` — the tenant's ledger snapshot."""
        if not tenant_id:
            raise ValidationError(
                "budget queries need a ?tenant=<id> parameter"
            )
        return self._registry.get(tenant_id).snapshot()

    def handle_results(self, query: Mapping[str, str]) -> Dict[str, Any]:
        """``GET /v1/results?tenant=…[&limit=N]`` — the tenant's
        stored releases.

        Re-reads what the tenant already paid ε for — published noisy
        payloads keyed by ``(dataset, snapshot_version)`` — which is
        free post-processing under DP, so no budget is touched.
        Serves the store's bounded most-recent window (the full
        history stays in the WAL); ``limit`` further trims to the
        newest N.  Only meaningful with persistence: without a state
        store the endpoint answers 400 rather than pretending an
        empty history is a durable one.
        """
        tenant_id = query.get("tenant", "")
        if not tenant_id:
            raise ValidationError(
                "results queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        if self._store is None:
            raise ValidationError(
                "the service runs without --state-dir; released "
                "results are not persisted"
            )
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                limit = -1
            if limit < 1:
                raise ValidationError(
                    f"?limit= must be a positive integer, "
                    f"got {query['limit']!r}"
                )
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "results": self._store.results.results_for(
                tenant.tenant_id, limit=limit
            ),
        }

    def handle_healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness, warm sessions, and (with a
        state store) what the last restart recovered."""
        persistence: Dict[str, Any] = {"enabled": self._store is not None}
        if self._store is not None:
            persistence["state_dir"] = str(self._store.root)
            persistence["recovery"] = self._store.recovery.to_wire()
        data_plane: Dict[str, Any] = {"plane": self._data_plane}
        if self._data_plane == "mmap":
            from repro.engine.mmap import process_resident_bytes

            resident = process_resident_bytes()
            if resident is not None:
                data_plane["process_resident_bytes"] = resident
            spilled = 0
            datasets: Dict[str, Any] = {}
            for name, session in sorted(self._sessions.items()):
                plane_stats = session.stats().get("data_plane")
                if plane_stats is not None:
                    datasets[name] = plane_stats
                    spilled += int(plane_stats.get("spilled_bytes", 0))
            data_plane["spilled_bytes"] = spilled
            data_plane["datasets"] = datasets
            if self._memory_budget_mb is not None:
                data_plane["memory_budget_bytes"] = (
                    self._memory_budget_mb * 1024 * 1024
                )
        return {
            "status": "ok",
            "datasets": self._registry.datasets(),
            "warm": sorted(self._sessions),
            "tenants": len(self._registry),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "persistence": persistence,
            "data_plane": data_plane,
        }

    def handle_metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — HTTP, pipeline, coalescer, and cache
        telemetry."""
        snapshot = {
            "http": self._metrics.snapshot(),
            "in_flight": self._in_flight,
            "max_inflight": self._max_inflight,
            "pipeline": self._stage_metrics.snapshot(),
            "reuse": self._reuse_metrics.snapshot(),
            "coalescer": self._coalescer.stats(),
            "datasets": {
                name: session.stats()
                for name, session in sorted(self._sessions.items())
            },
        }
        if self._store is not None:
            snapshot["store"] = {
                "ledger": self._store.ledger.stats(),
                "results": self._store.results.stats(),
            }
        return snapshot

    # -- HTTP plumbing ---------------------------------------------------
    async def dispatch(
        self, request: http.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one parsed request; never raises for expected errors."""
        try:
            if request.path == "/healthz" and request.method == "GET":
                return 200, self.handle_healthz()
            if request.path == "/metrics" and request.method == "GET":
                return 200, self.handle_metrics()
            if request.path == "/v1/budget" and request.method == "GET":
                return 200, self.handle_budget(
                    request.query.get("tenant", "")
                )
            if request.path == "/v1/results" and request.method == "GET":
                return 200, self.handle_results(request.query)
            if request.path == "/v1/plan" and request.method == "GET":
                return 200, self.handle_plan(request.query)
            if request.path == "/v1/snapshot" and request.method == "GET":
                return 200, await self.handle_snapshot(
                    request.query.get("tenant", "")
                )
            if request.path == "/v1/ingest" and request.method == "POST":
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_ingest(body)
            if request.path == "/v1/release" and request.method == "POST":
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_release(body)
            if (
                request.path == "/v1/release_batch"
                and request.method == "POST"
            ):
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_release_batch(body)
        except http.ProtocolError as error:
            return error.status, {
                "error": "protocol_error",
                "message": str(error),
            }
        except ReproError as error:
            return _status_for(error), error_to_wire(error)
        except Exception as error:  # noqa: BLE001 — boundary catch-all
            # A bug (or a loader failure) must answer as a JSON 500,
            # not kill the connection with an opaque reset.
            traceback.print_exc()
            return 500, {
                "error": "internal_error",
                "message": f"{type(error).__name__}: {error}",
            }
        if request.path in ROUTES:
            return 405, {
                "error": "method_not_allowed",
                "message": f"{request.method} not allowed on {request.path}",
            }
        return 404, {
            "error": "not_found",
            "message": f"no route for {request.path}",
        }

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except http.ProtocolError as error:
                    http.write_response(
                        writer,
                        error.status,
                        {"error": "protocol_error", "message": str(error)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                started = time.monotonic()
                status, payload = await self.dispatch(request)
                latency_ms = (time.monotonic() - started) * 1000.0
                route = (
                    request.path if request.path in ROUTES else "unknown"
                )
                self._metrics.record(route, status, latency_ms)
                http.write_response(
                    writer, status, payload, keep_alive=request.keep_alive
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # stop() cancels idle keep-alive connections; finish the
            # task normally or asyncio.streams' done-callback logs the
            # cancellation as an unhandled exception.
            pass
        finally:
            writer.close()
            try:
                await asyncio.shield(writer.wait_closed())
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 8008
    ) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        Pass ``port=0`` to bind an ephemeral port (tests/benchmarks).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener.

        Open keep-alive connections are cancelled and awaited so no
        half-closed sockets or orphan tasks outlive the service, and
        every warm session is closed — which closes the mmap shard
        stores of ``data_plane="mmap"`` backends.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()
        for session in self._sessions.values():
            session.close()
        if self._store is not None:
            # Barrier + close every WAL handle.  Purely tidy-up: the
            # durability contract never depends on a clean shutdown
            # (that is the whole point), and the store reopens handles
            # lazily if the service is started again.
            self._store.close()

    @asynccontextmanager
    async def serving(self, host: str = "127.0.0.1", port: int = 0):
        """``async with service.serving() as (host, port): …``"""
        bound = await self.start(host, port)
        try:
            yield bound
        finally:
            await self.stop()

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entrypoint's loop)."""
        if self._server is None:
            raise ValidationError("call start() before serve_forever()")
        await self._server.serve_forever()
