"""Multi-process PrivBasis cluster: N worker services + one router.

:class:`PrivBasisCluster` runs ``num_workers`` copies of
:class:`~repro.service.app.PrivBasisService` as **spawned** OS
processes, all opened on the *same* ``--state-dir`` in shared mode,
fronted by one :class:`~repro.service.router.ClusterRouter`.  The
pieces compose into one logical service:

* **ε admission is cluster-wide.**  Every worker's registry hook goes
  through the shared ledger's flock-serialized
  :meth:`~repro.store.ledger.SharedLedgerJournal.debit_within_limit`,
  so two workers racing a tenant's last ε serialize on the ledger
  file lock — exactly one wins, the other answers 403.
* **Datasets have a single live owner.**  The router's rendezvous
  hashing sends all of a dataset's traffic to one worker, which
  serializes ingests/releases on its per-dataset lock and coalesces
  cold builds; ownership moves only when that worker dies.
* **Workers are crash-only.**  The supervisor restarts a dead (or
  router-marked-down) worker as a *fresh* process, which recovers its
  state from the store exactly like a single-process restart would —
  journaled debits, replayed ingest logs, rehydrated results.  A
  worker never rejoins routing with stale in-memory state.

Fault injection for tests and the soak benchmark goes through
:meth:`PrivBasisCluster.kill_worker` (``SIGKILL`` — no cleanup, the
honest crash).  See ``docs/operations.md`` for the deployment runbook.
"""

from __future__ import annotations

import asyncio
import importlib
import multiprocessing
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import (
    ReproError,
    ValidationError,
    WorkerUnavailableError,
)
from repro.service.router import ClusterRouter

__all__ = [
    "ClusterConfig",
    "PrivBasisCluster",
    "resolve_loader_spec",
]

#: How long a spawning worker gets to report its bound port before the
#: supervisor gives up on it (spawn + imports + store recovery).
WORKER_BOOT_TIMEOUT = 60.0

#: Supervisor poll interval for dead / marked-down workers.
MONITOR_INTERVAL = 0.25

_PARALLEL_MODES = ("bitmap", "threads")


def resolve_loader_spec(spec: str):
    """Resolve a ``"package.module:function"`` dataset-loader spec.

    Spawned workers cannot be handed a closure (it will not pickle),
    so cluster configs name their loader by import path instead; each
    worker process imports and resolves it at startup.  Dotted
    attribute paths after the colon are followed, mirroring
    ``setuptools`` entry-point syntax.
    """
    module_name, separator, attribute = str(spec).partition(":")
    if not separator or not module_name or not attribute:
        raise ValidationError(
            f"loader spec must look like 'package.module:function', "
            f"got {spec!r}"
        )
    try:
        target: Any = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise ValidationError(
            f"cannot resolve loader spec {spec!r}: {error}"
        )
    if not callable(target):
        raise ValidationError(
            f"loader spec {spec!r} resolves to non-callable {target!r}"
        )
    return target


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a worker process needs to serve — and nothing that
    cannot cross a ``spawn`` boundary (the whole object is pickled).

    Attributes
    ----------
    tenants:
        The :meth:`~repro.service.registry.TenantRegistry.from_mapping`
        shape: ``{tenant_id: {"dataset": …, "epsilon_limit": …}}``.
        Every worker builds its own registry from this, so all workers
        enforce identical limits against the shared ledger.
    state_dir:
        The shared durable state directory — **required**: cluster
        workers coordinate ε admission and recovery through it.
    num_workers:
        Worker process count.
    fsync:
        WAL fsync policy, as for a single service.
    loader_spec:
        Optional ``"package.module:function"`` dataset loader
        (:func:`resolve_loader_spec`); ``None`` uses the built-in
        dataset registry.
    max_inflight:
        Per-worker admission bound on concurrent releases.
    parallel, shard_workers, shard_size:
        Per-worker counting plane, as for ``python -m repro.service``
        (``"bitmap"`` default, or ``"threads"`` for a thread-sharded
        backend).
    data_plane, memory_budget_mb:
        ``"memory"`` (default) keeps worker datasets RAM-resident;
        ``"mmap"`` has each worker spill its datasets into
        memory-mapped shard segments under the shared state dir
        (unique per-build directories, so workers never race) and
        serve out-of-core with the given resident-cache budget.
    reuse:
        Per-worker reuse plane toggle (``--no-reuse`` sets this
        ``False``).  Each worker looks up reuse sources in the shared
        result store it itself replayed at startup; hits are pure
        post-processing, so workers answering from different replay
        points is safe — at worst a worker misses and runs fresh.
    """

    tenants: Mapping[str, Mapping[str, object]]
    state_dir: str
    num_workers: int = 2
    fsync: str = "batch"
    loader_spec: Optional[str] = None
    max_inflight: int = 8
    parallel: str = "bitmap"
    shard_workers: Optional[int] = None
    shard_size: Optional[int] = None
    data_plane: str = "memory"
    memory_budget_mb: Optional[int] = None
    reuse: bool = True

    def validate(self) -> None:
        """Fail fast on a config no worker could start from."""
        if not self.state_dir:
            raise ValidationError(
                "cluster workers need a state_dir: ε admission is "
                "coordinated through the shared durable ledger"
            )
        if self.num_workers < 1:
            raise ValidationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.parallel not in _PARALLEL_MODES:
            raise ValidationError(
                f"parallel must be one of {_PARALLEL_MODES}, "
                f"got {self.parallel!r}"
            )
        if self.data_plane not in ("memory", "mmap"):
            raise ValidationError(
                f"data_plane must be 'memory' or 'mmap', "
                f"got {self.data_plane!r}"
            )
        if self.memory_budget_mb is not None and self.memory_budget_mb < 1:
            raise ValidationError(
                f"memory_budget_mb must be >= 1, "
                f"got {self.memory_budget_mb}"
            )
        if not isinstance(self.tenants, Mapping) or not self.tenants:
            raise ValidationError(
                "cluster config needs a non-empty tenants mapping"
            )
        if self.loader_spec is not None:
            spec = str(self.loader_spec)
            module_name, separator, attribute = spec.partition(":")
            if not separator or not module_name or not attribute:
                raise ValidationError(
                    f"loader spec must look like "
                    f"'package.module:function', got {spec!r}"
                )

    def tenant_datasets(self) -> Dict[str, str]:
        """``{tenant_id: dataset}`` — what the router hashes on."""
        return {
            str(tenant): str(entry.get("dataset", ""))
            for tenant, entry in self.tenants.items()
            if isinstance(entry, Mapping)
        }


async def _worker_serve(index: int, config: ClusterConfig, conn) -> None:
    """Build and run one worker service, reporting its port (or a
    startup error) through the pipe before settling into serving."""
    try:
        from repro.service.app import PrivBasisService, backend_factory_for
        from repro.service.registry import TenantRegistry

        registry = TenantRegistry.from_mapping(config.tenants)
        loader = (
            resolve_loader_spec(config.loader_spec)
            if config.loader_spec is not None
            else None
        )
        service = PrivBasisService(
            registry,
            dataset_loader=loader,
            backend_factory=backend_factory_for(
                config.parallel,
                config.data_plane,
                config.shard_size,
                config.shard_workers,
            ),
            max_inflight=config.max_inflight,
            state_dir=config.state_dir,
            fsync=config.fsync,
            shared_state=True,
            data_plane=config.data_plane,
            memory_budget_mb=config.memory_budget_mb,
            shard_size=config.shard_size,
            shard_workers=config.shard_workers,
            reuse=config.reuse,
        )
        _host, port = await service.start("127.0.0.1", 0)
    except Exception as error:  # noqa: BLE001 — crosses the pipe
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ok", port))
    conn.close()
    await service.serve_forever()


def _worker_main(index: int, config: ClusterConfig, conn) -> None:
    """Spawn entrypoint for one worker process.

    Module-level (and handed only picklable arguments) so the
    ``spawn`` start method can import and call it.  The worker is
    crash-only: it never runs shutdown cleanup — the supervisor
    terminates it, and durability never depends on a clean exit.
    """
    try:
        asyncio.run(_worker_serve(index, config, conn))
    except KeyboardInterrupt:
        pass


class PrivBasisCluster:
    """Supervise N worker processes behind one router.

    ``await start()`` spawns every worker, waits for each to report
    its ephemeral port, registers them with the router, binds the
    router's listener, and starts the monitor task.  From then on the
    monitor restarts any worker that died (or that the router marked
    down after a failed proxy) as a fresh process — recovery is the
    store's job, not the supervisor's.

    Use :meth:`serving` in tests and benchmarks::

        cluster = PrivBasisCluster(config)
        async with cluster.serving() as (host, port):
            ...  # drive it with ServiceClient(host, port, ...)
    """

    def __init__(self, config: ClusterConfig) -> None:
        config.validate()
        self._config = config
        self._context = multiprocessing.get_context("spawn")
        self._processes: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._restarts = 0
        self._stopping = False
        self._monitor_task: Optional[asyncio.Task] = None
        self._router = ClusterRouter(
            config.tenant_datasets(), info=self._cluster_info
        )

    # -- introspection ---------------------------------------------------
    @property
    def router(self) -> ClusterRouter:
        """The cluster's front door (clients connect to its port)."""
        return self._router

    @property
    def restarts(self) -> int:
        """Workers restarted by the monitor since :meth:`start`."""
        return self._restarts

    def worker_pid(self, index: int) -> Optional[int]:
        """The OS pid of worker ``index`` (``None`` before spawn)."""
        process = self._processes.get(index)
        return process.pid if process is not None else None

    def _cluster_info(self) -> Dict[str, Any]:
        return {
            "cluster": {
                "num_workers": self._config.num_workers,
                "restarts": self._restarts,
                "pids": {
                    str(index): process.pid
                    for index, process in sorted(self._processes.items())
                },
            }
        }

    # -- worker lifecycle ------------------------------------------------
    async def _spawn_worker(self, index: int) -> None:
        """Spawn worker ``index`` and register it once it reports in.

        Raises :class:`~repro.errors.WorkerUnavailableError` if the
        process dies before binding and
        :class:`~repro.errors.ValidationError` if it reports a
        startup error (bad config fails loudly, not in a retry loop).
        """
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(index, self._config, child_conn),
            name=f"privbasis-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()

        def await_handshake() -> Tuple[str, Any]:
            deadline = time.monotonic() + WORKER_BOOT_TIMEOUT
            while time.monotonic() < deadline:
                try:
                    if parent_conn.poll(0.2):
                        return parent_conn.recv()
                except (EOFError, OSError):
                    break
                if not process.is_alive():
                    break
            process.join(timeout=1)
            if process.is_alive():
                raise WorkerUnavailableError(
                    f"worker {index} did not report a port within "
                    f"{WORKER_BOOT_TIMEOUT:g}s"
                )
            raise WorkerUnavailableError(
                f"worker {index} died during startup"
            )

        loop = asyncio.get_running_loop()
        try:
            tag, value = await loop.run_in_executor(
                None, await_handshake
            )
        except (WorkerUnavailableError, asyncio.CancelledError):
            # Covers stop() cancelling the monitor mid-respawn: the
            # half-born worker must not be orphaned.
            if process.is_alive():
                process.kill()
            process.join(timeout=5)
            parent_conn.close()
            raise
        parent_conn.close()
        if tag == "error":
            if process.is_alive():
                process.kill()
            process.join(timeout=5)
            raise ValidationError(
                f"worker {index} failed to start: {value}"
            )
        self._processes[index] = process
        self._router.set_worker(index, "127.0.0.1", int(value))

    def kill_worker(self, index: int) -> None:
        """``SIGKILL`` worker ``index`` — fault injection.

        No cleanup runs in the worker (that is the point): in-flight
        requests on it fail per the router's retry/503 semantics, and
        the monitor respawns a fresh process that recovers from the
        shared store.
        """
        process = self._processes.get(index)
        if process is not None and process.is_alive():
            process.kill()

    async def _monitor(self) -> None:
        """Restart dead or marked-down workers until :meth:`stop`."""
        while not self._stopping:
            await asyncio.sleep(MONITOR_INTERVAL)
            if self._stopping:
                return
            for index in range(self._config.num_workers):
                process = self._processes.get(index)
                dead = process is None or not process.is_alive()
                if not dead and index not in self._router.down_indexes():
                    continue
                # A marked-down-but-alive worker is killed rather than
                # re-registered: it left routing because a proxy to it
                # failed, and only a fresh process (which recovers
                # from the store) may rejoin — never stale memory.
                if process is not None:
                    if process.is_alive():
                        process.kill()
                    process.join(timeout=5)
                self._router.mark_down(index)
                try:
                    await self._spawn_worker(index)
                except ReproError:
                    continue  # retry on the next monitor tick
                self._restarts += 1

    # -- lifecycle -------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Spawn all workers, bind the router, start the monitor.

        Returns the router's bound ``(host, port)``.
        """
        for index in range(self._config.num_workers):
            await self._spawn_worker(index)
        bound = await self._router.start(host, port)
        self._monitor_task = asyncio.ensure_future(self._monitor())
        return bound

    async def stop(self) -> None:
        """Stop the monitor, the router, and every worker process."""
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        await self._router.stop()
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._processes.clear()

    @asynccontextmanager
    async def serving(self, host: str = "127.0.0.1", port: int = 0):
        """``async with cluster.serving() as (host, port): …``"""
        bound = await self.start(host, port)
        try:
            yield bound
        finally:
            await self.stop()
