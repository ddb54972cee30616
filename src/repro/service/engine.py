""":class:`Engine` — the multiprocess execution pool with kernel affinity.

The preprocessing economics cut two ways in a serving deployment: the
compiled kernel is expensive to build and cheap to query, so the worst
thing a scheduler can do is bounce queries for one instance across
processes that each compile it from scratch.  The engine therefore
routes **by fingerprint affinity**: every request carries a spec whose
deterministic key (:func:`repro.service.protocol.spec_key`) maps to a
fixed worker, so each worker's bounded
:class:`~repro.service.protocol.WitnessSetCache` keeps exactly the hot
kernels *its* traffic needs resident — ship the task to where the
prepared data lives, never the data to the task.  A shared
:class:`~repro.service.store.KernelStore` (optional) backs the caches,
so even a worker's cold miss restores a snapshot instead of lowering.

Reproducibility: sampling ops follow the protocol's substream contract
(draw ``i`` of a request consumes substream ``i`` of the request seed),
so seeded results are byte-identical whether a request is answered
in-process (``workers=0``), by one worker, or by any of N workers —
scheduling is invisible in the output.

``workers=0`` runs everything in the calling process through the same
code path (the single-process baseline the benchmarks compare against);
``workers>0`` forks stdlib ``multiprocessing`` workers, one task queue
each (affinity is the queue choice) and one shared result queue.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import defaultdict
from types import TracebackType
from typing import TYPE_CHECKING, Any, Iterator, TypeAlias

from repro import obs
from repro.obs import names as metric_names
from repro.service.protocol import (
    CONTROL_OPS,
    WitnessSetCache,
    execute_group,
    spec_key,
)

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess
    from multiprocessing.queues import Queue as MPQueue

#: One routed work item: (batch id, group index, request group); ``None``
#: is the worker shutdown sentinel.
_Task: TypeAlias = "tuple[int, int, list[dict[str, Any]]] | None"

#: One worker answer: (batch id, group index, response group).
_Result: TypeAlias = "tuple[int, int, list[dict[str, Any]]]"

#: One request group with its spec key (``None``: control or spec-less).
_Group: TypeAlias = "tuple[str | None, list[dict[str, Any]]]"

#: How long Engine.execute waits on the result queue before checking
#: worker liveness (seconds).
_POLL_SECONDS = 0.25

#: How long a stats broadcast waits for worker answers before falling
#: back to cached/busy entries (seconds).  Short on purpose: a
#: monitoring query must never pin its caller for long.
_STATS_DEADLINE_SECONDS = 5.0


def _control_response(
    cache: WitnessSetCache, request: dict[str, Any], worker: int
) -> dict[str, Any]:
    """Answer a ``ping`` / ``stats`` control op from one cache.

    The stats payload carries this process's registry snapshot alongside
    the classic cache view, so the engine can merge pool-wide
    histograms/counters.
    """
    response: dict[str, Any] = {"id": request.get("id"), "ok": True, "worker": worker}
    if "__seq" in request:
        response["__seq"] = request["__seq"]
    response["result"] = (
        dict(cache.stats(), metrics=obs.metrics().snapshot())
        if request["op"] == "stats"
        else "pong"
    )
    return response


def _worker_main(
    worker_id: int,
    tasks: MPQueue[_Task],
    results: MPQueue[_Result],
    store_root: str | None,
    max_resident: int,
) -> None:
    """One pool worker: drain grouped requests, keep hot kernels resident."""
    from repro.service.store import KernelStore

    # Fork-started workers inherit a copy of the parent's metrics
    # registry; start from a clean one so the pool-wide aggregation
    # (which sums worker snapshots) never double-counts parent activity.
    obs.reset_metrics()
    # Workers restore via mmap: a warm pool start pages snapshot bytes
    # in lazily instead of copying every kernel up front.
    store = KernelStore(store_root, mmap=True) if store_root else None
    cache = WitnessSetCache(max_resident=max_resident, store=store)
    while True:
        item = tasks.get()
        if item is None:
            break
        batch_id, group_index, group = item
        if len(group) == 1 and group[0].get("op") in CONTROL_OPS:
            responses = [_control_response(cache, group[0], worker_id)]
        else:
            # One key per group: every request in it shares the spec.
            key = spec_key(group[0]["spec"]) if "spec" in group[0] else None
            responses = execute_group(cache, key, group, worker=worker_id)
        results.put((batch_id, group_index, responses))


class Engine:
    """Execute protocol requests, in-process or across a worker pool.

    Parameters
    ----------
    workers:
        Pool size.  ``0`` (default) executes in the calling process —
        same protocol, no IPC — which is both the embedded mode and the
        single-process baseline.
    store_root:
        Directory of the shared :class:`KernelStore` each worker (and
        the in-process cache) attaches to.  ``None`` falls back to the
        ``$REPRO_KERNEL_STORE`` process default (the same switch the
        facade honours); pass ``False`` to disable persistence
        explicitly.
    max_resident:
        Per-worker bound on resident witness sets.
    """

    workers: int
    store_root: str | None
    max_resident: int
    _batch_ids: Iterator[int]  # guarded-by: _pool_lock
    _processes: list[BaseProcess]  # guarded-by: _pool_lock
    _task_queues: list[MPQueue[_Task]]  # guarded-by: _pool_lock
    _results: MPQueue[_Result] | None
    _local_cache: WitnessSetCache | None
    _mp_context: BaseContext | None
    _pool_lock: threading.Lock
    _stats_cache: dict[int, dict[str, Any]]  # guarded-by: _pool_lock

    def __init__(
        self,
        workers: int = 0,
        store_root: str | os.PathLike[str] | bool | None = None,
        max_resident: int = 64,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be ≥ 0")
        self.workers = workers
        if store_root is None:
            store_root = os.environ.get("REPRO_KERNEL_STORE") or False
        self.store_root = (
            None
            if isinstance(store_root, bool) or not store_root
            else os.fspath(store_root)
        )
        self.max_resident = max_resident
        self._batch_ids = itertools.count()
        self._processes = []
        self._task_queues = []
        self._results = None
        self._local_cache = None
        self._mp_context = None
        # The shared result queue has exactly one legitimate consumer at
        # a time: a batch execution and a stats broadcast racing on it
        # would steal (and drop) each other's replies.  The lock makes
        # Engine safe to monitor from any thread, whatever the caller's
        # discipline.
        self._pool_lock = threading.Lock()
        #: Last answered stats entry per worker — the fallback a stats
        #: query reports for a worker that is alive but too busy to
        #: answer before the deadline.
        self._stats_cache = {}
        if workers == 0:
            store = None
            if self.store_root is not None:
                from repro.service.store import KernelStore

                store = KernelStore(self.store_root, mmap=True)
            self._local_cache = WitnessSetCache(
                max_resident=max_resident, store=store
            )
        else:
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            self._mp_context = context
            self._results = context.Queue()
            for worker_id in range(workers):
                self._task_queues.append(context.Queue())
                self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        """Start (or replace) pool worker ``worker_id`` on its queue."""
        context = self._mp_context
        results = self._results
        assert context is not None and results is not None
        process = context.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._task_queues[worker_id],
                results,
                self.store_root,
                self.max_resident,
            ),
            daemon=True,
        )
        process.start()
        if worker_id < len(self._processes):
            self._processes[worker_id] = process
        else:
            self._processes.append(process)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, key: str) -> int:
        """The worker owning fingerprint-affinity key ``key``.

        Accepts any string (spec keys are SHA-256 hex, but control ops
        route by their request id); non-hex keys are hashed first.
        """
        if self.workers == 0:
            return 0
        try:
            value = int(key[:16], 16)
        except ValueError:
            value = int.from_bytes(
                hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
            )
        return value % self.workers

    @staticmethod
    def group_requests(requests: list[dict[str, Any]]) -> list[_Group]:
        """Partition a batch into ``(spec key, group)`` pairs (order-stable).

        Control ops (``ping`` / ``stats``) and spec-less requests become
        singleton groups with key ``None``; everything else groups by
        spec key so :func:`~repro.service.protocol.execute_group` can
        coalesce the sample ops inside each group into one kernel pass.
        Each spec is hashed here, once.
        """
        grouped: defaultdict[str, list[dict[str, Any]]] = defaultdict(list)
        singletons: list[_Group] = []
        for request in requests:
            if request.get("op") in CONTROL_OPS or "spec" not in request:
                singletons.append((None, [request]))
            else:
                grouped[spec_key(request["spec"])].append(request)
        return [*grouped.items(), *singletons]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Answer a batch of requests; responses in request order.

        Groups by spec, routes each group to its affinity worker, waits
        for every response.  With ``workers=0`` the same grouping and
        coalescing run inline.
        """
        if not requests:
            return []
        # Tag every request with its batch position: responses are
        # matched back by this tag, never by the client-chosen id (two
        # clients in one batch may both say id "c0").  The ``__enq``
        # monotonic stamp is the anchor of the ``queue_wait`` timing
        # stage measured at execution start — comparable across
        # fork-started workers because CLOCK_MONOTONIC is system-wide.
        enqueued = time.monotonic()
        tagged = [
            dict(request, __seq=index, __enq=enqueued)
            for index, request in enumerate(requests)
        ]
        groups = self.group_requests(tagged)
        if self.workers == 0:
            cache = self._local_cache
            assert cache is not None  # always built when workers == 0
            responses: list[dict[str, Any]] = []
            for key, group in groups:
                if len(group) == 1 and group[0].get("op") in CONTROL_OPS:
                    responses.append(_control_response(cache, group[0], 0))
                else:
                    responses.extend(execute_group(cache, key, group))
        else:
            responses = self._execute_pooled(groups)
        return self._order_responses(requests, responses)

    @staticmethod
    def _order_responses(
        requests: list[dict[str, Any]], responses: list[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Match responses back to ``requests`` by the ``__seq`` tag."""
        by_seq: dict[int, dict[str, Any]] = {}
        for response in responses:
            seq = response.pop("__seq", None)
            if seq is not None and seq not in by_seq:
                by_seq[seq] = response
        ordered: list[dict[str, Any]] = []
        for index, request in enumerate(requests):
            response = by_seq.get(index)
            if response is None:  # pragma: no cover - a worker died mid-batch
                response = {
                    "id": request.get("id"),
                    "ok": False,
                    "error": "no response from worker",
                    "error_type": "EngineError",
                }
            ordered.append(response)
        return ordered

    def _execute_pooled(self, groups: list[_Group]) -> list[dict[str, Any]]:
        results = self._results
        assert results is not None  # always built when workers > 0
        with self._pool_lock:
            return self._drain_batch(groups, results)

    def _drain_batch(
        self, groups: list[_Group], results: MPQueue[_Result]
    ) -> list[dict[str, Any]]:
        batch_id = next(self._batch_ids)
        pending: dict[int, tuple[int, list[dict[str, Any]]]] = {}
        for group_index, (key, group) in enumerate(groups):
            worker = self.route(key if key is not None else str(group[0].get("id")))
            self._task_queues[worker].put((batch_id, group_index, group))
            pending[group_index] = (worker, group)
        responses: list[dict[str, Any]] = []
        while pending:
            try:
                got_batch, group_index, group_responses = results.get(
                    timeout=_POLL_SECONDS
                )
            except queue_module.Empty:
                # A dead worker never answers: fail its pending groups
                # instead of waiting forever (siblings keep serving).
                dead = {
                    worker
                    for worker, process in enumerate(self._processes)
                    if not process.is_alive()
                }
                if dead:
                    for group_index, (worker, group) in list(pending.items()):
                        if worker in dead:
                            pending.pop(group_index)
                            responses.extend(
                                {
                                    "id": request.get("id"),
                                    "__seq": request.get("__seq"),
                                    "ok": False,
                                    "error": f"worker {worker} died",
                                    "error_type": "EngineError",
                                    "worker": worker,
                                }
                                for request in group
                            )
                    # The in-flight batch has been failed fast; respawn
                    # the dead workers so the *next* batch is served by
                    # a full pool instead of a shrinking one.
                    self._restart_workers(dead)
                continue
            if got_batch != batch_id:  # pragma: no cover - stale batch remnants
                continue
            if pending.pop(group_index, None) is not None:
                responses.extend(group_responses)
        return responses

    def _restart_workers(self, dead: set[int]) -> None:
        """Replace dead pool workers (counted as deaths + restarts).

        The replacement worker keeps the dead worker's slot (affinity
        routing untouched) but gets a *fresh* task queue: a process
        terminated while blocked in ``Queue.get`` may die holding the
        queue's reader lock, which would deadlock any successor on the
        same queue.  Tasks stranded on the old queue were already failed
        fast above.  The replacement's witness-set cache starts cold but
        warm-starts from the shared kernel store.
        """
        context = self._mp_context
        assert context is not None  # only reached when workers > 0
        registry = obs.metrics()
        for worker in sorted(dead):
            if self._processes[worker].is_alive():  # pragma: no cover - raced back
                continue
            registry.counter(metric_names.ENGINE_WORKER_DEATHS).inc()
            # The replacement starts cold: its predecessor's snapshot
            # must not resurface as a "busy" stats fallback.
            self._stats_cache.pop(worker, None)
            self._task_queues[worker] = context.Queue()
            self._spawn_worker(worker)
            registry.counter(metric_names.ENGINE_WORKER_RESTARTS).inc()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def stats(
        self, per_worker: bool = False
    ) -> dict[str, Any] | list[dict[str, Any]]:
        """Pool statistics: aggregated by default, per-worker on request.

        The default returns one merged dict — counters summed,
        histograms merged bucket-wise (see
        :func:`repro.obs.merge_snapshots`) — plus ``workers``/``alive``
        pool gauges.  ``per_worker=True`` returns the raw per-worker
        entries (one for ``workers=0``), each carrying that worker's
        cache view and metrics snapshot.
        """
        entries = self._worker_stats()
        if per_worker:
            return entries
        return self.aggregate_stats(entries)

    @staticmethod
    def aggregate_stats(entries: list[dict[str, Any]]) -> dict[str, Any]:
        """Merge per-worker stats entries into one pool-wide summary.

        The one writer of the witness-cache and kernel-store series:
        the cache and store counts live only on each worker's
        :class:`WitnessSetCache` / ``StoreStats``, and their sums here
        become ``repro_witness_cache_*_total`` / ``repro_store_*_total``
        counters in the merged ``metrics`` snapshot.
        """
        aggregated: dict[str, Any] = {
            "workers": len(entries),
            "alive": sum(1 for entry in entries if entry.get("alive")),
            "resident": 0,
            "hits": 0,
            "misses": 0,
        }
        store_totals: dict[str, int] = {}
        snapshots: list[dict[str, Any]] = []
        for entry in entries:
            aggregated["resident"] += entry.get("resident", 0)
            aggregated["hits"] += entry.get("hits", 0)
            aggregated["misses"] += entry.get("misses", 0)
            for key, value in (entry.get("store") or {}).items():
                store_totals[key] = store_totals.get(key, 0) + value
            snapshot = entry.get("metrics")
            if snapshot:
                snapshots.append(snapshot)
        counters = {
            metric_names.CACHE_HITS: aggregated["hits"],
            metric_names.CACHE_MISSES: aggregated["misses"],
        }
        if store_totals:
            from repro.service.store import STORE_SERIES

            aggregated["store"] = store_totals
            counters.update(
                (STORE_SERIES[key], value) for key, value in store_totals.items()
            )
        snapshots.append({"counters": counters})
        # Worker-process metrics plus the series above: with workers=0 the
        # engine shares the embedding process's registry, which the caller
        # (the server layer) merges in itself — merging it here would
        # double-count.
        aggregated["metrics"] = obs.merge_snapshots(snapshots)
        return aggregated

    def _worker_stats(self) -> list[dict[str, Any]]:
        """Per-worker cache stats (one entry for workers=0).

        Dead workers are reported as ``{"worker": i, "alive": False}``
        instead of hanging the caller — a monitoring query must never
        take the server down.  A worker that is alive but too busy to
        answer before the deadline is reported as ``alive`` and
        ``busy`` (with its last answered snapshot, marked ``stale``,
        when one exists) — never misdiagnosed as dead.
        """
        if self.workers == 0:
            cache = self._local_cache
            assert cache is not None  # always built when workers == 0
            return [dict(cache.stats(), worker=0, alive=True)]
        results = self._results
        assert results is not None  # always built when workers > 0
        with self._pool_lock:
            batch_id = next(self._batch_ids)
            out: list[dict[str, Any]] = []
            expected: set[int] = set()
            # Broadcast: one stats request directly to each live worker.
            for worker in range(self.workers):
                if not self._processes[worker].is_alive():
                    out.append({"worker": worker, "alive": False})
                    continue
                self._task_queues[worker].put(
                    (batch_id, worker, [{"id": f"stats-{worker}", "op": "stats"}])
                )
                expected.add(worker)
            deadline = time.monotonic() + _STATS_DEADLINE_SECONDS
            answered: set[int] = set()
            while answered < expected and time.monotonic() < deadline:
                try:
                    got_batch, worker, group_responses = results.get(
                        timeout=_POLL_SECONDS
                    )
                except queue_module.Empty:
                    for worker in expected - answered:
                        if not self._processes[worker].is_alive():
                            answered.add(worker)
                            out.append({"worker": worker, "alive": False})
                    continue
                if got_batch != batch_id:  # pragma: no cover - stale remnants
                    continue
                response = group_responses[0]
                answered.add(worker)
                entry = dict(response["result"], worker=worker, alive=True)
                self._stats_cache[worker] = entry
                out.append(entry)
            for worker in expected - answered:  # pragma: no cover - busy worker
                if not self._processes[worker].is_alive():
                    out.append({"worker": worker, "alive": False})
                    continue
                cached = self._stats_cache.get(worker)
                entry = dict(cached) if cached else {}
                entry.update(worker=worker, alive=True, busy=True)
                if cached:
                    entry["stale"] = True
                out.append(entry)
        return sorted(out, key=lambda entry: entry["worker"])

    def close(self) -> None:
        """Shut the pool down (idempotent).

        Holds ``_pool_lock`` end to end: a stats broadcast or batch
        drain on another thread iterates ``_processes`` /
        ``_task_queues`` and consumes the shared result queue, so
        tearing the pool down under its feet would send sentinels into
        a live broadcast and clear lists mid-iteration.  Taking the
        lock sequences shutdown after any in-flight consumer.
        """
        with self._pool_lock:
            for tasks in self._task_queues:
                try:
                    tasks.put(None)
                except (ValueError, OSError):  # pragma: no cover - already closed
                    pass
            for process in self._processes:
                process.join(timeout=5)
            for process in self._processes:
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=1)
            self._processes.clear()
            self._task_queues.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<Engine workers={self.workers} store={self.store_root!r}>"


__all__ = ["Engine"]
