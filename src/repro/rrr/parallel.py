"""Resident process-parallel RRR sampling for multi-core hosts.

The vectorized samplers already saturate one core's memory bandwidth;
on multi-core machines (the paper's host has 16) RRR generation is
embarrassingly parallel — Ripples' whole design point — so this module
fans a request out over a process pool.  The pool is *resident*: a
:class:`SamplerPool` owns one :class:`ProcessPoolExecutor` per graph,
delivers the CSC arrays to workers once, and stays alive across every
estimation phase and final top-up of an IMM run — and, through
:func:`shared_pool`, across all runs of a sweep.  Re-building the
executor per call (the old ``sample_rrr_parallel`` behaviour)
re-shipped the whole graph every time, which dominated the fan-out
cost it was supposed to amortize.

Data plane (:mod:`repro.shm`): with ``data_plane="shm"`` (the default
wherever OS shared memory works) the graph is *published once* into
shared segments and every worker attaches the same physical pages
zero-copy — ``n_jobs`` workers hold one copy of the graph instead of
``n_jobs`` private ones, and an executor rebuild after a crash
re-attaches instead of re-shipping.  Worker results come back
log-encoded (:class:`~repro.shm.transport.PackedResult`) at
``bit_length(x_max)`` bits per element instead of raw int64 pickles,
and the parent decode is bit-identical to the raw path.  With
``data_plane="pickle"`` (or where shared memory is unavailable) the
original pickled-initializer / raw-result path runs unchanged.

Each call splits the set count into one job per worker; every job
carries an independent spawned RNG stream and results merge in job
order, so a given ``(rng, n_jobs)`` pair is fully deterministic no
matter which OS process picks up which job.

Jobs receive the *spawned* :class:`numpy.random.SeedSequence` children
themselves (they pickle cleanly), so the stream a worker runs is
bit-for-bit the stream ``spawn_generators`` would hand out
parent-side.  Re-seeding ``PCG64`` from a generator's raw 128-bit
state would instead re-hash that state through SeedSequence and drop
the stream increment — a silent loss of the independence guarantee
this module promises.

Supervision (:mod:`repro.resilience`): every fan-out runs under a
supervision loop — per-round timeouts, bounded deterministic retries,
``BrokenProcessPool`` recovery that rebuilds the executor and re-runs
*only* the lost jobs, and serial in-process degradation once the retry
budget is spent.  Because each job's ``SeedSequence`` pins its stream,
a retried or degraded job reproduces its exact sets, so recovery never
changes the merged result — only wall-clock.  The
:class:`~repro.resilience.report.ResilienceReport` of what happened
rides on the returned trace.
"""

from __future__ import annotations

import atexit
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.resilience.deadline import active_deadline
from repro.resilience.faults import active_spec as active_fault_spec
from repro.resilience.faults import fire as fire_fault
from repro.resilience.options import DEFAULT_RESILIENCE, ResilienceOptions
from repro.resilience.report import ResilienceReport
from repro.rrr.collection import RRRCollection
from repro.rrr.trace import SampleTrace, empty_trace, publish_counters
from repro.shm.segments import resolve_data_plane
from repro.shm.transport import PackedResult
from repro.utils.errors import (
    SamplingTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.utils.rng import spawn_seed_sequences

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.shm.arena import ChunkArena
    from repro.shm.graph import SharedGraph

_WORKER_GRAPH: Optional[DirectedGraph] = None
_WORKER_ATTACHMENT = None


def _init_worker(mode: str, payload):
    """Executor initializer: materialize the graph once per worker.

    ``mode="pickle"`` receives the CSC arrays themselves (a private
    copy per worker); ``mode="shm"`` receives a
    :class:`~repro.shm.graph.SharedGraphHandle` and attaches the
    published segments zero-copy.
    """
    global _WORKER_GRAPH, _WORKER_ATTACHMENT
    if mode == "shm":
        from repro.shm.graph import attach_graph

        _WORKER_ATTACHMENT = attach_graph(payload)
        _WORKER_GRAPH = _WORKER_ATTACHMENT.graph
    else:
        indptr, indices, weights = payload
        _WORKER_GRAPH = DirectedGraph(indptr, indices, weights)


def _worker_sample(args):
    (
        model,
        num_sets,
        seed_seq,
        eliminate_sources,
        batch_size,
        visited_mode,
        pack_results,
        job_index,
        attempt,
        fault_spec,
    ) = args
    # injected faults (CI drills) fire before any sampling work; the
    # schedule is a pure function of (job_index, attempt), so retries
    # of a once-faulted job run clean and reproduce its exact sets
    fire_fault(fault_spec, job_index, attempt)
    from repro.rrr import get_sampler

    sampler = get_sampler(model)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    collection, trace = sampler(
        _WORKER_GRAPH,
        num_sets,
        rng=rng,
        eliminate_sources=eliminate_sources,
        batch_size=batch_size,
        visited_mode=visited_mode,
    )
    if pack_results:
        return PackedResult.encode(
            collection.flat,
            collection.offsets,
            collection.sources,
            trace,
            _WORKER_GRAPH.n,
        )
    return (
        collection.flat,
        collection.offsets,
        collection.sources,
        trace,
    )


class SamplerPool:
    """A persistent worker pool sampling RRR sets for one graph.

    The executor is created lazily on the first call that actually fans
    out (so ``n_jobs=1`` pools never touch multiprocessing) and is then
    reused by every subsequent :meth:`sample` call until :meth:`close`.
    The graph ships to each worker exactly once, at pool start-up.

    Determinism contract: ``sample`` spawns fresh ``SeedSequence``
    children from the caller's ``rng`` on every call, so for a fixed
    ``(rng, n_jobs)`` the produced collection is bit-identical across
    calls, across pool instances, and across interleaved reuse — merge
    order is job order, never completion order.  Small requests
    (``num_sets < 2 * n_jobs``) fall through to the in-process sampler
    using the caller's ``rng`` directly, matching the serial path.
    Supervision (timeouts, retries, executor rebuilds, serial
    degradation) preserves the contract: every recovery path re-runs a
    job from its own pinned ``SeedSequence``.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        n_jobs: int,
        data_plane: Optional[str] = None,
        mp_context: Optional[str] = None,
    ):
        if graph.weights is None:
            raise ValidationError("parallel sampling requires a weighted graph")
        if n_jobs < 1:
            raise ValidationError("n_jobs must be >= 1")
        if mp_context is not None and mp_context not in ("fork", "spawn", "forkserver"):
            raise ValidationError(
                f"unknown mp_context {mp_context!r}; "
                "choose fork, spawn, or forkserver (or None for the default)"
            )
        self.graph = graph
        self.n_jobs = int(n_jobs)
        self.data_plane = resolve_data_plane(data_plane)
        #: multiprocessing start method for the workers (None = platform
        #: default).  Under "spawn" the pickle plane genuinely ships one
        #: private graph copy per worker, whereas "fork" hides it behind
        #: copy-on-write — which is why cross-platform memory numbers
        #: (and the residency benchmark) use spawn explicitly.
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shared_graph: "Optional[SharedGraph]" = None
        self._ever_started = False
        self._closed = False
        # guards executor creation: different-key substrates served by
        # concurrent threads can share one pool, and two racing
        # _ensure_executor calls must not each start a worker fleet
        self._exec_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the worker processes exist yet."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ended this pool's life (terminal)."""
        return self._closed

    def _initializer_args(self) -> tuple:
        """``(mode, payload)`` for :func:`_init_worker` under the
        resolved data plane, publishing the shared graph on first use.

        A rebuild after ``_abandon_executor`` reuses the segments
        already published — re-attach, never re-publish — which is what
        makes crash recovery O(mmap) instead of O(graph bytes).
        Publish failures (exotic /dev/shm restrictions) degrade the
        pool to the pickle plane once, with a warning.
        """
        if self.data_plane == "shm":
            if self._shared_graph is None or self._shared_graph.closed:
                from repro.shm.graph import SharedGraph

                try:
                    self._shared_graph = SharedGraph(self.graph)
                except Exception as exc:
                    warnings.warn(
                        f"shared-memory graph publish failed ({exc!r}); "
                        "falling back to the pickle data plane",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    obs.counter_add("shm.fallbacks", 1)
                    self.data_plane = "pickle"
            else:
                obs.counter_add("shm.graph_reattached", 1)
        if self.data_plane == "shm":
            return ("shm", self._shared_graph.handle())
        return (
            "pickle",
            (self.graph.indptr, self.graph.indices, self.graph.weights),
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._exec_lock:
            if self._executor is None:
                rebuild = self._ever_started
                start = time.monotonic()
                context = None
                if self.mp_context is not None:
                    import multiprocessing

                    context = multiprocessing.get_context(self.mp_context)
                with obs.span("rrr.parallel.pool_start"):
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.n_jobs,
                        mp_context=context,
                        initializer=_init_worker,
                        initargs=self._initializer_args(),
                    )
                self._ever_started = True
                if rebuild:
                    # the satellite metric: how fast a rebuilt executor got
                    # its graph back (reattach on shm, full reship on pickle)
                    obs.counter_add(
                        "rrr.parallel.rebuild_attach_seconds",
                        time.monotonic() - start,
                    )
                obs.counter_add("rrr.parallel.pool_created", 1)
            else:
                obs.counter_add("rrr.parallel.pool_reused", 1)
            return self._executor

    def _abandon_executor(self, terminate: bool) -> None:
        """Drop the executor (broken, or holding hung workers).

        ``terminate=True`` force-kills the worker processes — the only
        way to reclaim a worker stuck past ``job_timeout``, since
        ``concurrent.futures`` cannot cancel a running task.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values() or [])
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # already-broken executors can refuse shutdown
            pass
        if terminate:
            for proc in processes:
                try:
                    proc.terminate()
                except Exception:
                    pass
        obs.counter_add("rrr.parallel.pool_rebuilt", 1)

    def close(self) -> None:
        """Shut the worker processes down; terminal and idempotent.

        After ``close`` the pool refuses to sample; registry lookups
        (:func:`shared_pool`) evict closed pools and hand out fresh
        ones, so stale registry state can never serve a dead executor.
        """
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=True)
            except Exception:  # a broken pool is already as shut as it gets
                pass
            self._executor = None
        if self._shared_graph is not None:
            self._shared_graph.close()
            self._shared_graph = None
        self._closed = True

    def __enter__(self) -> "SamplerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sampling ------------------------------------------------------------
    def sample(
        self,
        model: str,
        num_sets: int,
        rng=None,
        eliminate_sources: bool = False,
        batch_size: int = 16384,
        visited_mode: Optional[str] = None,
        resilience: Optional[ResilienceOptions] = None,
        arena: "Optional[ChunkArena]" = None,
    ) -> tuple[RRRCollection, SampleTrace]:
        """Sample ``num_sets`` RRR sets across the pool's workers.

        Semantically identical to the single-process samplers (same
        distribution; deterministic for fixed ``rng`` and ``n_jobs``,
        and across data planes), under the supervision policy of
        ``resilience`` (defaults to
        :data:`~repro.resilience.options.DEFAULT_RESILIENCE`: no
        timeout, 2 retries, serial fallback).  With ``arena`` (a
        :class:`~repro.shm.arena.ChunkArena`) the merged collection's
        arrays live in shared-memory segments owned by the arena —
        packed worker payloads decode straight into them.
        """
        if self._closed:
            raise ValidationError("SamplerPool is closed")
        if num_sets < 0:
            raise ValidationError("num_sets must be non-negative")
        if self.n_jobs == 1 or num_sets < 2 * self.n_jobs:
            from repro.rrr import get_sampler

            return get_sampler(model)(
                self.graph,
                num_sets,
                rng=rng,
                eliminate_sources=eliminate_sources,
                batch_size=batch_size,
                visited_mode=visited_mode,
            )

        res = resilience if resilience is not None else DEFAULT_RESILIENCE
        children = spawn_seed_sequences(rng, self.n_jobs)
        share = num_sets // self.n_jobs
        counts = [share] * self.n_jobs
        counts[-1] += num_sets - share * self.n_jobs
        pack_results = self.data_plane == "shm"
        jobs = [
            (
                model.upper(),
                counts[i],
                children[i],
                eliminate_sources,
                batch_size,
                visited_mode,
                pack_results,
            )
            for i in range(self.n_jobs)
        ]
        obs.counter_add("rrr.parallel.jobs", self.n_jobs)
        report = ResilienceReport()
        with obs.span("rrr.parallel.sample"):
            results = self._supervise(jobs, res, report)

        with obs.span("rrr.parallel.merge"):
            collection, trace = self._merge(results, arena)
            trace.resilience = report
        report.publish()
        self._publish_worker_counters(trace, results, jobs, report)
        return collection, trace

    @staticmethod
    def _publish_worker_counters(
        trace: SampleTrace, results: list, jobs: list, report: ResilienceReport
    ) -> None:
        """Publish ``rrr.*`` for the sets sampled in worker processes.

        A worker's own counters stay in the worker; the merged trace
        carries the same totals.  Jobs that degraded to in-process
        sampling published theirs already, so they are left out.
        """
        if not obs.enabled():
            return
        local = {e["job"] for e in report.events if e["kind"] == "degraded"}
        if local:
            trace = empty_trace()
            for i, r in enumerate(results):
                if i not in local:
                    trace = trace.merged_with(
                        r.decode_trace() if isinstance(r, PackedResult) else r[3]
                    )
        publish_counters(
            trace, sum(job[1] for i, job in enumerate(jobs) if i not in local)
        )

    def _merge(
        self, results: list, arena: "Optional[ChunkArena]"
    ) -> tuple[RRRCollection, SampleTrace]:
        """Merge per-job results (packed or raw, in job order).

        Accounting: ``ipc.bytes_sent`` tallies what actually crossed
        the executor pipe; ``ipc.bytes_packed`` / ``ipc.bytes_raw``
        expose the log-encoding savings (the host-side Fig. 4 story).
        Degraded jobs run in-process and are excluded — they cost no
        IPC.
        """
        packed = [r for r in results if isinstance(r, PackedResult)]
        if packed and obs.enabled():
            sent = sum(p.nbytes_packed for p in packed)
            raw = sum(p.nbytes_raw for p in packed)
            obs.counter_add("ipc.bytes_sent", sent)
            obs.counter_add("ipc.bytes_packed", sent)
            obs.counter_add("ipc.bytes_raw", raw)
            if raw:
                obs.gauge_set("ipc.compression_ratio", sent / raw)
        if len(packed) == len(results) and arena is not None:
            # the zero-copy path: decode every payload straight into
            # one arena chunk; traces decode separately (diagnostics)
            chunk = arena.merge_payloads(results, self.graph.n)
            collection = chunk.collection(self.graph.n)
            trace = empty_trace()
            for payload in results:
                trace = trace.merged_with(payload.decode_trace())
            return collection, trace
        decoded = [
            r.decode() if isinstance(r, PackedResult) else r for r in results
        ]
        if obs.enabled():
            raw_sent = sum(
                flat.nbytes + offsets.nbytes
                + (sources.nbytes if sources is not None else 0)
                for (flat, offsets, sources, _), r in zip(decoded, results)
                if not isinstance(r, PackedResult)
            )
            if raw_sent:
                obs.counter_add("ipc.bytes_sent", raw_sent)
                obs.counter_add("ipc.bytes_raw", raw_sent)
        parts = [
            RRRCollection(flat, offsets, self.graph.n, sources=sources, check=False)
            for flat, offsets, sources, _ in decoded
        ]
        collection = RRRCollection.concat(parts)
        if arena is not None:
            collection = arena.adopt(collection)
        trace = empty_trace()
        for _, _, _, t in decoded:
            trace = trace.merged_with(t)
        return collection, trace

    # -- supervision ---------------------------------------------------------
    def _supervise(
        self,
        jobs: list[tuple],
        res: ResilienceOptions,
        report: ResilienceReport,
    ) -> list[tuple]:
        """Run ``jobs`` to completion under the supervision policy.

        Round-based loop: submit every unfinished job, wait (bounded by
        ``job_timeout``), harvest results, classify losses, recycle the
        executor when workers died or hung, back off deterministically,
        and retry only the lost jobs.  Jobs past their retry budget run
        serially in-process (or raise, with fallback disabled).  Returns
        per-job results in job order.
        """
        n = len(jobs)
        results: list = [None] * n
        attempt = [0] * n
        last_loss = [""] * n  # "timeout" | "crash" | "failure"
        pending = list(range(n))
        fault_spec = active_fault_spec()
        deadline = active_deadline()
        retry_round = 0
        futures: dict[int, object] = {}
        try:
            while pending:
                # cooperative deadline: an expired query must free its
                # worker slot at the next round boundary, not sample on
                if deadline is not None:
                    deadline.check("parallel sampling round")
                exhausted = [i for i in pending if attempt[i] > res.max_retries]
                if exhausted:
                    pending = [i for i in pending if attempt[i] <= res.max_retries]
                    if not res.serial_fallback:
                        self._raise_unrecoverable(exhausted, attempt, last_loss)
                    for i in exhausted:
                        if deadline is not None:
                            deadline.check("serial degraded sampling")
                        with obs.span("rrr.parallel.degraded_job"):
                            results[i] = self._run_serial(jobs[i])
                        report.degraded_jobs += 1
                        report.events.append(
                            {"kind": "degraded", "job": i, "attempt": attempt[i]}
                        )
                    if not pending:
                        break
                if retry_round:
                    backoff = res.backoff(retry_round - 1)
                    if deadline is not None:
                        remaining = deadline.remaining()
                        if remaining is not None:
                            backoff = min(backoff, remaining)
                    if backoff:
                        time.sleep(backoff)
                        report.wall_clock_lost += backoff
                round_start = time.monotonic()
                executor = self._ensure_executor()
                try:
                    futures = {
                        i: executor.submit(
                            _worker_sample, jobs[i] + (i, attempt[i], fault_spec)
                        )
                        for i in pending
                    }
                except BrokenProcessPool:
                    # the executor died between rounds; every job of this
                    # round is lost — recycle and retry them all
                    for i in pending:
                        report.record("crash", i, attempt[i])
                        last_loss[i] = "crash"
                        attempt[i] += 1
                    futures = {}
                    report.retries += len(pending)
                    retry_round += 1
                    self._abandon_executor(terminate=False)
                    report.rebuilds += 1
                    continue
                # ALL_COMPLETED (not FIRST_EXCEPTION): a failed job must
                # not cut the round short — the healthy jobs finish and
                # keep their results, and a worker death breaks every
                # pending future promptly anyway.  The wait is bounded by
                # whichever is tighter, the supervision timeout or the
                # deadline's remaining budget, so an expired query never
                # blocks on a hung worker.
                round_timeout = res.job_timeout
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None:
                        round_timeout = (
                            remaining
                            if round_timeout is None
                            else min(round_timeout, remaining)
                        )
                wait(futures.values(), timeout=round_timeout)
                if deadline is not None and deadline.expired:
                    undone = [f for f in futures.values() if not f.done()]
                    if undone:
                        # reclaim the slot now: cancel what never started
                        # and terminate workers stuck mid-job (siblings
                        # sharing this pool see BrokenProcessPool and
                        # retry deterministically)
                        for future in futures.values():
                            future.cancel()
                        self._abandon_executor(terminate=True)
                        report.rebuilds += 1
                        deadline.check("parallel sampling round")
                broken = False
                hung = False
                still_pending = []
                for i in pending:
                    future = futures[i]
                    if not future.done():
                        hung = True
                        report.record("timeout", i, attempt[i])
                        last_loss[i] = "timeout"
                        attempt[i] += 1
                        still_pending.append(i)
                        continue
                    try:
                        results[i] = future.result()
                    except BrokenProcessPool:
                        broken = True
                        report.record("crash", i, attempt[i])
                        last_loss[i] = "crash"
                        attempt[i] += 1
                        still_pending.append(i)
                    except Exception as exc:  # raised inside the worker
                        report.record("failure", i, attempt[i], detail=repr(exc))
                        last_loss[i] = "failure"
                        attempt[i] += 1
                        still_pending.append(i)
                futures = {}
                pending = still_pending
                if pending:
                    report.wall_clock_lost += time.monotonic() - round_start
                    report.retries += len(pending)
                    retry_round += 1
                if broken or hung:
                    # dead executors cannot be reused; hung ones hold a
                    # worker hostage — recycle either way
                    self._abandon_executor(terminate=hung)
                    report.rebuilds += 1
        except KeyboardInterrupt:
            for future in futures.values():
                future.cancel()
            self._abandon_executor(terminate=True)
            raise
        return results

    def _run_serial(self, job: tuple) -> tuple:
        """In-process fallback for one job — bit-identical to the worker
        path, since the job's ``SeedSequence`` pins its stream and fault
        injection only ever fires inside worker processes."""
        model, count, seed_seq, eliminate_sources, batch_size, visited_mode, _pack = job
        from repro.rrr import get_sampler

        rng = np.random.Generator(np.random.PCG64(seed_seq))
        collection, trace = get_sampler(model)(
            self.graph,
            count,
            rng=rng,
            eliminate_sources=eliminate_sources,
            batch_size=batch_size,
            visited_mode=visited_mode,
        )
        return (collection.flat, collection.offsets, collection.sources, trace)

    def _raise_unrecoverable(
        self, exhausted: list[int], attempt: list[int], last_loss: list[str]
    ) -> None:
        detail = ", ".join(
            f"job {i} ({last_loss[i] or 'unknown'} x{attempt[i]})" for i in exhausted
        )
        if all(last_loss[i] == "timeout" for i in exhausted):
            raise SamplingTimeoutError(
                f"sampling jobs exceeded their retry budget: {detail}"
            )
        raise WorkerCrashError(
            f"sampling jobs exceeded their retry budget: {detail}"
        )


# -- shared pool registry ----------------------------------------------------
#: pools keyed by (graph fingerprint, n_jobs, data plane); one executor per
#: key lives for the whole process, so sweeps over many (k, epsilon) cells
#: share workers.  :func:`shutdown_pools` runs at interpreter exit (atexit)
#: so resident executors can never leave orphaned workers behind.
_POOLS: dict[tuple[str, int, str], SamplerPool] = {}
# concurrent service workers share this registry; the lock makes
# lookup-evict-create atomic so two same-key callers never each start a
# worker fleet
_POOLS_LOCK = threading.Lock()


def shared_pool(
    graph: DirectedGraph, n_jobs: int, data_plane: Optional[str] = None
) -> SamplerPool:
    """The process-wide resident pool for ``(graph, n_jobs, data_plane)``.

    Keyed by content fingerprint, not object identity, so regenerated
    graph instances (e.g. out of ``ExperimentConfig``'s cache) land on
    the same workers.  The data plane resolves *before* keying, so
    ``None``, the env default, and an explicit matching request all hit
    the same pool.  Entries whose pool has been closed are evicted on
    lookup and replaced with a fresh pool.
    """
    plane = resolve_data_plane(data_plane)
    key = (graph.fingerprint(), int(n_jobs), plane)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and pool.closed:
            _POOLS.pop(key, None)
            obs.counter_add("rrr.parallel.pool_evicted", 1)
            pool = None
        if pool is None:
            pool = SamplerPool(graph, n_jobs, data_plane=plane)
            _POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Close every shared pool (tests, long-lived services, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


# resident executors must not outlive the interpreter: without this a
# worker hung mid-job (or a user forgetting shutdown_pools) leaves
# orphaned processes behind at exit
atexit.register(shutdown_pools)


def sample_rrr_parallel(
    graph: DirectedGraph,
    num_sets: int,
    model: str = "IC",
    rng=None,
    n_jobs: int = 2,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
    visited_mode: Optional[str] = None,
    pool: Optional[SamplerPool] = None,
    resilience: Optional[ResilienceOptions] = None,
    data_plane: Optional[str] = None,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` RRR sets across ``n_jobs`` worker processes.

    Back-compat functional front-end over :class:`SamplerPool`; uses the
    process-wide :func:`shared_pool` (or an explicit ``pool``) so
    repeated calls stop re-shipping the graph.
    """
    if graph.weights is None:
        raise ValidationError("parallel sampling requires a weighted graph")
    if num_sets < 0:
        raise ValidationError("num_sets must be non-negative")
    if n_jobs < 1:
        raise ValidationError("n_jobs must be >= 1")
    if pool is None:
        pool = shared_pool(graph, n_jobs, data_plane=data_plane)
    elif pool.n_jobs != n_jobs:
        raise ValidationError(
            f"pool has n_jobs={pool.n_jobs}, call requested {n_jobs}"
        )
    return pool.sample(
        model,
        num_sets,
        rng=rng,
        eliminate_sources=eliminate_sources,
        batch_size=batch_size,
        visited_mode=visited_mode,
        resilience=resilience,
    )
