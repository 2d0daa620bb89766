"""`InfluenceService`: the asynchronous influence-query serving tier.

Every caller used to drive :func:`~repro.imm.imm.run_imm` directly, so
concurrent queries against the same graph each paid their own theta
estimation and sampling.  The service turns the shareable substrate the
library already has — prefix-deterministic
:class:`~repro.rrr.store.RRRStore` streams and the persistent
:class:`~repro.imm.coverage.CoverageIndex` — into a serving discipline:

* queries are **admitted** through a bounded scheduler
  (:class:`~repro.service.scheduler.QueryScheduler`): limited in-flight
  work, limited queue depth, fail-fast
  :class:`~repro.utils.errors.ServiceOverloadedError` backpressure;
* compatible queries — same coalescing key (graph fingerprint, model,
  elimination, entropy, fan-out/batch geometry) — are **coalesced**
  onto one substrate: one ``RRRStore.ensure(max θ)`` stream and one
  coverage index, so a burst of ``(k, ε)`` variants costs O(max θ)
  sampling total instead of O(Σθ);
* answers come out of a **multi-tier cache**
  (:mod:`repro.service.cache`): exact repeats are served from the
  result LRU without touching a sampler, new ``(k, ε)`` cells against a
  warm substrate reuse the indexed RRR prefix and only re-run greedy
  selection.

Determinism is inherited, not re-proved: a substrate's stream is a pure
function of its key, so every served seed set is bit-identical to a
direct ``run_imm`` against a fresh store with the same identity —
coalescing, caching, eviction, retries, and thread scheduling are all
invisible in the results.

Resilience, beyond the supervised sampling pipeline each query already
runs under (``IMMOptions.resilience``):

* **deadlines** — each query carries a wall-clock budget (its own
  ``deadline`` or the service's ``default_deadline``), enforced
  cooperatively from the queue through the sampling rounds via an
  ambient :class:`~repro.resilience.deadline.Deadline` token; expiry
  fails *that future* with
  :class:`~repro.utils.errors.DeadlineExceededError` and frees its
  worker slot;
* **circuit breakers** — consecutive substrate failures (crashes past
  the retry budget, OOM) open a per-stream breaker
  (:mod:`repro.service.breaker`); while open, queries are answered
  *degraded* from cache (exact, or epsilon-relaxed within
  ``degraded_epsilon_slack``) or fail fast with
  :class:`~repro.utils.errors.CircuitOpenError` — never queued behind
  a substrate that keeps dying;
* **graceful lifecycle** — :meth:`close` fails still-queued futures
  with :class:`~repro.utils.errors.ServiceClosedError` (no admitted
  future is ever stranded), :meth:`drain` reports whether it finished,
  and :meth:`health` snapshots queue depth, breaker states, and
  substrate residency for readiness probes;
* **chaos hooks** — service-scoped ``REPRO_FAULTS`` clauses
  (``slow@queries``, ``oom@substrate``, ``crash@worker-thread``) fire
  deterministically inside the serving tier so every one of these
  paths is exercised in CI.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Optional, Union

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.imm.imm import IMMResult, run_imm
from repro.memory.budget import governor
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.faults import (
    ENV_VAR,
    InjectedFaultError,
    service_injector,
)
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ExactResultCache, SubstrateTable
from repro.service.options import ServiceOptions
from repro.service.query import InfluenceQuery, QueryOutcome
from repro.service.scheduler import QueryScheduler, ScheduledJob
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MemoryPressureError,
    ResilienceError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)

#: exceptions that count as *substrate* failures for the circuit breaker
#: (deadline expiry and validation say nothing about substrate health)
_BREAKER_FAILURES = (ResilienceError, MemoryError, InjectedFaultError)


class InfluenceService:
    """A long-lived server of influence-maximization queries.

    Usage::

        service = InfluenceService(ServiceOptions(max_inflight=4))
        service.register_graph("wv", graph)
        future = service.submit(InfluenceQuery("wv", k=10, epsilon=0.2))
        outcome = future.result()        # QueryOutcome
        print(outcome.seeds, outcome.cache_tier)

    ``query()`` is the blocking convenience wrapper.  The service is
    thread-safe: any number of client threads may submit concurrently.
    """

    def __init__(self, options: Optional[ServiceOptions] = None):
        self.options = options if options is not None else ServiceOptions()
        if self.options.memory_budget_mb is not None:
            governor().set_budget(
                int(self.options.memory_budget_mb * 1024 * 1024)
            )
        self._graphs: dict[str, DirectedGraph] = {}
        self._graphs_lock = threading.Lock()
        self._results = ExactResultCache(self.options.exact_cache_size)
        self._substrates = SubstrateTable(self.options.max_substrates)
        self._counters: "Counter[str]" = Counter()
        self._counters_lock = threading.Lock()
        self._breaker = CircuitBreaker(
            self.options.breaker_failure_threshold,
            self.options.breaker_reset_timeout,
            counter=self._count,
        )
        self._faults = service_injector(os.environ.get(ENV_VAR, "").strip())
        self._scheduler = QueryScheduler(
            self.options.max_inflight,
            self.options.max_queue_depth,
            self._execute,
            counter=self._count,
        )
        self._closed = False

    def _count(self, name: str) -> None:
        """Bump a service counter: the obs facade plus a local mirror
        (``health()`` must work even when obs isn't installed)."""
        obs.counter_add(name, 1)
        with self._counters_lock:
            self._counters[name] += 1

    # -- graph registry ------------------------------------------------------
    def register_graph(self, name: str, graph: DirectedGraph) -> None:
        """Register ``graph`` so queries can reference it by ``name``."""
        if graph.weights is None:
            raise ValidationError(
                "service graphs must be weighted (assign_*_weights)"
            )
        with self._graphs_lock:
            self._graphs[str(name)] = graph

    def registered_graphs(self) -> tuple[str, ...]:
        with self._graphs_lock:
            return tuple(self._graphs)

    def _resolve_graph(self, ref: Union[DirectedGraph, str]) -> DirectedGraph:
        if isinstance(ref, DirectedGraph):
            return ref
        with self._graphs_lock:
            graph = self._graphs.get(ref)
        if graph is None:
            raise ValidationError(
                f"unknown graph {ref!r}; registered: "
                f"{sorted(self._graphs) or 'none'}"
            )
        return graph

    # -- querying ------------------------------------------------------------
    def submit(self, query: InfluenceQuery) -> "Future[QueryOutcome]":
        """Admit ``query`` and return a future for its outcome.

        Raises :class:`~repro.utils.errors.ServiceOverloadedError` when
        the queue is full (backpressure — retry later),
        :class:`~repro.utils.errors.ServiceClosedError` after
        :meth:`close`, and :class:`~repro.utils.errors.CircuitOpenError`
        when the query's stream breaker is open and no degraded answer
        is cached.  Graph-reference and parameter validation happen
        here, synchronously; execution failures fail the future.
        """
        future, _ = self._admit(query)
        return future

    def _admit(
        self, query: InfluenceQuery
    ) -> "tuple[Future[QueryOutcome], Deadline]":
        if self._closed:
            raise ServiceClosedError("service is closed")
        graph = self._resolve_graph(query.graph)
        if query.k > graph.n:
            raise ValidationError(
                f"k must be in [1, n]={graph.n}, got {query.k}"
            )
        key = query.coalesce_key(graph, self.options.chunk_sets)
        self._count("service.queries")
        # every query carries a deadline token; an unbounded one still
        # gives query(timeout=) a cooperative cancellation handle
        seconds = (
            query.deadline
            if query.deadline is not None
            else self.options.default_deadline
        )
        deadline = Deadline.after(seconds) if seconds else Deadline.never()
        start = time.perf_counter()

        decision = self._breaker.admit(key)
        if decision == "open":
            return self._serve_degraded(query, graph, key, start), deadline

        # memory admission: consult the governor's ledger before taking
        # on work that allocates.  request(0) is a pure rebalance —
        # demote cold chunks, shed caches — and only if the process is
        # *still* overcommitted afterwards is the query shed/degraded
        # (the PR 8 degraded paths) rather than marched toward an OOM.
        gov = governor()
        if (
            self.options.shed_on_memory_pressure
            and gov.overcommitted()
            and not gov.request(0)
        ):
            self._count("service.memory_pressure")
            if decision == "probe":
                self._breaker.release_probe(key)
            if self.options.degraded_serving:
                degraded = self._degraded_outcome(query, graph, key, start)
                if degraded is not None:
                    self._count("service.memory_pressure.degraded")
                    resolved: "Future[QueryOutcome]" = Future()
                    resolved.set_result(degraded)
                    return resolved, deadline
            self._count("service.memory_pressure.shed")
            raise MemoryPressureError(gov.charged_bytes, gov.budget_bytes)

        job = ScheduledJob(query=query, key=key, deadline=deadline)
        try:
            future = self._scheduler.submit(job)
        except ServiceOverloadedError:
            if decision == "probe":
                self._breaker.release_probe(key)
            if self.options.degraded_serving:
                # sustained overload: a cached answer beats a reject
                degraded = self._degraded_outcome(query, graph, key, start)
                if degraded is not None:
                    self._count("service.admission_rejects.degraded")
                    resolved: "Future[QueryOutcome]" = Future()
                    resolved.set_result(degraded)
                    return resolved, deadline
            raise
        except ServiceClosedError:
            if decision == "probe":
                self._breaker.release_probe(key)
            raise
        if decision == "probe":
            # if the probe leaves without substrate evidence (queued
            # expiry, exact hit, close), let the next arrival probe
            future.add_done_callback(
                lambda _f, key=key: self._breaker.release_probe(key)
            )
        return future, deadline

    def _degraded_outcome(
        self,
        query: InfluenceQuery,
        graph: DirectedGraph,
        key: tuple,
        start: float,
    ) -> Optional[QueryOutcome]:
        """Best cached stand-in for ``query``, flagged degraded."""
        result_key = query.result_key(graph, self.options.chunk_sets)
        cached = self._results.get(result_key)
        if cached is not None:
            return self._hit(query, cached, "exact", start, False, degraded=True)
        relaxed = self._results.find_relaxed(
            result_key, self.options.degraded_epsilon_slack
        )
        if relaxed is not None:
            return self._hit(
                query, relaxed[1], "exact", start, False, degraded=True
            )
        return None

    def _serve_degraded(
        self,
        query: InfluenceQuery,
        graph: DirectedGraph,
        key: tuple,
        start: float,
    ) -> "Future[QueryOutcome]":
        """Open-breaker path: cached degraded answer or bounded fast-fail."""
        from repro.service.breaker import key_digest

        if self.options.degraded_serving:
            outcome = self._degraded_outcome(query, graph, key, start)
            if outcome is not None:
                future: "Future[QueryOutcome]" = Future()
                future.set_result(outcome)
                return future
        self._count("service.breaker.rejects")
        raise CircuitOpenError(key_digest(key), self._breaker.retry_after(key))

    def query(self, query: InfluenceQuery,
              timeout: Optional[float] = None) -> QueryOutcome:
        """Blocking submit: admit ``query`` and wait for its outcome.

        On ``timeout`` the admitted job no longer leaks a worker slot:
        the job is cancelled if still queued, or its deadline token is
        cancelled so a running job aborts cooperatively at its next
        check, before the timeout error propagates.
        """
        future, deadline = self._admit(query)
        try:
            return future.result(timeout=timeout)
        except DeadlineExceededError:
            raise
        except FuturesTimeoutError:
            if not future.cancel():
                deadline.cancel()
            raise

    # -- execution (scheduler workers land here) -----------------------------
    def _substrate_factory(self, query: InfluenceQuery, graph: DirectedGraph):
        from repro.rrr.store import RRRStore

        def factory():
            return RRRStore(
                graph,
                model=query.options.model,
                eliminate_sources=query.options.eliminate_sources,
                entropy=query.entropy,
                n_jobs=query.options.n_jobs,
                chunk_sets=self.options.chunk_sets,
                batch_size=query.options.batch_size,
                checkpoint_dir=self.options.checkpoint_dir,
                resilience=query.options.resilience,
                data_plane=query.options.data_plane,
                visited_mode=query.options.visited_mode,
            )

        return factory

    def _execute(self, job: ScheduledJob) -> QueryOutcome:
        query = job.query
        start = time.perf_counter()
        with deadline_scope(job.deadline), obs.span("service.query"):
            if self._faults is not None:
                self._faults.fire("worker-thread")
                self._faults.fire("queries")
            if job.deadline is not None:
                job.deadline.check("query admission")
            graph = self._resolve_graph(query.graph)
            result_key = query.result_key(graph, self.options.chunk_sets)
            cached = self._results.get(result_key)
            if cached is not None:
                return self._hit(query, cached, "exact", start, job.coalesced)
            substrate, warm = self._substrates.acquire(
                job.key, self._substrate_factory(query, graph)
            )
            try:
                with substrate.lock:
                    # a coalesced sibling may have finished this exact
                    # cell while we waited for the substrate
                    cached = self._results.get(result_key)
                    if cached is not None:
                        return self._hit(
                            query, cached, "exact", start, job.coalesced
                        )
                    if job.deadline is not None:
                        job.deadline.check("substrate wait")
                    assert substrate.store.key() == job.key  # by construction
                    before = substrate.store.num_cached
                    try:
                        if self._faults is not None:
                            self._faults.fire("substrate")
                        with obs.span("service.run"):
                            result = run_imm(
                                graph,
                                query.k,
                                query.epsilon,
                                options=query.options,
                                store=substrate.store,
                            )
                    except _BREAKER_FAILURES as exc:
                        if isinstance(exc, MemoryError):
                            # forensics for the runbook: which tier was
                            # exhausted when the allocation failed —
                            # "spilled" means even disk-backed tiering
                            # couldn't keep the working set resident
                            self._count(
                                "service.oom_tier."
                                + governor().exhausted_tier()
                            )
                        self._breaker.record_failure(job.key)
                        raise
                    self._breaker.record_success(job.key)
                    sampled = substrate.store.num_cached - before
            finally:
                self._substrates.release(substrate)
            tier = "prefix" if warm and sampled == 0 else "cold"
            if tier == "prefix":
                self._count("service.cache_hits")
                self._count("service.cache_hits.prefix")
            obs.counter_add("service.sampled_sets", sampled)
            self._results.put(result_key, result)
            return QueryOutcome(
                query=query,
                result=result,
                cache_tier=tier,
                sampled_sets=sampled,
                seconds=time.perf_counter() - start,
                coalesced=job.coalesced,
            )

    def _hit(self, query: InfluenceQuery, result: IMMResult, tier: str,
             start: float, coalesced: bool,
             degraded: bool = False) -> QueryOutcome:
        self._count("service.cache_hits")
        self._count(f"service.cache_hits.{tier}")
        if degraded:
            self._count("service.degraded")
        return QueryOutcome(
            query=query,
            result=result,
            cache_tier=tier,
            sampled_sets=0,
            seconds=time.perf_counter() - start,
            coalesced=coalesced,
            degraded=degraded,
        )

    # -- introspection / lifecycle -------------------------------------------
    def stats(self) -> dict:
        """A point-in-time snapshot of the service's state."""
        return {
            "closed": self._closed,
            "queue_depth": self._scheduler.queue_depth,
            "exact_cache_entries": len(self._results),
            "substrates": len(self._substrates),
            "registered_graphs": len(self._graphs),
        }

    def health(self) -> dict:
        """A readiness snapshot: serving state, load, and breaker health.

        ``status`` is ``"ok"`` while serving, ``"closed"`` after
        :meth:`close`.  Everything else is observational: queue depth
        and in-flight count, worker-thread liveness, per-stream breaker
        states, substrate residency (cached sets / in-flight /
        lifetime queries per stream), and the service's counter mirror
        (deadline expiries, breaker transitions, degraded serves, ...).
        """
        with self._counters_lock:
            counters = dict(self._counters)
        return {
            "status": "closed" if self._closed else "ok",
            "queue_depth": self._scheduler.queue_depth,
            "inflight": self._scheduler.inflight,
            "workers_alive": sum(
                1 for w in self._scheduler._workers if w.is_alive()
            ),
            "max_inflight": self.options.max_inflight,
            "max_queue_depth": self.options.max_queue_depth,
            "breakers": self._breaker.snapshot(),
            "substrates": self._substrates.residency(),
            "exact_cache_entries": len(self._results),
            "registered_graphs": len(self._graphs),
            "memory": governor().snapshot(),
            "counters": counters,
        }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every admitted query to finish executing.

        Returns ``True`` when the queue fully drained, ``False`` when
        ``timeout`` expired with work still running — the caller
        decides whether to wait again or close anyway.
        """
        return self._scheduler.drain(timeout)

    def close(self, wait: bool = True) -> None:
        """Stop admitting queries and shut down.

        In-flight queries finish; still-queued queries fail their
        futures with :class:`ServiceClosedError` (counted as
        ``service.closed_rejects``) — no admitted future is ever left
        unresolved.  Then substrate stores close and caches clear.
        """
        if self._closed:
            return
        self._closed = True
        self._scheduler.close(wait=wait)
        self._substrates.close()
        self._results.clear()

    def __enter__(self) -> "InfluenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
