"""Service-level resilience: deadlines, circuit breaking, degraded
serving, graceful lifecycle, and the service-scoped chaos grammar."""

import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import pytest

from repro.resilience.deadline import Deadline
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    ServiceFaultInjector,
    service_injector,
)
from repro.service import (
    InfluenceQuery,
    InfluenceService,
    ServiceOptions,
)
from repro.memory.budget import budget_scope
from repro.service.scheduler import QueryScheduler, ScheduledJob
from repro.service.server import handle_request
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MemoryPressureError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)

CHUNK_SETS = 256


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def _query(k=5, epsilon=0.3, **kw):
    return InfluenceQuery("g", k=k, epsilon=epsilon, **kw)


def _service(small_ic_graph, **options):
    options.setdefault("chunk_sets", CHUNK_SETS)
    svc = InfluenceService(ServiceOptions(**options))
    svc.register_graph("g", small_ic_graph)
    return svc


# -- options and query validation --------------------------------------------


def test_new_option_knobs_validate():
    with pytest.raises(ValidationError):
        ServiceOptions(default_deadline=0)
    with pytest.raises(ValidationError):
        ServiceOptions(breaker_failure_threshold=0)
    with pytest.raises(ValidationError):
        ServiceOptions(breaker_reset_timeout=0)
    with pytest.raises(ValidationError):
        ServiceOptions(degraded_epsilon_slack=0.5)
    assert ServiceOptions(default_deadline=2.5).default_deadline == 2.5


def test_query_deadline_validates():
    with pytest.raises(ValidationError):
        InfluenceQuery("g", k=3, epsilon=0.3, deadline=0)
    assert InfluenceQuery("g", k=3, epsilon=0.3, deadline=1.5).deadline == 1.5


# -- service-scoped fault grammar --------------------------------------------


def test_grammar_parses_service_clauses():
    plan = FaultPlan.parse(
        "crash@1;slow(0.5)@queries;oom@substrate#0,2;crash@worker-thread#*"
    )
    scopes = [c.scope for c in plan.clauses]
    assert scopes == ["job", "queries", "substrate", "worker-thread"]
    slow = plan.clauses[1]
    assert slow.kind == "slow" and slow.seconds == 0.5 and slow.jobs is None
    oom = plan.clauses[2]
    assert oom.kind == "oom" and oom.jobs == frozenset((0, 2))


def test_grammar_rejects_bad_service_kind():
    with pytest.raises(ValidationError, match="service fault kind"):
        FaultPlan.parse("hang@queries")


def test_job_clauses_never_fire_in_service_scope():
    injector = ServiceFaultInjector(FaultPlan.parse("crash@*#*"))
    assert not injector.active


def test_injector_counts_occurrences_per_scope():
    injector = service_injector("oom@substrate#1")
    injector.fire("substrate")  # occurrence 0: clean
    injector.fire("queries")  # different scope, own counter
    with pytest.raises(MemoryError, match="occurrence 1"):
        injector.fire("substrate")
    injector.fire("substrate")  # occurrence 2: clean again


def test_injector_slow_is_deadline_aware():
    from repro.resilience.deadline import deadline_scope

    injector = service_injector("slow(5.0)@queries")
    begin = time.perf_counter()
    with deadline_scope(Deadline.after(0.05)):
        with pytest.raises(DeadlineExceededError):
            injector.fire("queries")
    assert time.perf_counter() - begin < 2.0


# -- scheduler lifecycle (satellites) ----------------------------------------


def test_scheduler_drain_reports_timeout_expiry():
    release = threading.Event()
    started = threading.Event()

    def execute(job):
        started.set()
        release.wait(10)
        return "done"

    sched = QueryScheduler(max_inflight=1, max_queue_depth=4, execute=execute)
    future = sched.submit(ScheduledJob(query=_query(), key=("k",)))
    started.wait(10)
    assert sched.drain(timeout=0.05) is False  # still running: surfaced
    release.set()
    assert sched.drain(timeout=10) is True
    assert future.result(10) == "done"
    sched.close()


def test_scheduler_close_fails_queued_futures():
    release = threading.Event()
    started = threading.Event()

    def execute(job):
        started.set()
        release.wait(10)
        return "ran"

    sched = QueryScheduler(max_inflight=1, max_queue_depth=8, execute=execute)
    running = sched.submit(ScheduledJob(query=_query(), key=("k",)))
    started.wait(10)
    queued = [
        sched.submit(ScheduledJob(query=_query(), key=("k",)))
        for _ in range(3)
    ]
    closer = threading.Thread(target=sched.close, daemon=True)
    closer.start()
    for future in queued:
        with pytest.raises(ServiceClosedError):
            future.result(timeout=10)  # resolved, not stranded
    release.set()
    assert running.result(10) == "ran"  # in-flight work still finishes
    closer.join(10)
    assert not closer.is_alive()


def test_scheduler_submit_close_race_never_strands_futures():
    """Submits racing close() either reject or resolve — never hang."""
    for _ in range(20):
        sched = QueryScheduler(max_inflight=2, max_queue_depth=64,
                               execute=lambda job: "ok")
        barrier = threading.Barrier(5)
        futures, outcomes = [], []
        lock = threading.Lock()

        def submit_some():
            barrier.wait()
            for _ in range(4):
                try:
                    f = sched.submit(ScheduledJob(query=_query(), key=("k",)))
                except ServiceClosedError:
                    continue
                with lock:
                    futures.append(f)

        def close_it():
            barrier.wait()
            sched.close(wait=False)

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        threads.append(threading.Thread(target=close_it))
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        for f in futures:
            try:
                outcomes.append(f.result(timeout=10))
            except ServiceClosedError:
                outcomes.append("closed")
        assert len(outcomes) == len(futures)
        sched.close()


def test_scheduler_drops_expired_queued_jobs():
    release = threading.Event()
    started = threading.Event()

    def execute(job):
        started.set()
        release.wait(10)
        return "ran"

    sched = QueryScheduler(max_inflight=1, max_queue_depth=8, execute=execute)
    running = sched.submit(ScheduledJob(query=_query(), key=("k",)))
    started.wait(10)
    doomed = sched.submit(ScheduledJob(
        query=_query(), key=("k",), deadline=Deadline.after(0.02),
    ))
    time.sleep(0.05)  # expires while queued behind the running job
    release.set()
    with pytest.raises(DeadlineExceededError, match="queued wait"):
        doomed.result(timeout=10)
    assert running.result(10) == "ran"
    sched.close()


# -- deadlines through the service -------------------------------------------


def test_queued_deadline_expiry_frees_slot_and_counts(small_ic_graph,
                                                      monkeypatch):
    monkeypatch.setenv(ENV_VAR, "slow(0.3)@queries#0")
    svc = _service(small_ic_graph, max_inflight=1)
    try:
        blocker = svc.submit(_query(k=2))  # occupies the only worker 0.3s
        doomed = svc.submit(_query(k=3, deadline=0.05))
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=10)
        assert len(blocker.result(timeout=30).seeds) == 2
        # the slot is free again: a clean query completes
        assert len(svc.query(_query(k=4)).seeds) == 4
        assert svc.health()["counters"]["service.deadline_expired"] >= 1
    finally:
        svc.close()


def test_default_deadline_applies_and_expires(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "slow(5.0)@queries")
    svc = _service(small_ic_graph, default_deadline=0.1)
    try:
        begin = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            svc.query(_query(k=2))
        assert time.perf_counter() - begin < 3.0
    finally:
        svc.close()


def test_query_timeout_cancels_running_job(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "slow(5.0)@queries#0")
    svc = _service(small_ic_graph, max_inflight=1)
    try:
        begin = time.perf_counter()
        with pytest.raises(FuturesTimeoutError):
            svc.query(_query(k=2), timeout=0.1)
        # the abandoned job aborts cooperatively instead of holding the
        # only worker for the full 5s slow fault
        assert len(svc.query(_query(k=3), timeout=30).seeds) == 3
        assert time.perf_counter() - begin < 4.0
        assert svc.health()["counters"]["service.deadline_expired"] >= 1
    finally:
        svc.close()


def test_completed_queries_unaffected_by_generous_deadline(small_ic_graph):
    svc = _service(small_ic_graph)
    try:
        with_deadline = svc.query(_query(k=5, deadline=60.0))
        plain = svc.query(_query(k=5))
        assert list(plain.seeds) == list(with_deadline.seeds)
        assert not with_deadline.degraded
    finally:
        svc.close()


# -- circuit breaker + degraded serving --------------------------------------


def _trip_breaker(svc, ks=(3, 4, 6)):
    """Drive three consecutive substrate OOMs (distinct cells so the
    exact cache can't shortcut them)."""
    for k in ks:
        with pytest.raises(MemoryError):
            svc.query(_query(k=k))


def test_breaker_opens_and_fast_fails(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "oom@substrate")
    svc = _service(small_ic_graph, breaker_failure_threshold=3,
                   degraded_serving=False)
    try:
        _trip_breaker(svc)
        health = svc.health()
        (state,) = health["breakers"].values()
        assert state["state"] == "open"
        assert health["counters"]["service.breaker.opened"] == 1
        begin = time.perf_counter()
        with pytest.raises(CircuitOpenError, match="retry in"):
            svc.submit(_query(k=7))
        assert time.perf_counter() - begin < 1.0  # fast-fail, not queued
    finally:
        svc.close()


def test_breaker_serves_degraded_exact_while_open(small_ic_graph,
                                                  monkeypatch):
    monkeypatch.setenv(ENV_VAR, "oom@substrate#1,2,3")
    svc = _service(small_ic_graph, breaker_failure_threshold=3)
    try:
        healthy = svc.query(_query(k=2))  # occurrence 0: clean, cached
        assert not healthy.degraded
        _trip_breaker(svc)
        degraded = svc.query(_query(k=2))
        assert degraded.degraded and degraded.cache_tier == "exact"
        assert list(degraded.seeds) == list(healthy.seeds)
        # a cell with no cached stand-in still fails fast
        with pytest.raises(CircuitOpenError):
            svc.query(_query(k=9))
        assert svc.health()["counters"]["service.degraded"] >= 1
    finally:
        svc.close()


def test_breaker_serves_epsilon_relaxed_while_open(small_ic_graph,
                                                   monkeypatch):
    monkeypatch.setenv(ENV_VAR, "oom@substrate#1,2,3")
    svc = _service(small_ic_graph, breaker_failure_threshold=3,
                   degraded_epsilon_slack=2.0)
    try:
        tight = svc.query(_query(k=2, epsilon=0.3))  # cached at eps=0.3
        _trip_breaker(svc)
        relaxed = svc.query(_query(k=2, epsilon=0.5))
        assert relaxed.degraded
        assert list(relaxed.seeds) == list(tight.seeds)
        assert relaxed.result.epsilon == 0.3  # the stand-in's epsilon
    finally:
        svc.close()


def test_breaker_half_open_probe_recovers(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "oom@substrate#0,1,2")
    svc = _service(small_ic_graph, breaker_failure_threshold=3,
                   breaker_reset_timeout=0.1, degraded_serving=False)
    try:
        _trip_breaker(svc, ks=(3, 4, 6))
        time.sleep(0.15)  # reset timeout elapses -> next query probes
        probe = svc.query(_query(k=5))  # occurrence 3: substrate healthy
        assert not probe.degraded and len(probe.seeds) == 5
        (state,) = svc.health()["breakers"].values()
        assert state["state"] == "closed"
        # normal serving resumed
        assert len(svc.query(_query(k=7)).seeds) == 7
    finally:
        svc.close()


def test_validation_errors_do_not_trip_breaker(small_ic_graph):
    svc = _service(small_ic_graph, breaker_failure_threshold=1)
    try:
        for _ in range(3):
            with pytest.raises(ValidationError):
                svc.query(InfluenceQuery("nope", k=3, epsilon=0.3))
        assert svc.health()["breakers"] == {}
        assert len(svc.query(_query(k=3)).seeds) == 3
    finally:
        svc.close()


# -- worker-thread chaos and lifecycle ---------------------------------------


def test_worker_thread_fault_fails_one_future_only(small_ic_graph,
                                                   monkeypatch):
    from repro.resilience.faults import InjectedFaultError

    monkeypatch.setenv(ENV_VAR, "crash@worker-thread#0")
    svc = _service(small_ic_graph, max_inflight=1)
    try:
        with pytest.raises(InjectedFaultError):
            svc.query(_query(k=3))
        health = svc.health()
        assert health["workers_alive"] == 1  # the thread survived
        assert len(svc.query(_query(k=3)).seeds) == 3
    finally:
        svc.close()


def test_service_close_resolves_queued_futures(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "slow(0.5)@queries#0")
    svc = _service(small_ic_graph, max_inflight=1)
    try:
        blocker = svc.submit(_query(k=2))
        queued = [svc.submit(_query(k=3 + i)) for i in range(3)]
    finally:
        svc.close(wait=True)
    resolved = 0
    for future in [blocker] + queued:
        # every admitted future resolves: either the worker finished it
        # or close() failed it — never a stranded waiter
        try:
            assert future.result(timeout=10) is not None
        except ServiceClosedError:
            pass
        resolved += 1
    assert resolved == len(queued) + 1


def test_service_drain_returns_bool(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "slow(0.4)@queries#0")
    svc = _service(small_ic_graph)
    try:
        svc.submit(_query(k=2))
        assert svc.drain(timeout=0.05) is False
        assert svc.drain(timeout=30) is True
    finally:
        svc.close()


def test_health_snapshot_shape(small_ic_graph):
    svc = _service(small_ic_graph, max_inflight=2)
    try:
        svc.query(_query(k=3))
        health = svc.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0 and health["inflight"] == 0
        assert health["workers_alive"] == 2
        assert health["counters"]["service.queries"] == 1
        (residency,) = health["substrates"]
        assert residency["cached_sets"] > 0 and residency["queries"] == 1
    finally:
        svc.close()
    assert svc.health()["status"] == "closed"


# -- memory pressure -----------------------------------------------------------


def test_memory_pressure_sheds_with_an_overload_error(small_ic_graph):
    """An overcommitted budget with nothing left to demote sheds the
    query as backpressure: a proper overload error, counted, and
    answered ``overloaded: true`` over the wire so clients back off."""
    svc = _service(small_ic_graph, degraded_serving=False)
    try:
        with budget_scope(1024) as gov:
            gov.account("test.pinned", "resident", 1 << 20)
            try:
                with pytest.raises(ServiceOverloadedError) as info:
                    svc.submit(_query())
                assert isinstance(info.value, MemoryPressureError)
                assert info.value.charged_bytes >= 1 << 20
                assert info.value.budget_bytes == 1024
                response = handle_request(
                    svc, {"graph": "g", "k": 5, "epsilon": 0.3}
                )
            finally:
                gov.account("test.pinned", "resident", -(1 << 20))
        assert response["ok"] is False
        assert response["overloaded"] is True
        assert "memory budget exhausted" in response["error"]
        assert svc.health()["counters"]["service.memory_pressure.shed"] == 2
    finally:
        svc.close()
