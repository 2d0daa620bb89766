"""Unit tests for the influence-query serving tier.

Covers the service's three pillars one at a time: the multi-tier cache
(exact / prefix / cold classification, LRU eviction, eviction safety),
the admission-controlled scheduler (overload rejection, coalescing
bookkeeping, fault isolation), and the service facade (graph registry,
determinism contract, lifecycle).
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.imm.imm import run_imm
from repro.imm.options import IMMOptions
from repro.rrr.store import RRRStore
from repro.service import (
    InfluenceQuery,
    InfluenceService,
    QueryOutcome,
    ServiceClosedError,
    ServiceOptions,
    ServiceOverloadedError,
)
from repro.service.cache import ExactResultCache, SubstrateTable
from repro.service.scheduler import QueryScheduler, ScheduledJob
from repro.utils.errors import ValidationError

FAST = ServiceOptions(max_inflight=2, max_queue_depth=8, chunk_sets=256)


def _query(k=5, epsilon=0.3, **kw):
    return InfluenceQuery("g", k=k, epsilon=epsilon, **kw)


@pytest.fixture
def service(small_ic_graph):
    svc = InfluenceService(FAST)
    svc.register_graph("g", small_ic_graph)
    yield svc
    svc.close()


# -- ServiceOptions ----------------------------------------------------------


def test_service_options_validation():
    with pytest.raises(ValidationError):
        ServiceOptions(max_inflight=0)
    with pytest.raises(ValidationError):
        ServiceOptions(max_queue_depth=0)
    with pytest.raises(ValidationError):
        ServiceOptions(max_substrates=0)
    with pytest.raises(ValidationError):
        ServiceOptions(exact_cache_size=-1)
    replaced = ServiceOptions().replace(max_inflight=7)
    assert replaced.max_inflight == 7


def test_query_validation(small_ic_graph):
    with pytest.raises(ValidationError):
        InfluenceQuery("g", k=0, epsilon=0.3)
    with pytest.raises(ValidationError):
        InfluenceQuery("g", k=5, epsilon=0.0)
    with pytest.raises(ValidationError):
        InfluenceQuery("g", k=5, epsilon=1.5)
    with pytest.raises(ValidationError):
        InfluenceQuery(42, k=5, epsilon=0.3)
    with pytest.raises(ValidationError):
        InfluenceQuery("g", k=5, epsilon=0.3, options={"model": "IC"})


def test_query_keys_mirror_store_identity(small_ic_graph):
    q = InfluenceQuery(small_ic_graph, k=5, epsilon=0.3)
    store = RRRStore(small_ic_graph, chunk_sets=256)
    assert q.coalesce_key(small_ic_graph, 256) == store.key()
    store.close()
    # result key extends the coalescing key with the answer shape
    r1 = q.result_key(small_ic_graph, 256)
    r2 = InfluenceQuery(small_ic_graph, k=6, epsilon=0.3).result_key(
        small_ic_graph, 256
    )
    key_len = len(q.coalesce_key(small_ic_graph, 256))
    assert r1[:key_len] == r2[:key_len]
    assert len(r1) == key_len + 3  # k, epsilon, bounds
    assert r1 != r2
    # the answer fields are named, and the key still equals and hashes
    # as the plain tuple of its fields
    assert (r1.k, r1.epsilon, r1.bounds) == (5, 0.3, q.options.bounds)
    assert r1 == tuple(r1) and hash(r1) == hash(tuple(r1))


def test_exact_cache_find_relaxed_matches_on_named_fields(small_ic_graph):
    cache = ExactResultCache(capacity=8)
    key = InfluenceQuery(small_ic_graph, k=5, epsilon=0.4).result_key(
        small_ic_graph, 256
    )
    cache.put(key._replace(epsilon=0.3), "tight")
    cache.put(key._replace(epsilon=0.2), "tighter")
    cache.put(key._replace(epsilon=0.5), "looser")
    cache.put(key._replace(k=6, epsilon=0.1), "other k")
    assert cache.find_relaxed(key, slack=2.0) == (0.2, "tighter")
    assert cache.find_relaxed(key._replace(k=7), slack=2.0) is None


# -- tier 1: exact result cache ----------------------------------------------


def test_exact_cache_lru_eviction():
    cache = ExactResultCache(capacity=2)
    cache.put(("a",), "ra")
    cache.put(("b",), "rb")
    assert cache.get(("a",)) == "ra"  # refresh a
    cache.put(("c",), "rc")  # evicts b, the LRU
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == "ra"
    assert cache.get(("c",)) == "rc"
    assert len(cache) == 2


def test_exact_cache_zero_capacity_disables():
    cache = ExactResultCache(capacity=0)
    cache.put(("a",), "ra")
    assert cache.get(("a",)) is None


# -- tier 2: substrate table -------------------------------------------------


def test_substrate_table_coalesces_and_evicts_idle():
    class FakeStore:
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

    table = SubstrateTable(capacity=1)
    s1, warm1 = table.acquire(("k1",), FakeStore)
    assert not warm1
    again, warm2 = table.acquire(("k1",), FakeStore)
    assert warm2 and again is s1
    # k1 is pinned twice; adding k2 over capacity must NOT evict it
    s2, _ = table.acquire(("k2",), FakeStore)
    assert not s1.store.closed
    table.release(s1)
    table.release(s1)
    table.release(s2)
    # now k1 is idle: the next over-capacity insert evicts and closes it
    s3, _ = table.acquire(("k3",), FakeStore)
    assert s1.store.closed
    table.release(s3)
    table.close()
    assert s3.store.closed


# -- scheduler ---------------------------------------------------------------


def test_scheduler_overload_rejects_with_depth():
    release = threading.Event()
    started = threading.Event()

    def execute(job):
        started.set()
        release.wait(10)
        return job.query

    sched = QueryScheduler(max_inflight=1, max_queue_depth=2, execute=execute)
    q = _query()
    futures = [sched.submit(ScheduledJob(query=q, key=("k",)))]
    started.wait(10)  # the worker holds job 1; queue is now empty
    futures += [
        sched.submit(ScheduledJob(query=q, key=("k",))) for _ in range(2)
    ]
    with pytest.raises(ServiceOverloadedError) as info:
        sched.submit(ScheduledJob(query=q, key=("k",)))
    assert info.value.max_queue_depth == 2
    release.set()
    assert all(f.result(10) is q for f in futures)
    sched.close()


def test_scheduler_marks_coalesced_siblings():
    release = threading.Event()
    started = threading.Event()

    def execute(job):
        started.set()
        release.wait(10)
        return job.coalesced

    sched = QueryScheduler(max_inflight=1, max_queue_depth=8, execute=execute)
    q = _query()
    first = sched.submit(ScheduledJob(query=q, key=("k",)))
    started.wait(10)
    sibling = sched.submit(ScheduledJob(query=q, key=("k",)))
    stranger = sched.submit(ScheduledJob(query=q, key=("other",)))
    release.set()
    assert first.result(10) is False
    assert sibling.result(10) is True
    assert stranger.result(10) is False
    sched.close()


def test_scheduler_isolates_execution_errors():
    def execute(job):
        if job.key == ("boom",):
            raise RuntimeError("worker exploded")
        return "fine"

    sched = QueryScheduler(max_inflight=1, max_queue_depth=8, execute=execute)
    q = _query()
    bad = sched.submit(ScheduledJob(query=q, key=("boom",)))
    good = sched.submit(ScheduledJob(query=q, key=("ok",)))
    with pytest.raises(RuntimeError, match="worker exploded"):
        bad.result(10)
    assert good.result(10) == "fine"  # the worker survived the explosion
    sched.close()


def test_scheduler_close_rejects_new_submits():
    sched = QueryScheduler(max_inflight=1, max_queue_depth=2,
                           execute=lambda job: None)
    sched.close()
    with pytest.raises(ServiceClosedError):
        sched.submit(ScheduledJob(query=_query(), key=("k",)))


# -- service -----------------------------------------------------------------


def test_service_tiers_cold_exact_prefix(service):
    cold = service.query(_query(k=5))
    assert isinstance(cold, QueryOutcome)
    assert cold.cache_tier == "cold" and cold.sampled_sets > 0

    exact = service.query(_query(k=5))
    assert exact.cache_tier == "exact" and exact.sampled_sets == 0
    assert list(exact.seeds) == list(cold.seeds)

    prefix = service.query(_query(k=3))
    assert prefix.cache_tier == "prefix" and prefix.sampled_sets == 0
    assert list(prefix.seeds) == list(cold.seeds)[:3]


def test_service_matches_direct_run_imm(service, small_ic_graph):
    served = service.query(_query(k=5))
    store = RRRStore(small_ic_graph, chunk_sets=FAST.chunk_sets)
    direct = run_imm(small_ic_graph, 5, 0.3, options=IMMOptions(), store=store)
    store.close()
    assert list(served.seeds) == list(direct.seeds)
    assert served.result.theta == direct.theta


def test_service_rejects_unknown_graph_and_bad_k(service):
    with pytest.raises(ValidationError, match="unknown graph"):
        service.query(InfluenceQuery("nope", k=5, epsilon=0.3))
    with pytest.raises(ValidationError, match="k must be"):
        service.query(_query(k=10_000))


def test_service_requires_weighted_graph(small_ic_graph):
    from repro.graphs.generators import powerlaw_configuration

    svc = InfluenceService(FAST)
    with pytest.raises(ValidationError, match="weighted"):
        svc.register_graph("raw", powerlaw_configuration(50, 200, rng=1))
    svc.close()


def test_service_distinct_entropy_distinct_substrates(service):
    a = service.query(_query(k=5, entropy=0))
    b = service.query(_query(k=5, entropy=1))
    assert service.stats()["substrates"] == 2
    assert b.cache_tier == "cold"  # different stream, no sharing
    assert a.sampled_sets > 0 and b.sampled_sets > 0


def test_service_substrate_eviction_keeps_serving(small_ic_graph):
    svc = InfluenceService(FAST.replace(max_substrates=1))
    svc.register_graph("g", small_ic_graph)
    svc.query(_query(k=5, entropy=0))
    svc.query(_query(k=5, entropy=1))  # evicts entropy=0's substrate
    assert svc.stats()["substrates"] == 1
    # a repeat of the evicted stream still answers (exact tier), and a
    # new cell on it rebuilds the substrate from scratch
    assert svc.query(_query(k=5, entropy=0)).cache_tier == "exact"
    rebuilt = svc.query(_query(k=4, entropy=0))
    assert rebuilt.cache_tier == "cold"
    svc.close()


def test_service_closed_rejects_submit(service):
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(_query())


def test_service_context_manager(small_ic_graph):
    with InfluenceService(FAST) as svc:
        svc.register_graph("g", small_ic_graph)
        outcome = svc.query(_query(k=3))
        assert len(outcome.seeds) == 3
    with pytest.raises(ServiceClosedError):
        svc.submit(_query())


def test_service_submit_returns_future(service):
    future = service.submit(_query(k=4))
    assert isinstance(future, Future)
    outcome = future.result(timeout=60)
    assert outcome.query.k == 4


def test_service_stats_shape(service):
    service.query(_query(k=3))
    stats = service.stats()
    assert stats["registered_graphs"] == 1
    assert stats["substrates"] == 1
    assert stats["exact_cache_entries"] == 1
    assert stats["closed"] is False


# -- registry thread-safety (satellite) --------------------------------------


def test_shared_registries_single_instance_under_races(small_ic_graph):
    from repro.rrr.parallel import shared_pool, shutdown_pools
    from repro.rrr.store import clear_stores, shared_store

    stores, pools = [], []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        stores.append(shared_store(small_ic_graph, chunk_sets=128))
        pools.append(shared_pool(small_ic_graph, 2))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        assert len({id(s) for s in stores}) == 1
        assert len({id(p) for p in pools}) == 1
    finally:
        clear_stores()
        shutdown_pools()
