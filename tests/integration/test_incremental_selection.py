"""Incremental selection: oracle parity end-to-end and index reuse.

The :class:`~repro.imm.coverage.CoverageIndex` promises two things the
unit tests can't fully exercise: (1) the indexed greedy that
``run_imm`` runs produces bit-identical seeds *and*
:class:`SelectionStats` to the Alg. 3 oracle
(:func:`~repro.imm.seed_selection.select_seeds_reference`) on the
collection a whole ``run_imm`` (phase loop + final selection) ends
with and on prefix views of it, on both diffusion models, with and
without source elimination; (2) a store-backed sweep builds each
posting exactly once — top-ups and checkpoint resume extend the same
index instead of rebuilding it.
"""

import numpy as np
import pytest

from repro import obs
from repro.imm import IMMOptions, run_imm
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds, select_seeds_reference
from repro.rrr.store import RRRStore, clear_stores

EPSILON = 0.4
K = 6


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_stores()
    yield
    clear_stores()


def _assert_selections_identical(a, b):
    assert np.array_equal(a.seeds, b.seeds)
    assert a.covered_sets == b.covered_sets and a.num_sets == b.num_sets
    assert np.array_equal(a.marginal_gains, b.marginal_gains)
    sa, sb = a.stats, b.stats
    assert np.array_equal(sa.sets_scanned, sb.sets_scanned)
    assert np.array_equal(sa.sets_found, sb.sets_found)
    assert np.array_equal(sa.elements_decremented, sb.elements_decremented)
    assert sa.avg_set_size == sb.avg_set_size


def _assert_runs_identical(a, b):
    assert a.theta == b.theta
    _assert_selections_identical(a.selection, b.selection)


def _assert_matches_oracle(result, index):
    """``result``'s selection, and indexed selection over prefix views
    of its collection, equal the Alg. 3 oracle."""
    collection = result.collection
    _assert_selections_identical(
        result.selection, select_seeds_reference(collection, result.k)
    )
    for num_sets in (1, collection.num_sets // 3, collection.num_sets - 1):
        prefix = collection.prefix(num_sets)
        _assert_selections_identical(
            select_seeds(prefix, result.k, index=index),
            select_seeds_reference(prefix, result.k),
        )


# -- oracle parity through run_imm -------------------------------------------
@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("eliminate", [False, True])
def test_strategies_identical_through_run_imm(
    small_ic_graph, small_lt_graph, model, eliminate
):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    result = run_imm(
        graph, K, EPSILON, rng=17,
        options=IMMOptions(model=model, eliminate_sources=eliminate),
    )
    _assert_matches_oracle(result, CoverageIndex.build(result.collection))


def test_store_backed_strategies_identical(small_ic_graph):
    store = RRRStore(small_ic_graph, entropy=(5, 5), chunk_sets=256)
    result = run_imm(small_ic_graph, K, EPSILON, rng=17, store=store)
    # the store's index may run past the run's collection (chunk
    # overshoot): selection over prefix views must clip it
    _assert_matches_oracle(result, store.coverage_index())
    store.close()


# -- index reuse across ensure top-ups --------------------------------------
def test_store_index_persists_across_topups(small_ic_graph):
    store = RRRStore(small_ic_graph, entropy=(1, 2), chunk_sets=128)
    store.ensure(300)
    with obs.profiled() as handle:
        first = store.coverage_index()
    built_first = handle.report().counters.get("selection.index.built_elements", 0)
    assert built_first == first.num_elements > 0

    # same theta: nothing new to index, and it is the same object
    with obs.profiled() as handle:
        again = store.coverage_index()
    assert again is first
    assert handle.report().counters.get("selection.index.built_elements", 0) == 0

    # a top-up indexes only the new suffix
    store.ensure(900)
    before = first.num_elements
    with obs.profiled() as handle:
        grown = store.coverage_index()
    counters = handle.report().counters
    assert grown is first
    assert counters.get("selection.index.built_elements", 0) == (
        grown.num_elements - before
    )
    assert counters.get("selection.index.reused_elements", 0) == before
    store.close()


def test_store_index_matches_fresh_build_after_topups(small_ic_graph):
    store = RRRStore(small_ic_graph, entropy=(1, 2), chunk_sets=128)
    for theta in (200, 450, 1000):
        store.ensure(theta)
        store.coverage_index()
    collection, _ = store.ensure(1000)
    incremental = store.coverage_index()
    fresh = CoverageIndex.build(collection)
    assert incremental.num_elements >= fresh.num_elements  # chunk overshoot
    limit = collection.total_elements
    for v in range(collection.n):
        assert np.array_equal(
            incremental.postings(v, limit), fresh.postings(v)
        ), v
    store.close()


def test_sweep_reuses_index_across_k_cells(small_ic_graph):
    """A k-sweep over one store pays the index build once (modulo growth)."""
    store = RRRStore(small_ic_graph, entropy=(8, 8), chunk_sets=256)
    seeds = {}
    with obs.profiled() as handle:
        for k in (2, 4, 8):
            seeds[k] = run_imm(
                small_ic_graph, k, EPSILON, rng=17,
                store=store,
            ).seeds
    counters = handle.report().counters
    built = counters.get("selection.index.built_elements", 0)
    reused = counters.get("selection.index.reused_elements", 0)
    # every cached element indexed exactly once, reused many times over
    assert built == store.coverage_index().num_elements
    assert reused > built
    for k, s in seeds.items():
        assert s.size == k
    store.close()


# -- checkpoint resume -------------------------------------------------------
def test_checkpoint_resumed_store_index_parity(small_ic_graph, tmp_path):
    cold_store = RRRStore(
        small_ic_graph, entropy=(3, 4), chunk_sets=128,
        checkpoint_dir=tmp_path,
    )
    cold = run_imm(
        small_ic_graph, K, EPSILON, rng=17,
        store=cold_store,
    )
    cold_index = cold_store.coverage_index()
    cold_store.close()
    clear_stores()  # the "kill": in-memory state gone, checkpoints survive

    resumed_store = RRRStore(
        small_ic_graph, entropy=(3, 4), chunk_sets=128,
        checkpoint_dir=tmp_path,
    )
    with obs.profiled() as handle:
        resumed = run_imm(
            small_ic_graph, K, EPSILON, rng=17,
            store=resumed_store,
        )
    counters = handle.report().counters
    _assert_runs_identical(cold, resumed)
    # the resumed run re-sampled nothing...
    assert counters.get("rrr.store.sampled_sets", 0) == 0
    # ...and its index, grown over the checkpoint-loaded stream, matches
    # the uninterrupted one posting for posting
    resumed_index = resumed_store.coverage_index()
    assert resumed_index.num_elements == cold_index.num_elements
    for v in range(small_ic_graph.n):
        assert np.array_equal(resumed_index.postings(v), cold_index.postings(v))
    resumed_store.close()
