"""The SIMT kernels and the vectorized batch samplers must agree.

Three levels of agreement:
* invariants — sorted unique sets, source membership, counts consistency;
* exact — on deterministic graphs (p = 1) the set contents are forced;
* distributional — mean set size and singleton fraction match within
  sampling error on random graphs;
* selection — the Alg. 3 kernel returns byte-identical results to the
  library's greedy selection.
"""

import numpy as np
import pytest

from repro.graphs import DirectedGraph, assign_ic_weights, assign_lt_weights
from repro.graphs.generators import powerlaw_configuration
from repro.gpu.simt import simt_sample_ic, simt_sample_lt, simt_select_seeds
from repro.imm.seed_selection import select_seeds_reference
from repro.rrr import sample_rrr_ic, sample_rrr_lt


@pytest.fixture(scope="module")
def ic_graph():
    return assign_ic_weights(powerlaw_configuration(150, 900, rng=5))


@pytest.fixture(scope="module")
def lt_graph():
    return assign_lt_weights(powerlaw_configuration(150, 900, rng=5))


def test_simt_ic_invariants(ic_graph):
    coll, ops = simt_sample_ic(ic_graph, 200, rng=1)
    assert coll.num_sets == 200
    for i in range(0, 200, 17):
        s = coll.set_at(i)
        assert np.all(np.diff(s) > 0)
        assert coll.sources[i] in s
    recount = np.bincount(coll.flat, minlength=ic_graph.n)
    assert np.array_equal(recount, coll.counts)
    assert ops.rng_draws > 0 and ops.atomics > 0


def test_simt_ic_deterministic_chain():
    g = DirectedGraph.from_edges([0, 1, 2], [1, 2, 3], n=4,
                                 weights=[1.0, 1.0, 1.0])
    coll, _ = simt_sample_ic(g, 100, rng=2)
    for i in range(100):
        src = coll.sources[i]
        assert list(coll.set_at(i)) == list(range(src + 1))


def test_simt_ic_matches_batch_distribution(ic_graph):
    simt_coll, _ = simt_sample_ic(ic_graph, 600, rng=3)
    batch_coll, _ = sample_rrr_ic(ic_graph, 20_000, rng=3)
    assert simt_coll.sizes().mean() == pytest.approx(
        batch_coll.sizes().mean(), rel=0.15
    )
    assert simt_coll.singleton_fraction() == pytest.approx(
        batch_coll.singleton_fraction(), abs=0.07
    )


def test_simt_lt_invariants(lt_graph):
    coll, _ = simt_sample_lt(lt_graph, 200, rng=4)
    assert coll.num_sets == 200
    for i in range(0, 200, 13):
        s = coll.set_at(i)
        assert np.all(np.diff(s) > 0)
        assert coll.sources[i] in s


def test_simt_lt_matches_batch_distribution(lt_graph):
    simt_coll, _ = simt_sample_lt(lt_graph, 600, rng=6)
    batch_coll, _ = sample_rrr_lt(lt_graph, 20_000, rng=6)
    assert simt_coll.sizes().mean() == pytest.approx(
        batch_coll.sizes().mean(), rel=0.15
    )


def test_simt_source_elimination(ic_graph):
    coll, _ = simt_sample_ic(ic_graph, 150, rng=7, eliminate_sources=True)
    assert coll.num_sets == 150
    assert coll.empty_fraction() == 0.0
    for i in range(0, 150, 11):
        assert coll.sources[i] not in coll.set_at(i)


def test_simt_selection_matches_library(ic_graph):
    coll, _ = sample_rrr_ic(ic_graph, 400, rng=8)
    kernel_result, ops = simt_select_seeds(coll, 6)
    library_result = select_seeds_reference(coll, 6)
    assert np.array_equal(kernel_result.seeds, library_result.seeds)
    assert kernel_result.covered_sets == library_result.covered_sets
    assert np.array_equal(kernel_result.marginal_gains,
                          library_result.marginal_gains)
    assert np.array_equal(kernel_result.stats.sets_scanned,
                          library_result.stats.sets_scanned)
    # every uncovered set costs at least one probe per iteration
    assert ops.global_reads >= kernel_result.stats.total_scans()


def test_simt_selection_probe_count_tracks_binary_search(ic_graph):
    """Binary-search probes must be O(log size) per set, not O(size)."""
    coll, _ = sample_rrr_ic(ic_graph, 500, rng=9)
    _, ops = simt_select_seeds(coll, 1)
    sizes = coll.sizes()
    max_probes = int(np.sum(np.ceil(np.log2(np.maximum(sizes, 2))) + 1))
    total_elements = int(sizes.sum())
    # exclude the F probes and the argmax read
    search_probes = ops.global_reads - coll.num_sets - coll.n
    assert search_probes <= max_probes
    if total_elements > 4 * coll.num_sets:
        assert search_probes < total_elements  # strictly beats linear scan


def test_simt_lt_walks_respect_weights():
    """Chain 0 -> 1 with weight w: fraction of 2-element sets ~ w."""
    g = DirectedGraph.from_edges([0], [1], n=2, weights=[0.3])
    coll, _ = simt_sample_lt(g, 1500, rng=10)
    from_1 = coll.sources == 1
    extended = np.asarray(
        [coll.set_at(i).size == 2 for i in np.flatnonzero(from_1)]
    )
    assert 0.24 < extended.mean() < 0.36
