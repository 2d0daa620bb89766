import numpy as np
import pytest

from repro.imm import CoverageIndex, select_seeds
from repro.imm.seed_selection import select_seeds_reference
from repro.rrr import RRRCollection, sample_rrr_ic
from repro.utils.errors import ValidationError


#: the indexed greedy and its Alg. 3 oracle
SELECTORS = (select_seeds, select_seeds_reference)


def _coll(sets, n):
    return RRRCollection.from_sets(sets, n=n)


def _assert_identical(a, b):
    assert np.array_equal(a.seeds, b.seeds)
    assert a.covered_sets == b.covered_sets
    assert np.array_equal(a.marginal_gains, b.marginal_gains)
    assert np.array_equal(a.stats.sets_scanned, b.stats.sets_scanned)
    assert np.array_equal(a.stats.sets_found, b.stats.sets_found)
    assert np.array_equal(a.stats.elements_decremented, b.stats.elements_decremented)
    assert a.stats.avg_set_size == b.stats.avg_set_size


def test_picks_max_count_vertex_first():
    coll = _coll([[0, 1], [1, 2], [1], [3]], n=4)
    res = select_seeds(coll, 1)
    assert res.seeds[0] == 1
    assert res.covered_sets == 3
    assert res.coverage_fraction == pytest.approx(0.75)


def test_marginal_gains_after_removal():
    # after picking 1 (covers 3 sets), vertex 3 covers the remaining set
    coll = _coll([[0, 1], [1, 2], [1], [3]], n=4)
    res = select_seeds(coll, 2)
    assert list(res.seeds) == [1, 3]
    assert list(res.marginal_gains) == [3, 1]
    assert res.covered_sets == 4


def test_counts_are_marginal_not_absolute():
    # vertex 0 appears in 3 sets, but all are covered by vertex 1 too;
    # vertex 2 covers two fresh sets and must be picked second
    coll = _coll(
        [[0, 1], [0, 1], [0, 1], [2, 3], [2]], n=4
    )
    res = select_seeds(coll, 2)
    assert list(res.seeds) == [0, 2]  # 0 wins tie against 1 (lower id)
    assert res.covered_sets == 5


def test_tie_break_lowest_id():
    coll = _coll([[5], [7]], n=8)
    for select in SELECTORS:
        assert select(coll, 1).seeds[0] == 5, select


def test_lazy_tie_break_after_decrements():
    # vertices 2 and 5 end round 2 tied after 5 ranked higher before
    # the decrement: the lower id still wins
    coll = _coll([[0, 5], [0, 5], [0, 2], [2], [5]], n=6)
    for select in SELECTORS:
        assert list(select(coll, 2).seeds) == [0, 2], select


def test_all_strategies_identical_on_random_samples(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 600, rng=3)
    _assert_identical(select_seeds(coll, 8), select_seeds_reference(coll, 8))


def test_index_over_longer_stream_serves_prefix(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 500, rng=8)
    index = CoverageIndex.build(coll)  # covers all 500 sets
    for num_sets in (1, 137, 499):
        prefix = coll.prefix(num_sets)
        plain = select_seeds(prefix, 5)
        _assert_identical(plain, select_seeds(prefix, 5, index=index))
        _assert_identical(plain, select_seeds_reference(prefix, 5))


def test_stale_index_rejected(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 100, rng=9)
    index = CoverageIndex.build(coll.prefix(40))
    with pytest.raises(ValidationError):
        select_seeds(coll, 3, index=index)  # index is behind the collection
    other = CoverageIndex(coll.n + 1)
    with pytest.raises(ValidationError):
        select_seeds(coll, 3, index=other)


def test_selection_stats_shapes():
    coll = _coll([[0], [1], [0, 1]], n=3)
    res = select_seeds(coll, 2)
    assert res.stats.sets_scanned.shape == (2,)
    assert res.stats.sets_scanned[0] == 3
    assert res.stats.total_scans() >= 3
    assert res.stats.avg_set_size == pytest.approx(4 / 3)


def test_gain_sequence_non_increasing(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 2000, rng=5)
    res = select_seeds(coll, 12)
    gains = res.marginal_gains
    assert np.all(gains[:-1] >= gains[1:])  # greedy max-coverage is submodular


def test_empty_sets_never_covered():
    coll = RRRCollection.from_sets([[], [], [0]], n=2)
    res = select_seeds(coll, 1)
    assert res.covered_sets == 1


def test_validation():
    coll = _coll([[0]], n=2)
    for select in SELECTORS:
        with pytest.raises(ValidationError):
            select(coll, 0)
        with pytest.raises(ValidationError):
            select(coll, 3)


def test_k_larger_than_useful_vertices():
    coll = _coll([[0], [0]], n=3)
    res = select_seeds(coll, 3)
    assert res.seeds.size == 3
    assert res.covered_sets == 2


def test_no_duplicate_seeds_after_saturation():
    # regression: once every set is covered, argmax over all-zero counts
    # used to return vertex 0 forever, yielding duplicate seeds
    coll = _coll([[0], [0]], n=4)
    for select in SELECTORS:
        res = select(coll, 4)
        assert sorted(res.seeds.tolist()) == [0, 1, 2, 3]
        assert len(set(res.seeds.tolist())) == res.seeds.size


def test_no_duplicate_seeds_dense_small_collection():
    # every set contains vertex 1: after picking it, all gains are zero
    coll = _coll([[1, 2], [0, 1], [1]], n=5)
    res = select_seeds(coll, 5)
    assert len(set(res.seeds.tolist())) == 5
    assert res.seeds[0] == 1
    # post-saturation picks proceed by ascending vertex id
    assert sorted(res.seeds.tolist()) == [0, 1, 2, 3, 4]


def test_saturation_marginal_gains_are_zero():
    coll = _coll([[2]], n=3)
    res = select_seeds(coll, 3)
    assert res.seeds[0] == 2
    assert list(res.marginal_gains) == [1, 0, 0]
    assert res.covered_sets == 1


def test_distinct_seeds_on_random_collection(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 400, rng=9)
    res = select_seeds(coll, small_ic_graph.n)  # k == n, maximal stress
    assert len(set(res.seeds.tolist())) == small_ic_graph.n


def test_index_counters_distinguish_build_from_reuse(small_ic_graph):
    from repro import obs

    coll, _ = sample_rrr_ic(small_ic_graph, 200, rng=11)
    with obs.profiled() as handle:
        select_seeds(coll, 4)  # no index passed: builds a throwaway one
    built = handle.report().counters.get("selection.index.built_elements", 0)
    assert built == coll.total_elements

    index = CoverageIndex.build(coll)
    with obs.profiled() as handle:
        select_seeds(coll, 4, index=index)
    counters = handle.report().counters
    assert counters.get("selection.index.built_elements", 0) == 0
    assert counters.get("selection.index.served_elements", 0) == coll.total_elements
