"""Greedy-selection properties: the fast inverted-index implementation is
extensionally equal to the literal Alg. 3 reference on arbitrary inputs,
and greedy max-coverage obeys its submodular structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imm import select_seeds
from repro.imm.seed_selection import select_seeds_reference
from repro.rrr import RRRCollection

N = 15

sets_strategy = st.lists(
    st.lists(st.integers(0, N - 1), min_size=0, max_size=6),
    min_size=1,
    max_size=25,
)


def _coll(sets):
    return RRRCollection.from_sets([sorted(set(s)) for s in sets], n=N)


@given(sets_strategy, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_fast_equals_reference(sets, k):
    coll = _coll(sets)
    fast = select_seeds(coll, k)
    ref = select_seeds_reference(coll, k)
    assert np.array_equal(fast.seeds, ref.seeds)
    assert fast.covered_sets == ref.covered_sets
    assert np.array_equal(fast.marginal_gains, ref.marginal_gains)
    assert np.array_equal(fast.stats.sets_found, ref.stats.sets_found)
    assert np.array_equal(
        fast.stats.elements_decremented, ref.stats.elements_decremented
    )


@given(sets_strategy, st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_marginal_gains_non_increasing(sets, k):
    res = select_seeds(_coll(sets), k)
    gains = res.marginal_gains
    assert np.all(gains[:-1] >= gains[1:])


@given(sets_strategy, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_coverage_equals_gain_sum(sets, k):
    res = select_seeds(_coll(sets), k)
    assert res.covered_sets == res.marginal_gains.sum()
    assert 0.0 <= res.coverage_fraction <= 1.0


@given(sets_strategy)
@settings(max_examples=40, deadline=None)
def test_first_seed_is_global_max_count(sets):
    coll = _coll(sets)
    res = select_seeds(coll, 1)
    assert coll.counts[res.seeds[0]] == coll.counts.max()


@given(sets_strategy, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_greedy_at_least_half_of_best_single_plus(sets, k):
    """Greedy coverage is at least the best single vertex's coverage."""
    coll = _coll(sets)
    res = select_seeds(coll, k)
    best_single = select_seeds(coll, 1)
    assert res.covered_sets >= best_single.covered_sets


@given(sets_strategy, st.integers(1, N))
@settings(max_examples=80, deadline=None)
def test_seeds_always_distinct(sets, k):
    """select_seeds never returns duplicate vertices, for any k up to n —
    even when coverage saturates and every remaining gain is zero."""
    coll = _coll(sets)
    for select in (select_seeds, select_seeds_reference):
        res = select(coll, k)
        assert res.seeds.size == k
        assert len(set(res.seeds.tolist())) == k
        assert all(0 <= v < N for v in res.seeds.tolist())
