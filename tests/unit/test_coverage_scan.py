"""Coverage-scan checks: the CSR postings walk must pick the same seeds
with the same :class:`SelectionStats` as the Alg. 3 oracle, including
prefix views of a shared warm index, and selection must charge nothing
to the memory governor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds, select_seeds_reference
from repro.memory.budget import budget_scope
from repro.rrr import sample_rrr_ic


def _assert_same_selection(ref, out):
    np.testing.assert_array_equal(out.seeds, ref.seeds)
    assert out.covered_sets == ref.covered_sets
    assert out.num_sets == ref.num_sets
    np.testing.assert_array_equal(out.marginal_gains, ref.marginal_gains)
    np.testing.assert_array_equal(out.stats.sets_scanned, ref.stats.sets_scanned)
    np.testing.assert_array_equal(out.stats.sets_found, ref.stats.sets_found)
    np.testing.assert_array_equal(
        out.stats.elements_decremented, ref.stats.elements_decremented
    )
    assert out.stats.avg_set_size == ref.stats.avg_set_size


@pytest.fixture
def collection(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 500, rng=17)
    return coll


def test_scan_parity(collection):
    ref = select_seeds_reference(collection, 8)
    _assert_same_selection(ref, select_seeds(collection, 8))
    # a caller-held index gives the same answer as a throwaway one
    index = CoverageIndex.build(collection)
    _assert_same_selection(ref, select_seeds(collection, 8, index=index))


def test_selection_under_tiny_budget_charges_no_plane(collection, monkeypatch):
    """Selection walks postings whatever the budget: it reserves no
    dense plane, so it cannot push RRR chunks out of a tight budget."""
    ref = select_seeds_reference(collection, 5)
    with budget_scope(1024) as gov, obs.profiled() as handle:
        requests = []
        monkeypatch.setattr(gov, "request", lambda nbytes=0: requests.append(nbytes))
        monkeypatch.setattr(gov, "account", lambda *args: requests.append(args))
        out = select_seeds(collection, 5)
    assert requests == []
    _assert_same_selection(ref, out)
    counters = handle.report().counters
    assert counters.get("selection.scan.posting_reads", 0) > 0
    assert counters.get("kernels.bitset.fallbacks", 0) == 0
    assert "kernels.membership.plane_bytes" not in handle.report().gauges


def test_prefix_view_through_shared_index(small_ic_graph):
    """A CoverageIndex that already covers the full stream serves any
    collection prefix — postings beyond the prefix must be clipped."""
    full, _ = sample_rrr_ic(small_ic_graph, 600, rng=23)
    prefix = full.prefix(250)
    index = CoverageIndex.build(full)  # ahead of the prefix
    _assert_same_selection(
        select_seeds_reference(prefix, 6), select_seeds(prefix, 6, index=index)
    )
    # and the same index then serves the full collection
    _assert_same_selection(
        select_seeds_reference(full, 6), select_seeds(full, 6, index=index)
    )


def test_index_grows_with_stream(small_ic_graph):
    """Selecting on a growing stream through one index extends it by
    the new elements only, and each prefix matches the oracle."""
    full, _ = sample_rrr_ic(small_ic_graph, 400, rng=31)
    index = CoverageIndex(full.n)
    with obs.profiled() as handle:
        for theta in (100, 250, 400):
            view = full.prefix(theta)
            index.extend_to(view)
            _assert_same_selection(
                select_seeds_reference(view, 4), select_seeds(view, 4, index=index)
            )
    counters = handle.report().counters
    assert counters["selection.index.built_elements"] == full.total_elements
    assert index.num_elements == full.total_elements


def test_saturation_past_full_coverage(small_ic_graph):
    """Past full coverage every gain is zero: later picks are the
    lowest-id unselected vertices, exactly as in the oracle."""
    coll, _ = sample_rrr_ic(small_ic_graph, 40, rng=5)
    k = min(coll.n, 60)
    ref = select_seeds_reference(coll, k)
    out = select_seeds(coll, k)
    _assert_same_selection(ref, out)
    assert out.covered_sets == coll.num_sets
    assert out.marginal_gains[-1] == 0
    assert np.unique(out.seeds).size == k
