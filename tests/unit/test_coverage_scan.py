"""Coverage-scan parity: the word-parallel bitset scan must pick the
same seeds with the same :class:`SelectionStats` as the CSR postings
walk, including prefix views of a shared warm index."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds, select_seeds_reference
from repro.kernels import ENV_COVERAGE_SCAN
from repro.memory.budget import ENV_MEMORY_BUDGET_MB
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
    ref = select_seeds(collection, 8, scan="csr")
    for scan in ("bitset", "auto"):
        _assert_same_selection(ref, select_seeds(collection, 8, scan=scan))
    # both agree with the Alg. 3 oracle
    _assert_same_selection(ref, select_seeds_reference(collection, 8))


def test_env_var_selects_scan(collection, monkeypatch):
    ref = select_seeds(collection, 5, scan="csr")
    monkeypatch.setenv(ENV_COVERAGE_SCAN, "bitset")
    with obs.profiled() as handle:
        out = select_seeds(collection, 5)
    _assert_same_selection(ref, out)
    counters = handle.report().counters
    assert counters.get("selection.scan.words_touched", 0) > 0
    assert counters.get("selection.scan.posting_reads", 0) == 0


def test_auto_falls_back_under_tiny_budget(collection, monkeypatch):
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "0.001")
    ref = select_seeds(collection, 5, scan="csr")
    with obs.profiled() as handle:
        out = select_seeds(collection, 5, scan="auto")
    _assert_same_selection(ref, out)
    counters = handle.report().counters
    assert counters.get("kernels.bitset.fallbacks", 0) >= 1
    assert counters.get("selection.scan.posting_reads", 0) > 0


def test_prefix_view_through_shared_index(small_ic_graph):
    """A CoverageIndex (and its cached membership plane) that already
    covers the full stream serves any collection prefix — the tail bits
    beyond the prefix must be masked out."""
    full, _ = sample_rrr_ic(small_ic_graph, 600, rng=23)
    prefix = full.prefix(250)
    index = CoverageIndex.build(full)  # ahead of the prefix
    ref = select_seeds(prefix, 6, index=index, scan="csr")
    out = select_seeds(prefix, 6, index=index, scan="bitset")
    _assert_same_selection(ref, out)
    # and the same membership plane then serves the full collection
    ref_full = select_seeds(full, 6, index=index, scan="csr")
    out_full = select_seeds(full, 6, index=index, scan="bitset")
    _assert_same_selection(ref_full, out_full)


def test_membership_plane_grows_with_index(small_ic_graph):
    """Selecting on a growing stream through one index reuses and
    extends the same membership plane instead of rebuilding it."""
    full, _ = sample_rrr_ic(small_ic_graph, 400, rng=31)
    index = CoverageIndex(full.n)
    planes = []
    for theta in (100, 250, 400):
        view = full.prefix(theta)
        index.extend_to(view)
        select_seeds(view, 4, index=index, scan="bitset")
        planes.append(index._membership)
        assert index._membership.num_sets == theta
    assert planes[0] is planes[1] is planes[2]


def test_bitset_scan_beats_csr_on_element_touches(collection):
    """The gate's mechanism in miniature: scanning words touches far
    fewer elements than walking postings."""
    with obs.profiled() as handle:
        select_seeds(collection, 8, scan="bitset")
    words = handle.report().counters.get("selection.scan.words_touched", 0)
    with obs.profiled() as handle:
        select_seeds(collection, 8, scan="csr")
    reads = handle.report().counters.get("selection.scan.posting_reads", 0)
    assert words > 0 and reads > 0
