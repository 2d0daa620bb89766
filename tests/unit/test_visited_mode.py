"""Visited-mode parity: every sampler bookkeeping mode draws the same
stream, so collections *and* traces must be bit-identical across
``sorted`` / ``bitset`` / ``auto``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.kernels import ENV_VISITED_MODE
from repro.memory.budget import ENV_MEMORY_BUDGET_MB
from repro.rrr import sample_rrr_ic, sample_rrr_lt

SAMPLERS = {"IC": sample_rrr_ic, "LT": sample_rrr_lt}


def _assert_identical(ref, out):
    coll_ref, trace_ref = ref
    coll, trace = out
    np.testing.assert_array_equal(coll.flat, coll_ref.flat)
    np.testing.assert_array_equal(coll.offsets, coll_ref.offsets)
    np.testing.assert_array_equal(coll.sources, coll_ref.sources)
    np.testing.assert_array_equal(coll.counts, coll_ref.counts)
    np.testing.assert_array_equal(trace.sizes, trace_ref.sizes)
    np.testing.assert_array_equal(trace.rounds, trace_ref.rounds)
    np.testing.assert_array_equal(trace.edges_examined, trace_ref.edges_examined)
    np.testing.assert_array_equal(trace.kept_mask, trace_ref.kept_mask)
    np.testing.assert_array_equal(trace.sources, trace_ref.sources)
    assert trace.raw_singletons == trace_ref.raw_singletons


@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("eliminate", [False, True])
def test_parity_matrix(model, eliminate, small_ic_graph, small_lt_graph):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    sampler = SAMPLERS[model]
    ref = sampler(graph, 400, rng=42, eliminate_sources=eliminate,
                  batch_size=128, visited_mode="sorted")
    for mode in ("bitset", "auto"):
        out = sampler(graph, 400, rng=42, eliminate_sources=eliminate,
                      batch_size=128, visited_mode=mode)
        _assert_identical(ref, out)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_env_var_selects_mode(model, small_ic_graph, small_lt_graph, monkeypatch):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    sampler = SAMPLERS[model]
    ref = sampler(graph, 200, rng=5, visited_mode="sorted")
    monkeypatch.setenv(ENV_VISITED_MODE, "bitset")
    with obs.profiled() as handle:
        out = sampler(graph, 200, rng=5)  # mode resolved from the env
    _assert_identical(ref, out)
    # the bitset path really ran: the visited plane was accounted
    assert handle.report().gauges.get("kernels.bitset.plane_bytes", 0) > 0


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_auto_falls_back_under_tiny_budget(
    model, small_ic_graph, small_lt_graph, monkeypatch
):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    sampler = SAMPLERS[model]
    ref = sampler(graph, 200, rng=9, visited_mode="sorted")
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "0.001")  # ~1 KiB: no plane fits
    with obs.profiled() as handle:
        out = sampler(graph, 200, rng=9, visited_mode="auto")
    _assert_identical(ref, out)
    counters = handle.report().counters
    gauges = handle.report().gauges
    assert counters.get("kernels.bitset.fallbacks", 0) >= 1
    assert gauges.get("kernels.bitset.plane_bytes", 0) == 0  # never built


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_auto_plane_within_budget(model, small_ic_graph, small_lt_graph, monkeypatch):
    """When auto picks bitset, the accounted plane respects the budget."""
    graph = small_ic_graph if model == "IC" else small_lt_graph
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "1")
    with obs.profiled() as handle:
        SAMPLERS[model](graph, 300, rng=3, batch_size=64, visited_mode="auto")
    gauges = handle.report().gauges
    plane_bytes = gauges.get("kernels.bitset.plane_bytes", 0)
    assert 0 < plane_bytes <= 1024 * 1024


def test_bitset_mode_counts_words_and_tiles(small_ic_graph):
    with obs.profiled() as handle:
        sample_rrr_ic(small_ic_graph, 200, rng=1, visited_mode="bitset")
    counters = handle.report().counters
    assert counters.get("kernels.bitset.words_touched", 0) > 0
    assert counters.get("kernels.bitset.tiles", 0) >= 1


def test_singleton_heavy_graph_parity(line_graph):
    """Tiny graphs with near-empty RRR sets exercise the empty-frontier
    paths of both modes."""
    from repro.graphs import assign_ic_weights

    graph = assign_ic_weights(line_graph)
    ref = sample_rrr_ic(graph, 50, rng=0, eliminate_sources=True,
                        visited_mode="sorted")
    out = sample_rrr_ic(graph, 50, rng=0, eliminate_sources=True,
                        visited_mode="bitset")
    _assert_identical(ref, out)


def test_lt_selection_index_cache(small_lt_graph):
    """The per-graph LT selection index is built once and reused."""
    from repro.rrr import clear_selection_indices

    clear_selection_indices()
    with obs.profiled() as handle:
        sample_rrr_lt(small_lt_graph, 50, rng=1)
        sample_rrr_lt(small_lt_graph, 50, rng=2)
    counters = handle.report().counters
    assert counters.get("rrr.lt_index.built", 0) == 1
    assert counters.get("rrr.lt_index.reused", 0) >= 1
    clear_selection_indices()
    with obs.profiled() as handle:
        sample_rrr_lt(small_lt_graph, 50, rng=3)
    assert handle.report().counters.get("rrr.lt_index.built", 0) == 1
