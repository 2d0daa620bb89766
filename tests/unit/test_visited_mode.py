"""Visited-mode parity: every sampler bookkeeping mode draws the same
stream, so collections *and* traces must be bit-identical across
``sorted`` / ``bitset`` / ``auto`` — including ``auto`` batches that move
onto the dense plane mid-traversal."""

from __future__ import annotations

import numpy as np
import pytest

import repro.rrr.sampler_ic as sampler_ic_mod
import repro.rrr.sampler_lt as sampler_lt_mod
from repro import obs
from repro.graphs import assign_ic_weights, assign_lt_weights
from repro.graphs.csc import DirectedGraph
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import powerlaw_configuration
from repro.imm import IMMOptions, run_imm
from repro.imm.bounds import BoundsConfig
from repro.kernels import (
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_VISITED_MODE,
    VisitedSet,
    words_for_bits,
)
from repro.memory.budget import ENV_MEMORY_BUDGET_MB
from repro.rrr import sample_rrr_ic, sample_rrr_lt

SAMPLERS = {"IC": sample_rrr_ic, "LT": sample_rrr_lt}
WEIGHTS = {"IC": assign_ic_weights, "LT": assign_lt_weights}


def _ring(n: int, p=None, neighbors: int = 4) -> DirectedGraph:
    """Directed ring lattice: in-edges from each vertex's ``neighbors``
    ring predecessors (cascades crawl the ring round after round), with
    every edge weighted ``p`` when given."""
    dst = np.repeat(np.arange(n), neighbors)
    src = (dst - np.tile(np.arange(1, neighbors + 1), n)) % n
    weights = None if p is None else np.full(dst.size, p)
    return DirectedGraph.from_edges(src, dst, n=n, weights=weights)


#: recipes by the insert round at which ``auto`` promotes each batch:
#: n <= 64 makes the plane one word per row, so the first merge pays for
#: it; a ring's sets grow round after round until the merges do; on a
#: sparse graph with n = 20,000 the sets stay too small to ever pay
PROMOTION_RECIPES = {
    "first": (lambda: powerlaw_configuration(60, 400, rng=3), lambda at: at == 1),
    "late": (lambda: _ring(2000), lambda at: at is not None and at >= 3),
    "never": (lambda: powerlaw_configuration(20_000, 30_000, rng=3),
              lambda at: at is None),
}


class _RecordingVisitedSet(VisitedSet):
    """A VisitedSet that notes the insert round it moved onto the plane."""

    log: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = 0
        self.promoted_at = None
        self.log.append(self)

    def insert(self, keys):
        self.rounds += 1
        new_keys = super().insert(keys)
        if self.promoted_at is None and self.on_plane:
            self.promoted_at = self.rounds
        return new_keys


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


@pytest.mark.parametrize("recipe", sorted(PROMOTION_RECIPES))
@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("eliminate", [False, True])
def test_auto_promotion_parity(recipe, model, eliminate, monkeypatch):
    """``auto`` equals ``sorted`` byte for byte whether its batches move
    to the plane in round 1, in a later round, or never."""
    make_graph, expect = PROMOTION_RECIPES[recipe]
    graph = WEIGHTS[model](make_graph())
    sampler = SAMPLERS[model]
    kwargs = dict(rng=4, eliminate_sources=eliminate, batch_size=128)
    ref = sampler(graph, 300, visited_mode="sorted", **kwargs)
    monkeypatch.setattr(_RecordingVisitedSet, "log", [])
    monkeypatch.setattr(sampler_ic_mod, "VisitedSet", _RecordingVisitedSet)
    monkeypatch.setattr(sampler_lt_mod, "VisitedSet", _RecordingVisitedSet)
    out = sampler(graph, 300, visited_mode="auto", **kwargs)
    _assert_identical(ref, out)
    batches = _RecordingVisitedSet.log
    assert len(batches) >= 3
    assert all(expect(vs.promoted_at) for vs in batches), [
        (vs.promoted_at, vs.rounds) for vs in batches
    ]


@pytest.mark.parametrize("recipe", sorted(PROMOTION_RECIPES))
@pytest.mark.parametrize("model", ["IC", "LT"])
def test_auto_promotion_seed_parity(recipe, model):
    """Whole IMM runs pick the same seeds from the same stream under
    ``auto`` as under ``sorted``, on every promotion recipe."""
    graph = WEIGHTS[model](PROMOTION_RECIPES[recipe][0]())
    ref, out = (
        run_imm(graph, 4, 0.5, rng=6, options=IMMOptions(
            model=model, bounds=BoundsConfig(theta_scale=0.2),
            eliminate_sources=True, batch_size=128, visited_mode=mode,
        ))
        for mode in ("sorted", "auto")
    )
    np.testing.assert_array_equal(out.seeds, ref.seeds)
    assert out.theta == ref.theta
    np.testing.assert_array_equal(out.collection.flat, ref.collection.flat)
    np.testing.assert_array_equal(out.trace.sizes, ref.trace.sizes)


def test_auto_path_on_paper_scale_ca_and_ring():
    """``auto`` keeps CA's shallow sets sorted even where the batch plane
    fits the budget, and moves the ring's deep cascades onto the plane."""
    ca = assign_ic_weights(load_dataset("CA", "paper", rng=1))
    assert 1024 * words_for_bits(ca.n) * 8 <= DEFAULT_PLANE_BUDGET_BYTES
    with obs.profiled() as handle:
        sample_rrr_ic(ca, 1024, rng=5, eliminate_sources=True, visited_mode="auto")
    assert "kernels.bitset.plane_bytes" not in handle.report().gauges

    ring = _ring(8000, p=0.6)  # benchmarks/smoke_kernels.py's recipe
    with obs.profiled() as handle:
        sample_rrr_ic(ring, 256, rng=3, batch_size=256, visited_mode="auto")
    assert handle.report().gauges.get("kernels.bitset.plane_bytes", 0) > 0


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
    """When auto promotes a batch, the accounted plane respects the budget."""
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
