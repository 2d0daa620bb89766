"""Reverse-reachable set sampling under the LT model (§3.3, host analogue).

Under LT the reverse process is a *walk*, not a BFS: a dequeued vertex
``u`` draws a threshold ``tau_u ~ U(0,1)`` and activates at most one
in-neighbor — the first whose inclusive prefix-sum of edge weights crosses
``tau_u`` (exactly what the device computes with a ``__shfl_up_sync`` warp
scan).  With probability ``1 - sum_w(u)`` no neighbor crosses and the walk
stops; it also stops on revisiting a vertex already in the set.

Vectorization: all walks advance one step per round.  Neighbor selection
for every walk is a *single* ``np.searchsorted`` over a globally sorted
array ``g[e] = target(e) + cum_w(e) / W(target(e))`` — each vertex's
segment occupies ``(v, v+1]``, so querying ``u + tau/W(u)`` lands on the
first crossing edge of ``u``'s own segment.  That array depends only on
the graph, so it is memoized per content fingerprint (store top-ups and
k/eps sweeps build it once).

Visited bookkeeping is the IC sampler's: one
:class:`~repro.kernels.VisitedSet` per batch (per-round keys are already
sorted and unique, since walk ids strictly increase), with the same
``visited_mode`` choices and promotion rule.  Every mode draws
thresholds in the same order, so all are bit-identical.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.kernels import VisitedSet
from repro.rrr.collection import RRRBuilder, RRRCollection
from repro.rrr.sampler_ic import MAX_ATTEMPT_FACTOR, _flatten_kept, _strip_sources
from repro.rrr.trace import SampleTrace, empty_trace, publish_counters
from repro.utils.errors import ValidationError
from repro.utils.rng import as_generator

#: memoized selection indices, keyed by graph content fingerprint; small
#: and bounded — an index is one float64 per edge
_INDEX_CACHE_LIMIT = 8
_INDEX_CACHE: dict[str, np.ndarray] = {}
_INDEX_CACHE_LOCK = threading.Lock()


def _build_selection_index(graph: DirectedGraph) -> np.ndarray:
    """The globally sorted query array ``g`` described in the module docs.

    Segments of vertices with zero total in-weight are filled with a
    uniform ascending ramp so global sortedness holds; such vertices are
    never queried because their walks stop first (tau > 0 > W).
    """
    deg = graph.in_degrees()
    cumw = graph.in_weight_cumsum()
    totals = graph.total_in_weight()
    target = np.repeat(np.arange(graph.n, dtype=np.float64), deg)
    seg_total = np.repeat(totals, deg)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(seg_total > 0.0, cumw / seg_total, 0.0)
    zero_seg = seg_total == 0.0
    if np.any(zero_seg):
        # uniform in-segment ramp keeps (v, v+1] ordering for never-queried segments
        within_rank = np.arange(graph.m, dtype=np.float64) - np.repeat(
            graph.indptr[:-1].astype(np.float64), deg
        )
        seg_deg = np.repeat(deg.astype(np.float64), deg)
        norm[zero_seg] = (within_rank[zero_seg] + 1.0) / seg_deg[zero_seg]
    return target + norm


def _selection_index(graph: DirectedGraph) -> np.ndarray:
    """Fetch (or build and cache) the graph's selection index."""
    key = graph.fingerprint()
    with _INDEX_CACHE_LOCK:
        cached = _INDEX_CACHE.get(key)
    if cached is not None:
        obs.counter_add("rrr.lt_index.reused", 1)
        return cached
    index = _build_selection_index(graph)
    with _INDEX_CACHE_LOCK:
        if key not in _INDEX_CACHE:
            if len(_INDEX_CACHE) >= _INDEX_CACHE_LIMIT:
                # drop the oldest entry; sweeps touch one or two graphs
                _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
            _INDEX_CACHE[key] = index
        obs.counter_add("rrr.lt_index.built", 1)
    return index


def clear_selection_indices() -> None:
    """Drop every memoized LT selection index (test/teardown hook)."""
    with _INDEX_CACHE_LOCK:
        _INDEX_CACHE.clear()


def _walk_batch(
    graph: DirectedGraph,
    sources: np.ndarray,
    gen: np.random.Generator,
    selection_index: np.ndarray,
    visited_mode: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep LT reverse walks for one batch of sources.

    Returns ``(visited_keys_sorted, sizes, rounds, edges_examined)``.
    Threshold draws depend only on the set of live walks, which every
    ``visited_mode`` filters identically.
    """
    n = graph.n
    batch = sources.size
    indptr = graph.indptr
    indices = graph.indices
    deg = graph.in_degrees()
    totals = graph.total_in_weight()

    visited = VisitedSet(sources, n, visited_mode)
    walk_sid, walk_v = np.arange(batch, dtype=np.int64), sources.copy()
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)
    max_steps = n + 1  # a walk revisits within n distinct vertices

    for _ in range(max_steps):
        if walk_sid.size == 0:
            break
        rounds[walk_sid] += 1
        edges[walk_sid] += deg[walk_v]
        tau = gen.random(walk_sid.size)
        alive = (deg[walk_v] > 0) & (tau <= totals[walk_v])
        if not alive.any():
            break
        walk_sid, walk_v, tau = walk_sid[alive], walk_v[alive], tau[alive]
        # first in-neighbor whose inclusive prefix sum crosses tau
        query = walk_v + tau / totals[walk_v]
        pos = np.searchsorted(selection_index, query, side="left")
        pos = np.minimum(pos, indptr[walk_v + 1] - 1)  # numeric guard at tau ~ W
        chosen = indices[pos].astype(np.int64)
        # walks whose chosen vertex was already visited terminate here
        walk_sid, walk_v = np.divmod(visited.insert(walk_sid * n + chosen), n)

    return visited.keys(), visited.sizes(), rounds, edges


def sample_rrr_lt(
    graph: DirectedGraph,
    num_sets: int,
    rng=None,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
    visited_mode: str | None = None,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` LT RRR sets; mirrors :func:`sample_rrr_ic`'s API."""
    if graph.weights is None:
        raise ValidationError("sample_rrr_lt requires LT edge weights")
    if num_sets < 0:
        raise ValidationError("num_sets must be non-negative")
    gen = as_generator(rng)
    selection_index = _selection_index(graph)
    builder = RRRBuilder(graph.n)
    trace_chunks: list[SampleTrace] = []
    attempts = 0
    raw_singletons = 0

    while builder.num_sets < num_sets:
        remaining = num_sets - builder.num_sets
        batch = int(min(batch_size, max(remaining, 256)))
        if attempts > MAX_ATTEMPT_FACTOR * max(num_sets, 1) + 1024:
            raise ValidationError(
                "source elimination discarded nearly every set "
                f"(attempted {attempts} for {num_sets})"
            )
        sources = gen.integers(0, graph.n, size=batch, dtype=np.int64)
        with obs.span("rrr.batch.lt"):
            visited, sizes, rounds, edges = _walk_batch(
                graph, sources, gen, selection_index, visited_mode
            )
        attempts += batch
        raw_singletons += int(np.sum(sizes == 1))
        obs.observe("rrr.batch_size", batch)
        if eliminate_sources:
            visited, sizes = _strip_sources(visited, sources, graph.n)
            kept_mask = sizes > 0
        else:
            kept_mask = np.ones(batch, dtype=bool)
        flat = _flatten_kept(visited, kept_mask, graph.n)
        builder.append_batch(flat, sizes[kept_mask], sources[kept_mask])
        trace_chunks.append(
            SampleTrace(
                sizes=sizes,
                rounds=rounds,
                edges_examined=edges,
                kept_mask=kept_mask,
                raw_singletons=0,
                sources=sources,
            )
        )

    builder.truncate_to(num_sets)
    collection = builder.finalize()
    trace = empty_trace()
    for chunk in trace_chunks:
        trace = trace.merged_with(chunk)
    trace.raw_singletons = raw_singletons
    publish_counters(trace, collection.num_sets)
    return collection, trace
