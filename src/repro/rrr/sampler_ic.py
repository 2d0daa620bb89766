"""Reverse-reachable set sampling under the IC model (Alg. 2, host analogue).

An RRR set rooted at a uniformly random source ``s`` contains every vertex
reached by a probabilistic reverse BFS: from each dequeued vertex ``u``,
in-neighbor ``v`` is activated independently with probability ``p_vu``.

The implementation runs a *batch* of independent traversals in lockstep —
one NumPy round expands the frontiers of every unfinished set at once —
which is the host-side mirror of the paper's one-warp-per-block kernel.

Visited bookkeeping is one :class:`~repro.kernels.VisitedSet` per batch:
per-set keys ``sid * n + v``, held in a sorted array (sid-major /
vertex-ascending, so the flat store comes out in the paper's
sorted-per-set layout for free) or in a dense ``(batch x n)``-bit plane
(the host mirror of the device's visited bitmask ``M``).  ``visited_mode``
picks ``sorted``, ``bitset`` or ``auto``, which moves a batch onto the
plane once its sorted merges have cost what the plane would (the
promotion rule is documented on :class:`~repro.kernels.VisitedSet`).

Every draw happens on the *pre-dedup* frontier expansion, so the
generator is consumed in the same order under every mode and
collections and traces are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.kernels import VisitedSet
from repro.rrr.collection import RRRBuilder, RRRCollection
from repro.rrr.trace import SampleTrace, empty_trace, publish_counters
from repro.utils.errors import ValidationError
from repro.utils.rng import as_generator
from repro.utils.segments import segmented_arange

#: Refuse to keep attempting sets past this multiple of the request — the
#: source-elimination loop would otherwise spin forever on an edgeless graph.
MAX_ATTEMPT_FACTOR = 64


def _reverse_bfs_batch(
    graph: DirectedGraph,
    sources: np.ndarray,
    gen: np.random.Generator,
    visited_mode: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep reverse BFS for one batch of sources.

    Returns ``(visited_keys_sorted, sizes, rounds, edges_examined)`` where
    keys are ``sid * n + v`` and all per-set arrays have batch length.

    ``visited_mode`` switches only the dedup/membership bookkeeping; the
    frontier contents (and therefore every RNG draw) are identical under
    every mode, which is what keeps the modes bit-identical.
    """
    n = graph.n
    batch = sources.size
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    visited = VisitedSet(sources, n, visited_mode)
    frontier_sid, frontier_v = np.arange(batch, dtype=np.int64), sources
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)

    while frontier_sid.size:
        # sets with a live frontier advance one round: a bincount mask
        # instead of fancy-indexing through np.unique (no sort)
        rounds += np.bincount(frontier_sid, minlength=batch) > 0
        starts = indptr[frontier_v]
        lengths = indptr[frontier_v + 1] - starts
        edge_idx = segmented_arange(starts, lengths)
        if edge_idx.size == 0:
            break
        e_sid = np.repeat(frontier_sid, lengths)
        edges += np.bincount(e_sid, minlength=batch)
        e_v = indices[edge_idx].astype(np.int64)
        hit = gen.random(edge_idx.size) <= weights[edge_idx]
        c_keys = e_sid[hit] * n + e_v[hit]
        if c_keys.size == 0:
            break
        new_keys = visited.insert(np.unique(c_keys))  # dedup within the round
        if new_keys.size == 0:
            break
        frontier_sid, frontier_v = np.divmod(new_keys, n)

    return visited.keys(), visited.sizes(), rounds, edges


def _strip_sources(
    visited: np.ndarray, sources: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Remove each set's source key from the sorted visited array."""
    batch = sources.size
    source_keys = np.arange(batch, dtype=np.int64) * n + sources
    keep = np.ones(visited.size, dtype=bool)
    pos = np.searchsorted(visited, source_keys)
    keep[pos] = False  # sources are always present in their own set
    stripped = visited[keep]
    sizes = np.bincount(stripped // n, minlength=batch)
    return stripped, sizes


def _flatten_kept(
    visited: np.ndarray, kept_mask: np.ndarray, n: int
) -> np.ndarray:
    """Per-set vertex ids of the kept sets, as the int32 flat store."""
    if kept_mask.all():
        return (visited % n).astype(np.int32)
    # one divmod pass yields both the per-element set id (for the kept
    # filter) and the vertex id (for the store)
    set_of_elem, flat_v = np.divmod(visited, n)
    return flat_v[kept_mask[set_of_elem]].astype(np.int32)


def sample_rrr_ic(
    graph: DirectedGraph,
    num_sets: int,
    rng=None,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
    visited_mode: str | None = None,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` IC RRR sets (kept sets, post source elimination).

    With ``eliminate_sources`` (§3.4) the source vertex is stripped from
    every set and sets that become empty — exactly the former singletons —
    are discarded and do not count toward ``num_sets``; their traversal
    work still appears in the returned trace, which is what they cost the
    device.

    ``visited_mode`` is operational only (``auto``/``sorted``/``bitset``;
    default resolves via ``REPRO_VISITED_MODE``): every mode returns
    bit-identical collections and traces.
    """
    if graph.weights is None:
        raise ValidationError("sample_rrr_ic requires IC edge weights")
    if num_sets < 0:
        raise ValidationError("num_sets must be non-negative")
    gen = as_generator(rng)
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
                f"(attempted {attempts} for {num_sets}); the graph has too "
                "few edges for the requested sampling"
            )
        sources = gen.integers(0, graph.n, size=batch, dtype=np.int64)
        with obs.span("rrr.batch.ic"):
            visited, sizes, rounds, edges = _reverse_bfs_batch(
                graph, sources, gen, visited_mode
            )
        attempts += batch
        raw_singletons += int(np.sum(sizes == 1))
        obs.observe("rrr.batch_size", batch)
        if eliminate_sources:
            visited, sizes = _strip_sources(visited, sources, graph.n)
            kept_mask = sizes > 0
        else:
            kept_mask = np.ones(batch, dtype=bool)
        # drop discarded sets from the store but keep them in the trace
        flat = _flatten_kept(visited, kept_mask, graph.n)
        builder.append_batch(flat, sizes[kept_mask], sources[kept_mask])
        trace_chunks.append(
            SampleTrace(
                sizes=sizes,
                rounds=rounds,
                edges_examined=edges,
                kept_mask=kept_mask,
                raw_singletons=int(np.sum(sizes == 1) if not eliminate_sources else 0),
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
