"""Greedy maximum-coverage seed selection over an RRR collection (Alg. 3).

Each of ``k`` iterations picks the vertex with the highest remaining count
``C[v]``, marks every still-uncovered set containing it as covered, and
decrements the counts of all members of those sets — so ``C`` always holds
exact marginal coverage gains.

Two implementations with identical seeds and identical
:class:`SelectionStats`:

* :func:`select_seeds` — the inverted-index implementation (vertex ->
  element positions via :class:`~repro.imm.coverage.CoverageIndex`),
  argmax over the count array each iteration; the one path every
  caller runs.
* :func:`select_seeds_reference` — a literal transcription of Alg. 3:
  every uncovered set is scanned with a binary search per iteration.
  Quadratic-ish and used by the tests as the semantics oracle.

The stats drive the simulated-GPU scan cost models (thread- vs
warp-based, Fig. 3).

Callers that select repeatedly over a growing collection — IMM's
estimation phases, the warm-start store's k/ε sweeps, Fig. 3's prefix
sweep — pass ``index=`` a :class:`CoverageIndex` they keep extending, so
the vertex->position index is built once per *stream* instead of once
per *call*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.imm.coverage import CoverageIndex
from repro.rrr.collection import RRRCollection
from repro.utils.errors import ValidationError
from repro.utils.segments import segmented_arange


@dataclass
class SelectionStats:
    """Per-iteration work counters consumed by the device cost models."""

    sets_scanned: np.ndarray  # uncovered sets examined in each iteration
    sets_found: np.ndarray  # sets containing the selected vertex
    elements_decremented: np.ndarray  # count updates performed
    avg_set_size: float  # mean stored set size (binary-search depth input)

    def total_scans(self) -> int:
        return int(self.sets_scanned.sum())


@dataclass
class SelectionResult:
    """Outcome of greedy seed selection."""

    seeds: np.ndarray  # selected vertex ids, in selection order
    covered_sets: int  # sets covered by the full seed set
    num_sets: int  # total sets in the collection
    marginal_gains: np.ndarray  # newly covered sets per iteration
    stats: SelectionStats

    @property
    def coverage_fraction(self) -> float:
        """F_R(S): fraction of RRR sets covered by the seeds."""
        return self.covered_sets / self.num_sets if self.num_sets else 0.0


def select_seeds(
    collection: RRRCollection,
    k: int,
    index: CoverageIndex | None = None,
) -> SelectionResult:
    """Greedy max-coverage selection of ``k`` seeds (ties -> lowest id).

    The returned seeds are guaranteed **distinct**: once a vertex is
    selected its gain is retired, so even after every set is covered
    (all remaining marginal gains zero) later iterations pick the
    lowest-id *unselected* vertex rather than re-returning vertex 0.

    ``index`` — an optional :class:`CoverageIndex` whose stream prefix
    matches ``collection.flat`` (it may cover *more* elements, e.g. the
    store's full cached sample behind a prefix view); when omitted a
    throwaway one is built.  Each pick's newly covered sets come from
    walking the vertex's postings in that index.
    """
    _check_k(collection, k)
    if index is not None:
        if index.n != collection.n:
            raise ValidationError(
                f"index n={index.n} does not match collection n={collection.n}"
            )
        if index.num_elements < collection.total_elements:
            raise ValidationError(
                f"index covers {index.num_elements} elements, collection has "
                f"{collection.total_elements}; extend the index first"
            )
    result = _greedy_indexed(collection, k, index)
    if obs.enabled():
        obs.counter_add("selection.iterations", k)
        obs.counter_add("selection.sets_scanned", int(result.stats.sets_scanned.sum()))
        obs.counter_add(
            "selection.decrements", int(result.stats.elements_decremented.sum())
        )
        obs.counter_add("selection.covered_sets", int(result.covered_sets))
    return result


def _check_k(collection: RRRCollection, k: int) -> None:
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > collection.n:
        raise ValidationError(f"k={k} exceeds the number of vertices {collection.n}")


def _greedy_indexed(
    collection: RRRCollection,
    k: int,
    index: CoverageIndex | None,
) -> SelectionResult:
    flat = collection.flat
    offsets = collection.offsets
    num_sets = collection.num_sets
    n = collection.n
    counts = collection.counts.copy()
    sizes = np.diff(offsets)

    if index is None:
        index = CoverageIndex.build(collection)
    else:
        obs.counter_add("selection.index.served_elements", collection.total_elements)
    # the index may extend beyond this collection (prefix view of a
    # warm-start store); clip postings to the elements actually present
    limit = (
        collection.total_elements
        if index.num_elements > collection.total_elements
        else None
    )
    covered = np.zeros(num_sets, dtype=bool)
    seeds = np.empty(k, dtype=np.int64)
    gains = np.empty(k, dtype=np.int64)
    scanned = np.empty(k, dtype=np.int64)
    found = np.empty(k, dtype=np.int64)
    decremented = np.empty(k, dtype=np.int64)
    covered_total = 0

    for it in range(k):
        v = int(np.argmax(counts))
        seeds[it] = v
        scanned[it] = num_sets - covered_total  # Alg. 3 scans uncovered sets
        positions = index.postings(v, limit)
        set_ids = np.searchsorted(offsets, positions, side="right") - 1
        new_sets = set_ids[~covered[set_ids]]
        covered[new_sets] = True
        if obs.enabled():
            obs.counter_add("selection.scan.posting_reads", int(positions.size))
        gains[it] = new_sets.size
        found[it] = new_sets.size
        covered_total += new_sets.size
        if new_sets.size:
            elem_idx = segmented_arange(offsets[new_sets], sizes[new_sets])
            # one bincount batches every decrement of this iteration —
            # no unbuffered scatter (np.subtract.at) over the flat array
            counts -= np.bincount(flat[elem_idx], minlength=n)
            decremented[it] = elem_idx.size
        else:
            decremented[it] = 0
        counts[v] = -1  # mask: selected vertices must never win again

    stats = SelectionStats(
        sets_scanned=scanned,
        sets_found=found,
        elements_decremented=decremented,
        avg_set_size=float(sizes.mean()) if num_sets else 0.0,
    )
    return SelectionResult(
        seeds=seeds,
        covered_sets=covered_total,
        num_sets=num_sets,
        marginal_gains=gains,
        stats=stats,
    )


def select_seeds_reference(collection: RRRCollection, k: int) -> SelectionResult:
    """Literal Alg. 3: binary-search every uncovered set per iteration.

    The semantics oracle for :func:`select_seeds`: identical seeds,
    gains and :class:`SelectionStats`, at quadratic-ish cost.
    """
    _check_k(collection, k)
    flat = collection.flat
    offsets = collection.offsets
    num_sets = collection.num_sets
    counts = collection.counts.copy()
    sizes = np.diff(offsets)

    covered = np.zeros(num_sets, dtype=bool)  # the paper's F array
    seeds = np.empty(k, dtype=np.int64)
    gains = np.empty(k, dtype=np.int64)
    scanned = np.empty(k, dtype=np.int64)
    found = np.empty(k, dtype=np.int64)
    decremented = np.empty(k, dtype=np.int64)
    covered_total = 0

    for it in range(k):
        v = int(np.argmax(counts))
        seeds[it] = v
        n_found = 0
        n_dec = 0
        scanned[it] = num_sets - covered_total
        for i in range(num_sets):
            if covered[i]:
                continue
            start, end = offsets[i], offsets[i + 1]
            segment = flat[start:end]
            j = np.searchsorted(segment, v)
            if j < segment.size and segment[j] == v:
                covered[i] = True
                n_found += 1
                np.subtract.at(counts, segment, 1)
                n_dec += segment.size
        gains[it] = n_found
        found[it] = n_found
        decremented[it] = n_dec
        covered_total += n_found
        counts[v] = -1  # mask: selected vertices must never win argmax again

    stats = SelectionStats(
        sets_scanned=scanned,
        sets_found=found,
        elements_decremented=decremented,
        avg_set_size=float(sizes.mean()) if num_sets else 0.0,
    )
    return SelectionResult(
        seeds=seeds,
        covered_sets=covered_total,
        num_sets=num_sets,
        marginal_gains=gains,
        stats=stats,
    )
