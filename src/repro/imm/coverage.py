"""Incremental vertex->position inverted index for seed selection (§3.5).

Greedy max-coverage selection needs, for every candidate vertex, the
positions of its occurrences in the flat RRR store ``R`` — the paper's
thread-based scan answers that with per-set binary searches; the host
implementation answers it with an inverted index.  Historically that
index was rebuilt from scratch (a full argsort of ``R``) inside *every*
``select_seeds`` call, although IMM's estimation loop and the k/ε sweep
drivers only ever *append* sets to the collection between calls.

:class:`CoverageIndex` makes the index a first-class, extendable
structure:

* each :meth:`extend` counting-sorts only the **new** flat segment
  (bincount/cumsum for the CSR row starts, a stable integer argsort —
  NumPy's radix path — for the grouping) and appends it as a CSR block;
  the already-indexed prefix is never touched again;
* :meth:`postings` concatenates a vertex's per-block slices, optionally
  truncated to an element-count ``limit`` so one index serves every
  prefix view of a growing collection (the warm-start store's
  ``ensure`` pattern);
* blocks are transparently merged once :attr:`max_blocks` accumulate —
  an O(total) per-vertex scatter merge, again with no re-sort.

Positions within a vertex's postings are ascending (blocks arrive in
element order; counting sort is stable), which is exactly the order the
previous argsort-based build produced — selection results are
bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.errors import ValidationError
from repro.utils.segments import segmented_arange

#: block-list length that triggers a compacting merge; lookups cost
#: O(blocks) per vertex, so this bounds per-iteration overhead while
#: keeping every extend O(new elements)
_DEFAULT_MAX_BLOCKS = 32


class CoverageIndex:
    """Extendable CSR inverted index over a growing flat RRR array.

    The index maps each vertex id to the ascending global positions of
    its occurrences among the first :attr:`num_elements` elements of the
    flat stream it was fed.  It is append-only: feeding it the same
    stream in different extend granularities yields identical postings.
    """

    __slots__ = (
        "n",
        "num_elements",
        "max_blocks",
        "_starts",
        "_postings",
        "_bounds",
    )

    def __init__(self, n: int, max_blocks: int = _DEFAULT_MAX_BLOCKS):
        if n < 1:
            raise ValidationError("CoverageIndex needs at least one vertex")
        if max_blocks < 1:
            raise ValidationError("max_blocks must be >= 1")
        self.n = int(n)
        self.max_blocks = int(max_blocks)
        self.num_elements = 0
        self._starts: list[np.ndarray] = []  # per block: (n+1,) CSR row starts
        self._postings: list[np.ndarray] = []  # per block: global positions
        self._bounds: list[tuple[int, int]] = []  # per block: [lo, hi) element range

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, collection) -> "CoverageIndex":
        """A fresh index over every element of ``collection``."""
        index = cls(collection.n)
        index.extend_to(collection)
        return index

    def extend(self, flat_segment: np.ndarray) -> None:
        """Append postings for the next stream segment (never re-sorts).

        ``flat_segment`` holds the elements at global positions
        ``num_elements .. num_elements + len(segment)``; row starts come
        from a bincount/cumsum counting pass, grouping from a stable
        integer sort of the segment alone.
        """
        seg = np.asarray(flat_segment)
        if seg.size == 0:
            return
        if seg.min() < 0 or seg.max() >= self.n:
            raise ValidationError("segment elements out of vertex range")
        base = self.num_elements
        counts = np.bincount(seg, minlength=self.n)
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        # stable sort on int keys is a radix pass: positions grouped by
        # vertex, ascending within each vertex
        order = np.argsort(seg, kind="stable").astype(np.int64, copy=False)
        self._starts.append(starts)
        self._postings.append(base + order)
        self._bounds.append((base, base + seg.size))
        self.num_elements = base + seg.size
        obs.counter_add("selection.index.built_elements", int(seg.size))
        if len(self._starts) > self.max_blocks:
            self._compact()

    def extend_to(self, collection) -> None:
        """Index ``collection``'s elements beyond the current coverage.

        The collection's flat array must be prefix-consistent with the
        stream this index has seen so far — exactly what IMM's phase
        top-ups, ``RRRCollection.concat`` growth, and the warm-start
        store's chunk appends guarantee.  A collection *shorter* than
        the indexed stream (a sweep cell revisiting a smaller theta) is
        a no-op: selection clips postings to the prefix instead.
        """
        if collection.n != self.n:
            raise ValidationError(
                f"index over n={self.n} cannot take a collection with n={collection.n}"
            )
        total = collection.total_elements
        obs.counter_add(
            "selection.index.reused_elements", min(total, self.num_elements)
        )
        if total > self.num_elements:
            self.extend(collection.flat[self.num_elements :])

    # -- queries -------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self._starts)

    def postings(self, v: int, limit: int | None = None) -> np.ndarray:
        """Ascending global positions of vertex ``v``.

        ``limit`` restricts the result to positions ``< limit`` — the
        prefix-view hook: an index grown over the full cached stream
        serves selection on any ``collection.prefix(theta)`` by passing
        ``limit=prefix.total_elements``.
        """
        pieces: list[np.ndarray] = []
        for (lo, hi), starts, postings in zip(
            self._bounds, self._starts, self._postings
        ):
            if limit is not None and lo >= limit:
                break
            piece = postings[starts[v] : starts[v + 1]]
            if limit is not None and hi > limit:
                piece = piece[: np.searchsorted(piece, limit, side="left")]
            pieces.append(piece)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def counts(self, limit: int | None = None) -> np.ndarray:
        """Per-vertex occurrence counts over the (limited) indexed stream."""
        out = np.zeros(self.n, dtype=np.int64)
        for (lo, hi), starts, postings in zip(
            self._bounds, self._starts, self._postings
        ):
            if limit is not None and lo >= limit:
                break
            if limit is None or hi <= limit:
                out += np.diff(starts)
            else:
                # partial block: keep only postings < limit, per vertex
                kept = _segment_vertices(starts, postings < limit)
                out += np.bincount(kept, minlength=self.n)
        return out

    # -- maintenance ---------------------------------------------------------
    def _compact(self) -> None:
        """Merge every block into one — an O(total) scatter, no re-sort.

        For each vertex the merged postings are the per-block slices
        concatenated in block order; because block element ranges are
        disjoint and increasing, the result stays ascending.
        """
        merged_counts = np.zeros(self.n, dtype=np.int64)
        for starts in self._starts:
            merged_counts += np.diff(starts)
        merged_starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(merged_counts, out=merged_starts[1:])
        merged = np.empty(self.num_elements, dtype=np.int64)
        write = merged_starts[:-1].copy()
        for starts, postings in zip(self._starts, self._postings):
            block_counts = np.diff(starts)
            dest = segmented_arange(write, block_counts)
            merged[dest] = postings
            write += block_counts
        self._starts = [merged_starts]
        self._postings = [merged]
        self._bounds = [(0, self.num_elements)]
        obs.counter_add("selection.index.compactions", 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoverageIndex(n={self.n}, elements={self.num_elements}, "
            f"blocks={self.num_blocks})"
        )


def _segment_vertices(starts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Vertex id of each kept posting in a block (for partial counts)."""
    verts = np.repeat(np.arange(starts.size - 1, dtype=np.int64), np.diff(starts))
    return verts[keep]
