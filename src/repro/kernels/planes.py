"""Dense bit planes built on the word-parallel kernels.

Two packed planes serve the two hot paths, and one visited-set object
decides when the sampler side uses its plane:

* :class:`VisitedPlane` — the sampler-side ``(batch x n)``-bit visited
  plane, one row per in-flight RRR traversal.  Membership and dedup are
  one word gather / one OR-scatter per candidate, replacing the sorted
  key array's per-round ``unique`` + ``searchsorted`` + merge; at batch
  end the rows decode back to the exact sid-major / vertex-ascending
  key stream the sorted path maintains incrementally.
* :class:`VisitedSet` — one sampler batch's visited keys: a sorted key
  array that moves onto a :class:`VisitedPlane` once its merges have
  cost what the plane would (the promotion rule is stated on the class).
* :class:`MembershipPlane` — the selection-side ``(n x theta)``-bit
  vertex->set membership plane.  A vertex's marginal coverage is
  ``popcount(row AND NOT covered)`` over packed words — the host mirror
  of §3.5's thread-based scan — and rows extend append-only as the RRR
  stream grows, so one plane serves every prefix of a sweep.

Both planes account their footprint and word traffic to
:mod:`repro.obs` (``kernels.bitset.*`` / ``kernels.membership.*``).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.kernels.bitset import (
    WORD_BITS,
    _ONE,
    decode_bits,
    scatter_or,
    split_index,
    words_for_bits,
)
from repro.kernels.modes import _plane_fits, resolve_visited_mode
from repro.memory.budget import governor
from repro.utils.errors import ValidationError

#: cap on the transient ``unpackbits`` expansion during plane
#: extraction: rows decode in tiles of at most this many plane words
#: (64 flag bytes per word), keeping the scratch under ~16 MiB
EXTRACT_TILE_WORDS = 1 << 18

#: the governor account dense planes report under
ACCOUNT = "kernels.planes"


class _PlaneCharge:
    """Governor accounting for one plane's resident bytes.

    Planes have no ``close()`` — a visited plane lives for one sampler
    batch, a membership plane for a store's lifetime — so the credit is
    tied to garbage collection via ``weakref.finalize`` on the owner.
    The governor instance is captured at creation: after a test's
    ``reset_governor`` the release still balances the ledger it charged.
    """

    __slots__ = ("_gov", "_nbytes")

    def __init__(self):
        self._gov = governor()
        self._nbytes = 0

    def resize(self, nbytes: int) -> None:
        delta = int(nbytes) - self._nbytes
        if delta > 0:
            self._gov.request(delta)
        self._nbytes = int(nbytes)
        self._gov.account(ACCOUNT, "resident", delta)

    def release(self) -> None:
        if self._nbytes:
            self._gov.account(ACCOUNT, "resident", -self._nbytes)
            self._nbytes = 0


class VisitedPlane:
    """A ``(batch x n)``-bit dense visited plane for lockstep traversals.

    Row ``sid`` holds the visited bitmap of traversal ``sid``; ids are
    vertex numbers.  All mutating entry points take parallel ``(sid,
    vertex)`` arrays.
    """

    __slots__ = (
        "batch", "n", "words_per_row", "_plane", "_flat", "_charge",
        "__weakref__",
    )

    def __init__(self, batch: int, n: int):
        if batch < 0 or n < 1:
            raise ValidationError("VisitedPlane needs batch >= 0 and n >= 1")
        self.batch = int(batch)
        self.n = int(n)
        self.words_per_row = words_for_bits(n)
        self._plane = np.zeros((self.batch, self.words_per_row), dtype=np.uint64)
        self._flat = self._plane.reshape(-1)
        self._charge = _PlaneCharge()
        self._charge.resize(self._plane.nbytes)
        weakref.finalize(self, self._charge.release)
        obs.gauge_max("kernels.bitset.plane_bytes", int(self._plane.nbytes))

    @property
    def nbytes(self) -> int:
        return int(self._plane.nbytes)

    def _word_index(self, sid: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        word, mask = split_index(vertices)
        return sid * self.words_per_row + word, mask

    def test(self, sid: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """Membership gather: ``True`` where ``(sid, vertex)`` is visited."""
        if sid.size == 0:
            return np.zeros(0, dtype=bool)
        idx, _ = self._word_index(sid, vertices)
        shift = np.asarray(vertices).astype(np.uint64) & np.uint64(WORD_BITS - 1)
        obs.counter_add("kernels.bitset.words_touched", idx.size)
        return ((self._flat[idx] >> shift) & _ONE).astype(bool)

    def set_sorted_keys(self, sid: np.ndarray, vertices: np.ndarray) -> None:
        """Set bits for key-ascending ``(sid, vertex)`` pairs (duplicate
        *words* allowed — nearby vertices of one row — handled by the
        reduceat OR-scatter)."""
        if sid.size == 0:
            return
        idx, mask = self._word_index(sid, vertices)
        scatter_or(self._flat, idx, mask)
        obs.counter_add("kernels.bitset.words_touched", idx.size)

    def extract_keys(self) -> np.ndarray:
        """The visited stream as ascending ``sid * n + v`` keys.

        Rows decode in word tiles (bounding the transient bit-unpack
        scratch); row-major word order makes the concatenated result
        exactly the sorted key array the merge-based path maintains.
        """
        rows_per_tile = max(1, EXTRACT_TILE_WORDS // max(self.words_per_row, 1))
        pieces: list[np.ndarray] = []
        row_bits = self.words_per_row * WORD_BITS
        tiles = 0
        for base in range(0, self.batch, rows_per_tile):
            tile = self._flat[
                base * self.words_per_row : (base + rows_per_tile) * self.words_per_row
            ]
            positions = decode_bits(tile)
            tiles += 1
            if positions.size == 0:
                continue
            tile_sid, v = np.divmod(positions, row_bits)
            pieces.append((base + tile_sid) * self.n + v)
        obs.counter_add("kernels.bitset.tiles", tiles)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)


class VisitedSet:
    """The visited keys ``sid * n + v`` of one batch of lockstep traversals.

    Both samplers keep their per-batch bookkeeping here: :meth:`insert`
    takes one round's candidate keys and returns the ones not yet
    visited, :meth:`keys` returns the sid-major / vertex-ascending key
    stream and :meth:`sizes` the per-traversal counts.  Two structures
    hold the keys:

    * a sorted ``int64`` array, extended by a linear gap-stream merge
      (each round copies every visited key once more), and
    * a :class:`VisitedPlane`, whose per-round cost is one word gather
      and one OR-scatter per candidate but which costs
      ``batch x words_per_row`` words to clear and decode.

    **Promotion rule** (``mode="auto"``): the batch starts sorted and
    sums the elements its merges copy.  Once that sum reaches
    ``batch x words_per_row`` — what the plane would cost — the keys
    move onto a plane (when :func:`_plane_fits` admits it; otherwise the
    batch stays sorted and counts ``kernels.bitset.fallbacks``).  Shallow
    cascades (a few dozen vertices per set on a large graph) never reach
    it; deep ones cross it within a few rounds.  ``"sorted"`` never
    promotes; ``"bitset"`` builds the plane up front regardless of the
    budget.  Both structures hold the same key set, so the returned keys
    — and every RNG draw the caller makes from them — never depend on
    the mode.
    """

    __slots__ = ("batch", "n", "_keys", "_plane", "_copied", "_promote_at")

    def __init__(self, sources: np.ndarray, n: int, mode: str | None = None):
        mode = resolve_visited_mode(mode)
        self.batch = int(sources.size)
        self.n = int(n)
        # sid-major keys of each traversal's source: ascending by
        # construction, since sources lie in [0, n)
        self._keys = np.arange(self.batch, dtype=np.int64) * self.n + sources
        self._plane = None
        self._copied = 0
        # auto's threshold: the plane's size in words
        self._promote_at = (
            self.batch * words_for_bits(self.n) if mode == "auto" else None
        )
        if mode == "bitset":
            self._to_plane()

    @property
    def on_plane(self) -> bool:
        return self._plane is not None

    def _to_plane(self) -> None:
        self._plane = VisitedPlane(self.batch, self.n)
        self._plane.set_sorted_keys(*np.divmod(self._keys, self.n))
        self._keys = None
        self._promote_at = None

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Add ascending, unique ``keys``; return those not yet visited."""
        if self._plane is not None:
            sid, v = np.divmod(keys, self.n)
            fresh = ~self._plane.test(sid, v)
            # ascending keys -> non-decreasing word indices for the scatter
            self._plane.set_sorted_keys(sid[fresh], v[fresh])
            return keys[fresh]
        visited = self._keys
        pos = np.searchsorted(visited, keys)
        probe = np.minimum(pos, visited.size - 1)
        is_new = visited[probe] != keys
        new_keys = keys[is_new]
        if new_keys.size == 0:
            return new_keys
        # visited and new_keys are sorted and disjoint: scatter each new
        # key at its insertion offset and stream the old array into the
        # gaps — O(|visited| + |new|) instead of concatenate-and-sort
        target = pos[is_new] + np.arange(new_keys.size, dtype=np.int64)
        merged = np.empty(visited.size + new_keys.size, dtype=np.int64)
        merged[target] = new_keys
        keep = np.ones(merged.size, dtype=bool)
        keep[target] = False
        merged[keep] = visited
        self._keys = merged
        if self._promote_at is not None:
            self._copied += merged.size
            if self._copied >= self._promote_at:
                if _plane_fits(self._promote_at * 8):  # words -> bytes
                    self._to_plane()
                else:
                    self._promote_at = None  # sorted for the rest of the batch
                    obs.counter_add("kernels.bitset.fallbacks", 1)
        return new_keys

    def keys(self) -> np.ndarray:
        """Every visited key, ascending (sid-major, vertex-ascending).

        Ends the batch's use of a plane: the keys are decoded once and
        the plane is released."""
        if self._plane is not None:
            self._keys = self._plane.extract_keys()
            self._plane = None
        return self._keys

    def sizes(self) -> np.ndarray:
        """Visited-vertex count per traversal (counted from the keys: a
        plane's popcount would cost a byte lookup per plane byte)."""
        return np.bincount(self.keys() // self.n, minlength=self.batch)


class MembershipPlane:
    """Append-only packed ``(n x num_sets)``-bit vertex->set membership.

    Row ``v`` is the bitmap of RRR set ids containing vertex ``v``.
    Word capacity grows geometrically (columns double), so extending by
    one chunk of the stream is amortized O(new elements); rows are
    stable views once capacity suffices, which is what lets one plane
    serve every theta prefix of a warm-start sweep.
    """

    __slots__ = (
        "n", "num_sets", "num_elements", "_words_cap", "_plane", "_charge",
        "__weakref__",
    )

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("MembershipPlane needs at least one vertex")
        self.n = int(n)
        self.num_sets = 0
        self.num_elements = 0
        self._words_cap = 1
        self._plane = np.zeros((self.n, 1), dtype=np.uint64)
        self._charge = _PlaneCharge()
        self._charge.resize(self._plane.nbytes)
        weakref.finalize(self, self._charge.release)

    @property
    def nbytes(self) -> int:
        return int(self._plane.nbytes)

    def _grow_to(self, num_sets: int) -> None:
        need = words_for_bits(num_sets)
        if need <= self._words_cap:
            return
        cap = self._words_cap
        while cap < need:
            cap *= 2
        wider = np.zeros((self.n, cap), dtype=np.uint64)
        wider[:, : self._words_cap] = self._plane
        self._plane = wider
        self._words_cap = cap
        self._charge.resize(self._plane.nbytes)
        obs.gauge_max("kernels.membership.plane_bytes", int(self._plane.nbytes))

    def extend(
        self, seg_flat: np.ndarray, seg_set_ids: np.ndarray, num_sets_after: int
    ) -> None:
        """Scatter the next stream segment's ``(vertex, set)`` bits.

        ``seg_flat``/``seg_set_ids`` are parallel arrays for global
        element positions ``num_elements ..``; set ids must be
        non-decreasing (stream order), which makes the vertex-major
        stable sort below produce a word-sorted scatter.
        """
        seg_flat = np.asarray(seg_flat)
        if seg_flat.size != np.asarray(seg_set_ids).size:
            raise ValidationError("segment arrays must be parallel")
        if num_sets_after < self.num_sets:
            raise ValidationError("membership plane is append-only")
        self._grow_to(num_sets_after)
        if seg_flat.size:
            # stable vertex sort: within a vertex, set ids stay ascending,
            # so word indices are globally non-decreasing for scatter_or
            order = np.argsort(seg_flat, kind="stable")
            v = seg_flat[order].astype(np.int64)
            sets = np.asarray(seg_set_ids)[order].astype(np.int64)
            word, mask = split_index(sets)
            scatter_or(self._plane.reshape(-1), v * self._words_cap + word, mask)
            obs.counter_add("kernels.bitset.words_touched", v.size)
        self.num_sets = max(self.num_sets, int(num_sets_after))
        self.num_elements += int(seg_flat.size)

    def row(self, v: int, nwords: int) -> np.ndarray:
        """The first ``nwords`` membership words of vertex ``v`` (a view)."""
        return self._plane[v, :nwords]
