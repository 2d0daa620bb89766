"""Word-parallel uint64 bitset primitives — the host kernel substrate.

The device keeps its per-set hot loops register/word-parallel: the
visited bitmask ``M`` probed during BFS expansion (§3.2) and the
thread-based selection scan over the covered flags (§3.5) both touch
machine words, not elements.  The host analogue of that discipline is a
small family of NumPy kernels over packed ``uint64`` planes:

* :func:`pack_bits` — scatter a sorted id stream into a packed bitmap
  (the vectorized replacement of the per-vertex ``|=`` loop);
* :func:`scatter_or` — duplicate-safe OR-scatter of word masks via a
  run-boundary ``bitwise_or.reduceat`` (no unbuffered ``ufunc.at``);
* :func:`test_bits` — vectorized membership gather, one word read and
  one shift per query;
* :func:`popcount_words` / :func:`popcount_rows` — population count
  through a 256-entry uint8 lookup-table view (no Python-level bit
  twiddling, no 64x ``unpackbits`` blow-up);
* :func:`decode_bits` — ascending bit positions of a word array,
  expanding only the nonzero words;
* :func:`andnot_words` — the ``new = mine AND NOT covered`` inner step
  of the word-parallel coverage scan.

Everything operates on little-endian bit order within each word
(``bit i of word w`` is id ``64*w + i``), matching the layout
:mod:`repro.encoding.bitmap` has always used, so packed planes and the
hybrid bitmap codec interoperate byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError

#: bits per plane word; every kernel in this module assumes uint64
WORD_BITS = 64

#: uint8 -> set-bit count; a LUT *view* of the word array (words viewed
#: as bytes, gathered through this table) popcounts without unpacking
#: one byte per bit
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_ONE = np.uint64(1)
_BIT_MASK = np.uint64(WORD_BITS - 1)


def words_for_bits(nbits: int) -> int:
    """Words needed to hold ``nbits`` bits (the ``n % 64 != 0`` tail
    rounds up to a partially used final word)."""
    if nbits < 0:
        raise ValidationError("bit count must be non-negative")
    return -(-int(nbits) // WORD_BITS)


def tail_mask(nbits: int) -> np.uint64:
    """Mask of the valid bits in the final word of an ``nbits`` plane
    row (all-ones when ``nbits`` is a word multiple)."""
    rem = int(nbits) % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


def split_index(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(word index, bit mask)`` of each id — one pass, no divmod."""
    ids = np.asarray(ids)
    word = ids >> 6
    mask = _ONE << (ids.astype(np.uint64) & _BIT_MASK)
    return word, mask


def scatter_or(words: np.ndarray, word_idx: np.ndarray, masks: np.ndarray) -> None:
    """OR ``masks`` into ``words`` at ``word_idx`` (sorted, dup-safe).

    ``word_idx`` must be non-decreasing: runs of equal indices are
    combined with one ``bitwise_or.reduceat`` pass and written with a
    plain fancy-index ``|=`` over the now-unique run heads — the
    buffered, vectorized alternative to ``np.bitwise_or.at``.
    """
    if word_idx.size == 0:
        return
    if word_idx.size == 1:
        words[word_idx[0]] |= masks[0]
        return
    starts = np.flatnonzero(np.diff(word_idx)) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    words[word_idx[starts]] |= np.bitwise_or.reduceat(masks, starts)


def pack_bits(ids: np.ndarray, nbits: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pack ascending-sorted ids into a little-endian uint64 bitmap.

    Byte-identical to the historical per-element ``bitmap[v >> 6] |=
    1 << (v & 63)`` loop, in two vectorized passes (split + OR-scatter).
    """
    ids = np.asarray(ids)
    nwords = words_for_bits(nbits)
    if out is None:
        out = np.zeros(nwords, dtype=np.uint64)
    elif out.size != nwords:
        raise ValidationError(
            f"output bitmap has {out.size} words, {nbits} bits need {nwords}"
        )
    if ids.size == 0:
        return out
    if int(ids[-1]) >= nbits or int(ids[0]) < 0:
        raise ValidationError("ids out of bitmap range")
    word, mask = split_index(ids)
    scatter_or(out, word, mask)
    return out


def test_bits(words: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Membership gather: ``True`` where the id's bit is set."""
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    word, _ = split_index(ids)
    shift = np.asarray(ids).astype(np.uint64) & _BIT_MASK
    return ((words[word] >> shift) & _ONE).astype(bool)


def popcount_words(words: np.ndarray) -> int:
    """Total set bits of a word array (uint8-LUT view, summed wide)."""
    if words.size == 0:
        return 0
    return int(_POPCOUNT8[words.view(np.uint8)].sum(dtype=np.int64))


def popcount_rows(plane: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D ``(rows, words)`` plane."""
    rows = plane.shape[0]
    if rows == 0 or plane.size == 0:
        return np.zeros(rows, dtype=np.int64)
    bytes_view = plane.view(np.uint8).reshape(rows, -1)
    return _POPCOUNT8[bytes_view].sum(axis=1, dtype=np.int64)


def andnot_words(mine: np.ndarray, covered: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``mine AND NOT covered`` — the word-parallel marginal-gain core."""
    if out is None:
        return mine & ~covered
    np.bitwise_and(mine, ~covered, out=out)
    return out


def decode_bits(words: np.ndarray, nbits: int | None = None) -> np.ndarray:
    """Ascending bit positions set in ``words``.

    Only nonzero words are expanded (8 bytes -> 64 flags each), so the
    cost tracks the number of *set* words, not the plane width.  With
    ``nbits`` the result is clipped to valid positions — the tail of a
    partially used final word.
    """
    nz = np.flatnonzero(words != 0)  # a bool mask scans faster than uint64
    if nz.size == 0:
        return np.empty(0, dtype=np.int64)
    flags = np.unpackbits(words[nz].view(np.uint8), bitorder="little")
    hits = np.flatnonzero(flags)  # word-major, bit-ascending
    positions = nz[hits >> 6] * WORD_BITS + (hits & (WORD_BITS - 1))
    if nbits is not None and positions.size and int(positions[-1]) >= nbits:
        positions = positions[: np.searchsorted(positions, nbits, side="left")]
    return positions
