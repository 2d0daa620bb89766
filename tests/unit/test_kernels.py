"""Unit tests for the word-parallel bitset kernels (repro.kernels)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.kernels import (
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_COVERAGE_SCAN,
    ENV_VISITED_MODE,
    MembershipPlane,
    VisitedPlane,
    VisitedSet,
    andnot_words,
    choose_scan_impl,
    decode_bits,
    pack_bits,
    plane_budget_bytes,
    popcount_rows,
    popcount_words,
    resolve_coverage_scan,
    resolve_visited_mode,
    scatter_or,
    split_index,
    tail_mask,
    words_for_bits,
)
from repro.kernels import test_bits as bits_test  # alias: not a pytest case
from repro.memory.budget import ENV_MEMORY_BUDGET_MB
from repro.utils.errors import ValidationError


# ---------------------------------------------------------------------------
# word primitives
# ---------------------------------------------------------------------------
def test_words_for_bits_boundaries():
    assert words_for_bits(0) == 0
    assert words_for_bits(1) == 1
    assert words_for_bits(64) == 1
    assert words_for_bits(65) == 2
    assert words_for_bits(128) == 2
    assert words_for_bits(129) == 3


def test_tail_mask_exact_multiple_is_all_ones():
    assert int(tail_mask(64)) == (1 << 64) - 1
    assert int(tail_mask(128)) == (1 << 64) - 1


def test_tail_mask_partial_word():
    assert int(tail_mask(1)) == 1
    assert int(tail_mask(65)) == 1
    assert int(tail_mask(67)) == 0b111


@pytest.mark.parametrize("nbits", [1, 5, 63, 64, 65, 127, 128, 200])
def test_pack_decode_roundtrip(nbits):
    rng = np.random.default_rng(nbits)
    ids = np.flatnonzero(rng.random(nbits) < 0.4).astype(np.int64)
    words = pack_bits(ids, nbits)
    assert words.size == words_for_bits(nbits)
    np.testing.assert_array_equal(decode_bits(words, nbits), ids)


def test_pack_bits_matches_scalar_loop():
    """pack_bits is byte-identical to the historical per-vertex |= loop."""
    n = 131
    ids = np.array([0, 1, 63, 64, 65, 100, 130], dtype=np.int64)
    expected = np.zeros(words_for_bits(n), dtype=np.uint64)
    for v in ids.tolist():
        expected[v >> 6] |= np.uint64(1) << np.uint64(v & 63)
    np.testing.assert_array_equal(pack_bits(ids, n), expected)


def test_pack_bits_rejects_out_of_range():
    with pytest.raises(ValidationError):
        pack_bits(np.array([4], dtype=np.int64), 4)
    with pytest.raises(ValidationError):
        pack_bits(np.array([-1], dtype=np.int64), 4)


def test_decode_bits_clips_tail_garbage():
    words = np.array([np.uint64((1 << 64) - 1)])
    np.testing.assert_array_equal(decode_bits(words, 3), [0, 1, 2])


def test_test_bits_matches_membership():
    nbits = 150
    members = np.array([0, 64, 149], dtype=np.int64)
    words = pack_bits(members, nbits)
    probe = np.array([0, 1, 63, 64, 65, 148, 149], dtype=np.int64)
    expected = np.isin(probe, members)
    np.testing.assert_array_equal(bits_test(words, probe), expected)


def test_popcount_words_and_rows():
    words = np.array([0, (1 << 64) - 1, 0b1011], dtype=np.uint64)
    assert popcount_words(words) == 64 + 3
    plane = words.reshape(3, 1)
    np.testing.assert_array_equal(popcount_rows(plane), [0, 64, 3])


def test_andnot_words():
    mine = np.array([0b1111], dtype=np.uint64)
    covered = np.array([0b0101], dtype=np.uint64)
    np.testing.assert_array_equal(andnot_words(mine, covered), [0b1010])


def test_scatter_or_handles_duplicate_words():
    """Duplicate word indices (sorted) must all land — the failure mode
    a plain fancy-index |= silently drops."""
    words = np.zeros(2, dtype=np.uint64)
    ids = np.array([0, 1, 2, 64], dtype=np.int64)  # three bits share word 0
    word_idx, masks = split_index(ids)
    scatter_or(words, word_idx, masks)
    assert int(words[0]) == 0b111
    assert int(words[1]) == 1


# ---------------------------------------------------------------------------
# VisitedPlane
# ---------------------------------------------------------------------------
def test_visited_plane_roundtrip_odd_width():
    batch, n = 5, 67  # n % 64 != 0 exercises the word tail
    plane = VisitedPlane(batch, n)
    sid = np.array([0, 0, 2, 2, 2, 4], dtype=np.int64)
    v = np.array([0, 66, 1, 63, 64, 10], dtype=np.int64)
    plane.set_sorted_keys(sid, v)
    np.testing.assert_array_equal(plane.extract_keys(), sid * n + v)
    probe_sid = np.array([0, 0, 1, 2], dtype=np.int64)
    probe_v = np.array([66, 65, 0, 64], dtype=np.int64)
    np.testing.assert_array_equal(
        plane.test(probe_sid, probe_v), [True, False, False, True]
    )


def test_visited_plane_extract_tiles(monkeypatch):
    """Extraction in tiny tiles is identical to one-shot extraction."""
    import repro.kernels.planes as planes_mod

    rng = np.random.default_rng(7)
    batch, n = 40, 130
    keys = np.unique(rng.integers(0, batch * n, size=300))
    sid, v = np.divmod(keys, n)

    plane = VisitedPlane(batch, n)
    plane.set_sorted_keys(sid, v)
    whole = plane.extract_keys()

    monkeypatch.setattr(planes_mod, "EXTRACT_TILE_WORDS", 4)
    tiled_plane = VisitedPlane(batch, n)
    tiled_plane.set_sorted_keys(sid, v)
    with obs.profiled() as handle:
        tiled = tiled_plane.extract_keys()
    np.testing.assert_array_equal(tiled, whole)
    np.testing.assert_array_equal(tiled, keys)
    assert handle.report().counters.get("kernels.bitset.tiles", 0) > 1


def test_visited_plane_publishes_plane_bytes():
    with obs.profiled() as handle:
        plane = VisitedPlane(8, 64)
    gauges = handle.report().gauges
    assert gauges.get("kernels.bitset.plane_bytes") == plane.nbytes


# ---------------------------------------------------------------------------
# MembershipPlane
# ---------------------------------------------------------------------------
def test_membership_plane_extend_and_grow():
    plane = MembershipPlane(5)
    # sets: 0 -> {0, 3}, 1 -> {1}, then 70 more singleton sets of vertex 2
    plane.extend(np.array([0, 3, 1]), np.array([0, 0, 1]), 2)
    assert plane.num_sets == 2
    assert plane.num_elements == 3
    plane.extend(np.full(70, 2), np.arange(2, 72), 72)  # forces word growth
    assert plane.num_sets == 72

    nwords = words_for_bits(72)
    np.testing.assert_array_equal(decode_bits(plane.row(0, nwords)), [0])
    np.testing.assert_array_equal(decode_bits(plane.row(1, nwords)), [1])
    np.testing.assert_array_equal(decode_bits(plane.row(2, nwords)), np.arange(2, 72))
    np.testing.assert_array_equal(decode_bits(plane.row(3, nwords)), [0])
    assert decode_bits(plane.row(4, nwords)).size == 0


def test_membership_plane_append_only():
    plane = MembershipPlane(3)
    plane.extend(np.array([0]), np.array([0]), 1)
    with pytest.raises(ValidationError):
        plane.extend(np.array([1]), np.array([0]), 0)
    with pytest.raises(ValidationError):
        plane.extend(np.array([1, 2]), np.array([0]), 2)


# ---------------------------------------------------------------------------
# mode resolution and the memory budget
# ---------------------------------------------------------------------------
def test_resolve_precedence_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_VISITED_MODE, "sorted")
    assert resolve_visited_mode("bitset") == "bitset"
    assert resolve_visited_mode(None) == "sorted"
    monkeypatch.delenv(ENV_VISITED_MODE)
    assert resolve_visited_mode(None) == "auto"


def test_resolve_rejects_unknown(monkeypatch):
    with pytest.raises(ValidationError):
        resolve_visited_mode("dense")
    with pytest.raises(ValidationError):
        resolve_coverage_scan("postings")
    monkeypatch.setenv(ENV_COVERAGE_SCAN, "nope")
    with pytest.raises(ValidationError):
        resolve_coverage_scan(None)


def test_plane_budget_env_override(monkeypatch):
    monkeypatch.delenv(ENV_MEMORY_BUDGET_MB, raising=False)
    assert plane_budget_bytes() == DEFAULT_PLANE_BUDGET_BYTES
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "0.5")
    assert plane_budget_bytes() == 512 * 1024
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "oops")
    with pytest.raises(ValidationError):
        plane_budget_bytes()
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "-1")
    with pytest.raises(ValidationError):
        plane_budget_bytes()


def _merge_heavy_inserts(batch, n, rounds, seed=0):
    """Per-round ascending unique candidate keys for ``batch`` rows."""
    rng = np.random.default_rng(seed)
    return [
        np.unique(rng.integers(0, batch * n, size=3 * batch)) for _ in range(rounds)
    ]


def test_visited_set_matches_across_modes_and_promotes_by_merge_cost():
    batch, n = 6, 130  # 3 words per row: auto promotes once merges copy 18
    sources = np.array([0, 129, 5, 64, 64, 7], dtype=np.int64)
    sets = {mode: VisitedSet(sources, n, mode) for mode in ("sorted", "auto", "bitset")}
    assert sets["bitset"].on_plane and not sets["auto"].on_plane
    copied = 0
    for keys in _merge_heavy_inserts(batch, n, rounds=4):
        before = sets["sorted"].keys().size
        new = {mode: vs.insert(keys) for mode, vs in sets.items()}
        np.testing.assert_array_equal(new["auto"], new["sorted"])
        np.testing.assert_array_equal(new["bitset"], new["sorted"])
        copied += before + new["sorted"].size
        assert sets["auto"].on_plane == (copied >= batch * 3)
    assert sets["auto"].on_plane and not sets["sorted"].on_plane
    for mode in ("auto", "bitset"):
        np.testing.assert_array_equal(sets[mode].keys(), sets["sorted"].keys())
        np.testing.assert_array_equal(sets[mode].sizes(), sets["sorted"].sizes())


def test_visited_set_budget_fallback(monkeypatch):
    batch, n = 64, 100_000
    sources = np.arange(batch, dtype=np.int64)
    inserts = _merge_heavy_inserts(batch, n, rounds=60)  # copies pass 64 * 1563
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "0.001")  # ~1 KiB: no plane fits
    with obs.profiled() as handle:
        auto = VisitedSet(sources, n, "auto")
        ref = VisitedSet(sources, n, "sorted")
        for keys in inserts:
            np.testing.assert_array_equal(auto.insert(keys), ref.insert(keys))
    # the plane did not fit: the batch stayed sorted and counted it once
    assert not auto.on_plane
    np.testing.assert_array_equal(auto.keys(), ref.keys())
    report = handle.report()
    assert report.counters.get("kernels.bitset.fallbacks", 0) == 1
    assert "kernels.bitset.plane_bytes" not in report.gauges
    # explicit bitset is honored even over budget (the caller asked)
    assert VisitedSet(sources, n, "bitset").on_plane


def test_choose_scan_impl_budget_fallback(monkeypatch):
    monkeypatch.delenv(ENV_MEMORY_BUDGET_MB, raising=False)
    assert choose_scan_impl("auto", 1000, 5000) == "bitset"
    assert choose_scan_impl("csr", 1000, 5000) == "csr"
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "0.001")
    assert choose_scan_impl("auto", 100_000, 1_000_000) == "csr"
