"""Word-parallel bitset kernels — the host-side hot-loop substrate.

``repro.kernels`` is the CPU analogue of the device's word-parallel
inner loops: packed uint64 primitives (:mod:`repro.kernels.bitset`),
the dense visited/membership planes built on them and the sampler's
visited set that promotes to its plane by measured work
(:mod:`repro.kernels.planes`), and the mode/budget resolution
(:mod:`repro.kernels.modes`).
"""

from repro.kernels.bitset import (
    WORD_BITS,
    andnot_words,
    decode_bits,
    pack_bits,
    popcount_rows,
    popcount_words,
    scatter_or,
    split_index,
    tail_mask,
    test_bits,
    words_for_bits,
)
from repro.kernels.modes import (
    COVERAGE_SCANS,
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_COVERAGE_SCAN,
    ENV_VISITED_MODE,
    VISITED_MODES,
    choose_scan_impl,
    plane_budget_bytes,
    resolve_coverage_scan,
    resolve_visited_mode,
)
from repro.kernels.planes import MembershipPlane, VisitedPlane, VisitedSet

__all__ = [
    "WORD_BITS",
    "andnot_words",
    "decode_bits",
    "pack_bits",
    "popcount_rows",
    "popcount_words",
    "scatter_or",
    "split_index",
    "tail_mask",
    "test_bits",
    "words_for_bits",
    "COVERAGE_SCANS",
    "DEFAULT_PLANE_BUDGET_BYTES",
    "ENV_COVERAGE_SCAN",
    "ENV_VISITED_MODE",
    "VISITED_MODES",
    "choose_scan_impl",
    "plane_budget_bytes",
    "resolve_coverage_scan",
    "resolve_visited_mode",
    "MembershipPlane",
    "VisitedPlane",
    "VisitedSet",
]
