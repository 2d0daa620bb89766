"""Word-parallel bitset kernels — the host-side hot-loop substrate.

``repro.kernels`` is the CPU analogue of the device's word-parallel
inner loops: packed uint64 primitives (:mod:`repro.kernels.bitset`),
the dense visited plane built on them and the sampler's visited set
that promotes to its plane by measured work
(:mod:`repro.kernels.planes`), and the mode/budget resolution
(:mod:`repro.kernels.modes`).
"""

from repro.kernels.bitset import (
    WORD_BITS,
    decode_bits,
    pack_bits,
    popcount_rows,
    popcount_words,
    scatter_or,
    split_index,
    test_bits,
    words_for_bits,
)
from repro.kernels.modes import (
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_VISITED_MODE,
    VISITED_MODES,
    plane_budget_bytes,
    resolve_coverage_scan,
    resolve_visited_mode,
)
from repro.kernels.planes import VisitedPlane, VisitedSet

__all__ = [
    "WORD_BITS",
    "decode_bits",
    "pack_bits",
    "popcount_rows",
    "popcount_words",
    "scatter_or",
    "split_index",
    "test_bits",
    "words_for_bits",
    "DEFAULT_PLANE_BUDGET_BYTES",
    "ENV_VISITED_MODE",
    "VISITED_MODES",
    "plane_budget_bytes",
    "resolve_coverage_scan",
    "resolve_visited_mode",
    "VisitedPlane",
    "VisitedSet",
]
