"""Kernel-mode resolution: which visited implementation runs.

The visited mode is *operational* — every implementation produces
bit-identical output — so, like the data plane, it is resolved at call
time (explicit value > environment > ``auto``) and never becomes part
of store or pool identities.  ``auto`` starts every sampler batch on
the sorted key array and promotes it to the dense plane by measured
work — the rule lives with the object that applies it,
:class:`~repro.kernels.planes.VisitedSet`.  A plane that does not fit
falls back to the sorted path; fallbacks are counted
(``kernels.bitset.fallbacks``), not raised.

Seed selection has one coverage scan, the CSR postings walk
(:func:`resolve_coverage_scan` reports it for run manifests).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.memory.budget import env_budget_bytes, governor
from repro.utils.errors import ValidationError

#: how the samplers keep per-traversal visited state
VISITED_MODES = ("auto", "sorted", "bitset")

ENV_VISITED_MODE = "REPRO_VISITED_MODE"

#: default ceiling for one dense visited plane; ``auto`` stays on the
#: sorted path above it
DEFAULT_PLANE_BUDGET_BYTES = 64 * 1024 * 1024


def plane_budget_bytes() -> int:
    """The dense-plane byte budget.

    The process memory budget (``IMMOptions(memory_budget_mb=)`` /
    ``REPRO_MEMORY_BUDGET_MB``) when one is set, else a conservative
    per-plane default — a process that never configured a budget still
    refuses pathological dense planes.
    """
    budget = governor().budget_bytes
    if budget is None:
        budget = env_budget_bytes()
    return DEFAULT_PLANE_BUDGET_BYTES if budget is None else budget


def _plane_fits(plane_bytes: int) -> bool:
    """Whether one dense plane fits both the per-plane ceiling and the
    governor's *remaining* headroom.

    The headroom check is what ties the kernels into the shared
    accountant: a plane that fits an empty budget may not fit next to a
    resident RRR store, and ``request`` gives the tiering a chance to
    demote chunks before the sparse fallback is taken.
    """
    plane_bytes = int(plane_bytes)
    if plane_bytes > plane_budget_bytes():
        return False
    gov = governor()
    if gov.would_fit(plane_bytes):
        return True
    return gov.request(plane_bytes)


def resolve_visited_mode(value: Optional[str] = None) -> str:
    """Normalize a visited-mode request (explicit > env > ``auto``)."""
    if value is None:
        value = os.environ.get(ENV_VISITED_MODE) or None
    if value is None:
        return "auto"
    mode = str(value).strip().lower()
    if mode not in VISITED_MODES:
        raise ValidationError(
            f"unknown visited mode {value!r}; choose one of {VISITED_MODES}"
        )
    return mode


def resolve_coverage_scan(value: Optional[str] = None) -> str:
    """The coverage scan seed selection runs: always the CSR postings
    walk (``value`` is ignored; run manifests pass ``None``)."""
    return "csr"
