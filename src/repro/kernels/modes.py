"""Kernel-mode resolution: which visited/scan implementation runs.

Both knobs are *operational* — every implementation produces
bit-identical output — so, like the data plane, they are resolved at
call time (explicit value > environment > ``auto``) and never become
part of store or pool identities.

* Visited bookkeeping: ``auto`` starts every sampler batch on the sorted
  key array and promotes it to the dense plane by measured work — the
  rule lives with the object that applies it,
  :class:`~repro.kernels.planes.VisitedSet`.
* Coverage scan: ``auto`` picks the dense bitset scan when its
  membership plane fits the memory budget (:func:`choose_scan_impl`).

A plane that does not fit falls back to the sparse path; fallbacks are
counted (``kernels.bitset.fallbacks``), not raised.
"""

from __future__ import annotations

import os
from typing import Optional

from repro import obs
from repro.kernels.bitset import words_for_bits
from repro.memory.budget import env_budget_bytes, governor
from repro.utils.errors import ValidationError

#: how the samplers keep per-traversal visited state
VISITED_MODES = ("auto", "sorted", "bitset")
#: how seed selection computes marginal coverage
COVERAGE_SCANS = ("auto", "csr", "bitset")

ENV_VISITED_MODE = "REPRO_VISITED_MODE"
ENV_COVERAGE_SCAN = "REPRO_COVERAGE_SCAN"

#: default ceiling for any single dense bit plane (visited plane or
#: membership plane); ``auto`` falls back to the sparse path above it
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
    """Normalize a coverage-scan request (explicit > env > ``auto``)."""
    if value is None:
        value = os.environ.get(ENV_COVERAGE_SCAN) or None
    if value is None:
        return "auto"
    scan = str(value).strip().lower()
    if scan not in COVERAGE_SCANS:
        raise ValidationError(
            f"unknown coverage scan {value!r}; choose one of {COVERAGE_SCANS}"
        )
    return scan


def choose_scan_impl(scan: str, n: int, num_sets: int) -> str:
    """Pick ``'bitset'`` or ``'csr'`` for one selection run.

    Budget-gated on the ``(n x num_sets)``-bit membership plane the
    bitset scan would materialize.
    """
    scan = resolve_coverage_scan(scan)
    if scan != "auto":
        return scan
    plane_bytes = int(n) * words_for_bits(num_sets) * 8
    if _plane_fits(plane_bytes):
        return "bitset"
    obs.counter_add("kernels.bitset.fallbacks", 1)
    return "csr"
