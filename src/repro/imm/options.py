"""The frozen options bundle behind :func:`repro.imm.run_imm`.

The one call shape of :func:`repro.imm.imm.run_imm` (and of every
engine's ``run``) is ``run_imm(graph, k, epsilon, rng=...,
options=IMMOptions(...))``: every knob beyond the request itself lives
here.

``IMMOptions`` is frozen (hashable, safely shareable across runs of a
sweep) and validates eagerly, so a bad knob fails at construction time
rather than mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.imm.bounds import BoundsConfig
from repro.resilience.options import ResilienceOptions
from repro.utils.errors import ValidationError

_MODELS = ("IC", "LT")


@dataclass(frozen=True)
class IMMOptions:
    """Every algorithmic knob of one :func:`run_imm` invocation.

    Attributes
    ----------
    model:
        Diffusion model, ``"IC"`` or ``"LT"`` (case-insensitive).
    eliminate_sources:
        The paper's §3.4 heuristic (eIM's default; off reproduces
        vanilla IMM as in gIM and cuRipples).
    bounds:
        :class:`~repro.imm.bounds.BoundsConfig` overriding the
        martingale sample-size bounds; ``None`` means exact bounds.
    batch_size:
        Sets per lockstep sampler batch (forwarded to pool workers).
    n_jobs:
        Worker processes for RRR sampling; ``1`` keeps everything
        in-process, ``> 1`` fans sampling out over a resident
        :class:`~repro.rrr.parallel.SamplerPool`.
    profile:
        Install live :mod:`repro.obs` collectors for the run and attach
        the report as ``IMMResult.profile``.
    resilience:
        :class:`~repro.resilience.options.ResilienceOptions` governing
        the supervision of parallel sampling (timeouts, retries, serial
        degradation); ``None`` uses the library default policy.
    data_plane:
        How graph and results move between the parent and sampler
        workers: ``"shm"`` (zero-copy shared-memory graph plus
        log-encoded IPC) or ``"pickle"`` (the classic pickled
        initializer / raw results).  ``None`` defers to the
        ``REPRO_DATA_PLANE`` environment variable, then to ``"shm"``
        wherever OS shared memory works.  Output is bit-identical
        across planes.
    visited_mode:
        Sampler visited-bookkeeping implementation: ``"sorted"``
        (merged key array), ``"bitset"`` (dense word-parallel visited
        plane), or ``"auto"`` (each batch starts sorted and moves to
        the plane once its merges have cost what the plane would, if
        it fits the memory budget; see
        :class:`~repro.kernels.planes.VisitedSet`).  ``None`` defers to
        ``REPRO_VISITED_MODE``, then ``"auto"``.  Output is
        bit-identical across modes.
    coverage_scan:
        Seed-selection marginal-coverage scan: ``"csr"`` (inverted
        postings), ``"bitset"`` (word-parallel popcount over a packed
        membership plane), or ``"auto"`` (budget-gated).  ``None``
        defers to ``REPRO_COVERAGE_SCAN``, then ``"auto"``.  Seeds and
        statistics are bit-identical across scans.
    memory_budget_mb:
        Process memory budget in MiB, pinned on the shared governor
        (:mod:`repro.memory.budget`) for the duration of the run: RRR
        chunks demote to compressed / spilled tiers and dense kernel
        planes fall back to sparse paths rather than exceed it.  Seeds
        are bit-identical at every budget — only wall-clock and
        residency change.  ``None`` defers to
        ``REPRO_MEMORY_BUDGET_MB``, else unbounded.
    """

    model: str = "IC"
    eliminate_sources: bool = False
    bounds: BoundsConfig | None = None
    batch_size: int = 16384
    n_jobs: int = 1
    profile: bool = False
    resilience: ResilienceOptions | None = None
    data_plane: str | None = None
    visited_mode: str | None = None
    coverage_scan: str | None = None
    memory_budget_mb: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", str(self.model).upper())
        if self.model not in _MODELS:
            raise ValidationError(
                f"unknown diffusion model {self.model!r}; choose IC or LT"
            )
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.n_jobs < 1:
            raise ValidationError("n_jobs must be >= 1")
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceOptions
        ):
            raise ValidationError(
                "resilience must be a ResilienceOptions instance (or None)"
            )
        if self.data_plane is not None:
            plane = str(self.data_plane).strip().lower()
            if plane not in ("pickle", "shm"):
                raise ValidationError(
                    f"unknown data plane {self.data_plane!r}; "
                    "choose 'pickle' or 'shm' (or None for the default)"
                )
            object.__setattr__(self, "data_plane", plane)
        if self.visited_mode is not None:
            from repro.kernels import resolve_visited_mode

            object.__setattr__(
                self, "visited_mode", resolve_visited_mode(self.visited_mode)
            )
        if self.coverage_scan is not None:
            from repro.kernels import resolve_coverage_scan

            object.__setattr__(
                self, "coverage_scan", resolve_coverage_scan(self.coverage_scan)
            )
        if self.memory_budget_mb is not None and not self.memory_budget_mb > 0:
            raise ValidationError("memory_budget_mb must be positive or None")

    def replace(self, **changes) -> "IMMOptions":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return replace(self, **changes)
