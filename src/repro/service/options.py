"""Frozen configuration for the influence-query serving tier.

:class:`ServiceOptions` follows the same frozen-options pattern as
:class:`~repro.imm.options.IMMOptions` and
:class:`~repro.resilience.options.ResilienceOptions`: hashable, eagerly
validated, safely shareable.  It configures the *operational* envelope
of an :class:`~repro.service.service.InfluenceService` — concurrency,
queue depth, cache capacities — never the algorithm; algorithmic knobs
ride on each query's own ``IMMOptions``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.errors import ValidationError


@dataclass(frozen=True)
class ServiceOptions:
    """Operational knobs of one :class:`InfluenceService`.

    Attributes
    ----------
    max_inflight:
        Worker threads executing queries concurrently.  Queries that
        share a coalescing key are serialized onto one substrate
        regardless, so raising this only helps mixed-key traffic.
    max_queue_depth:
        Queries allowed to wait for a worker.  A submit beyond this
        raises :class:`~repro.utils.errors.ServiceOverloadedError`
        (admission control / backpressure) instead of queueing unbounded.
    exact_cache_size:
        Capacity of the tier-1 exact result cache (LRU over
        ``(stream key, k, epsilon, bounds)`` →
        :class:`~repro.imm.imm.IMMResult`).  ``0`` disables the tier.
    max_substrates:
        Capacity of the tier-2 substrate table (LRU over coalescing key
        → shared :class:`~repro.rrr.store.RRRStore` +
        :class:`~repro.imm.coverage.CoverageIndex`).  Evicting a
        substrate releases its cached RRR stream; queries on that key
        start cold again.
    chunk_sets:
        Chunk granularity of the substrate stores (forwarded to
        :class:`~repro.rrr.store.RRRStore`); part of each stream's
        identity, so changing it changes every coalescing key.
    checkpoint_dir:
        Base directory for substrate chunk checkpoints (``None``
        disables persistence); a restarted service re-warms its
        substrates from disk.
    default_deadline:
        Wall-clock budget in seconds applied to queries that carry no
        deadline of their own (``None`` → unbounded).  Expiry fails the
        query with :class:`~repro.utils.errors.DeadlineExceededError`
        whether it is still queued or already sampling.
    breaker_failure_threshold:
        Consecutive substrate failures (worker crashes past the retry
        budget, OOM) on one stream identity before its circuit breaker
        opens.
    breaker_reset_timeout:
        Seconds an open breaker waits before letting one probe query
        through (half-open).
    degraded_serving:
        When ``True``, queries arriving at an open breaker are answered
        from cache where possible — exact hits, or a cached result for
        the same ``(stream, k)`` whose epsilon is within
        ``degraded_epsilon_slack`` — and the outcome is flagged
        ``degraded``.  When ``False`` (or on cache miss) they fail fast
        with :class:`~repro.utils.errors.CircuitOpenError`.
    degraded_epsilon_slack:
        Multiplicative slack for the relaxed cache lookup: a cached
        answer computed at ``epsilon' <= slack * epsilon`` may stand in
        for ``epsilon`` while degraded.  ``1.0`` restricts degraded
        serving to exact-tier hits.
    memory_budget_mb:
        Process memory budget in MiB, installed on the shared governor
        (:mod:`repro.memory.budget`) when the service starts.  ``None``
        leaves whatever ``REPRO_MEMORY_BUDGET_MB`` (or an earlier
        explicit setting) resolved.
    shed_on_memory_pressure:
        When ``True`` (default), a query arriving while the governor is
        overcommitted — *after* a demotion rebalance failed to free
        enough RAM — is answered degraded from cache where possible or
        rejected with
        :class:`~repro.utils.errors.ServiceOverloadedError`, instead of
        being admitted toward a host OOM.  No-op while no budget is
        configured.
    """

    max_inflight: int = 2
    max_queue_depth: int = 64
    exact_cache_size: int = 128
    max_substrates: int = 8
    chunk_sets: int = 1024
    checkpoint_dir: str | None = None
    default_deadline: float | None = None
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 30.0
    degraded_serving: bool = True
    degraded_epsilon_slack: float = 2.0
    memory_budget_mb: float | None = None
    shed_on_memory_pressure: bool = True

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1")
        if self.max_queue_depth < 1:
            raise ValidationError("max_queue_depth must be >= 1")
        if self.exact_cache_size < 0:
            raise ValidationError("exact_cache_size must be >= 0")
        if self.max_substrates < 1:
            raise ValidationError("max_substrates must be >= 1")
        if self.chunk_sets < 1:
            raise ValidationError("chunk_sets must be >= 1")
        if self.default_deadline is not None and not self.default_deadline > 0:
            raise ValidationError("default_deadline must be positive or None")
        if self.breaker_failure_threshold < 1:
            raise ValidationError("breaker_failure_threshold must be >= 1")
        if not self.breaker_reset_timeout > 0:
            raise ValidationError("breaker_reset_timeout must be positive")
        if not self.degraded_epsilon_slack >= 1.0:
            raise ValidationError("degraded_epsilon_slack must be >= 1.0")
        if self.memory_budget_mb is not None and not self.memory_budget_mb > 0:
            raise ValidationError("memory_budget_mb must be positive or None")

    def replace(self, **changes) -> "ServiceOptions":
        """A copy with ``changes`` applied (frozen-dataclass convenience)."""
        return replace(self, **changes)
