"""``repro.memory`` — the process-wide memory governor.

Every byte-holding subsystem of the library registers its footprint
with one shared accountant, the :class:`~repro.memory.budget.MemoryBudget`
governor (:func:`governor`):

* the :class:`~repro.shm.arena.ChunkArena` and the warm-start
  :class:`~repro.rrr.store.RRRStore`'s chunk payloads (account
  ``rrr.chunks`` / the concat cache ``rrr.concat``);
* the sampler's dense visited planes,
  :class:`~repro.kernels.planes.VisitedPlane` (account
  ``kernels.planes``);
* the serving tier's :class:`~repro.service.cache.SubstrateTable` and
  :class:`~repro.service.cache.ExactResultCache` (accounts
  ``service.substrates`` / ``service.results``).

With no budget configured the governor is a pure ledger (the gauges
still publish).  With a budget — ``IMMOptions(memory_budget_mb=)``,
``REPRO_MEMORY_BUDGET_MB``, or ``--memory-budget-mb`` — reservations that
would overshoot trigger *demotion* through registered pressure
handlers: hot RRR chunks compress in place
(:mod:`repro.memory.tiers`, bit-identical bitpack round-trip), then
spill to disk in the atomic-npz checkpoint format, and idle service
state is trimmed.  Results are bit-identical at every budget — only
wall-clock and residency change.
"""

from repro.memory.budget import (
    ENV_MEMORY_BUDGET_MB,
    MemoryBudget,
    budget_scope,
    governor,
    reset_governor,
)

__all__ = [
    "ENV_MEMORY_BUDGET_MB",
    "MemoryBudget",
    "budget_scope",
    "governor",
    "reset_governor",
    "HOT",
    "COMPRESSED",
    "SPILLED",
    "CompressedChunk",
    "TieredChunk",
]

_TIER_EXPORTS = ("HOT", "COMPRESSED", "SPILLED", "CompressedChunk", "TieredChunk")


def __getattr__(name: str):
    # repro.memory.tiers needs the RRR collection/trace types, which sit
    # on the other side of repro.kernels -> repro.memory.budget in the
    # import graph; loading it lazily keeps the budget importable from
    # anywhere without a cycle
    if name in _TIER_EXPORTS:
        from repro.memory import tiers

        return getattr(tiers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
