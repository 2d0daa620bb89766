"""The influence query and its served outcome.

:class:`InfluenceQuery` is the unit of work an
:class:`~repro.service.service.InfluenceService` accepts: a graph
reference, the workload ``(k, epsilon)``, the algorithmic
:class:`~repro.imm.options.IMMOptions`, and the ``entropy`` that names
the query's RRR stream.  Two keys derive from it:

* the **coalescing key** — everything that shapes the RRR stream
  (graph fingerprint, model, elimination, entropy, fan-out/batch
  geometry).  Queries sharing it share one warm-start
  :class:`~repro.rrr.store.RRRStore` and one
  :class:`~repro.imm.coverage.CoverageIndex`, so a burst of ``(k, ε)``
  variants costs O(max θ) sampling total;
* the **result key** — the coalescing key plus everything that shapes
  the *answer* (``k``, ``epsilon``, bounds).  It
  addresses the tier-1 exact cache.

Because the substrate's stream is prefix-deterministic (a pure function
of the coalescing key), a served seed set is bit-identical to a direct
:func:`~repro.imm.imm.run_imm` against a fresh store with the same
identity — caching and coalescing are invisible in the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Union

from repro.graphs.csc import DirectedGraph
from repro.imm.options import IMMOptions
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.imm.imm import IMMResult

#: how a query's answer was produced, from cheapest to most expensive
CACHE_TIERS = ("exact", "prefix", "cold")


class ResultKey(NamedTuple):
    """The tier-1 exact-cache address: the coalescing key's fields, then
    the answer shape.  Equal to (and hashed as) the plain tuple of its
    fields."""

    fingerprint: str
    model: str
    eliminate_sources: bool
    entropy: object
    n_jobs: int
    chunk_sets: int
    batch_size: int
    k: int
    epsilon: float
    bounds: object


@dataclass(frozen=True, eq=False)
class InfluenceQuery:
    """One influence-maximization request against the serving tier.

    Attributes
    ----------
    graph:
        A weighted :class:`~repro.graphs.csc.DirectedGraph`, or the name
        of a graph previously registered on the service
        (:meth:`InfluenceService.register_graph`).
    k:
        Seed-set size.
    epsilon:
        IMM approximation parameter.
    options:
        The algorithmic knob bundle for this query (model, elimination,
        bounds, fan-out, ...).
    entropy:
        Root entropy of the query's RRR stream (an int or tuple of
        ints).  Queries that should share sampling work must share it;
        it plays the role ``rng`` plays in direct ``run_imm`` calls.
    deadline:
        Wall-clock budget in seconds for this query, queue wait
        included (``None`` → the service's ``default_deadline``).  On
        expiry the query fails with
        :class:`~repro.utils.errors.DeadlineExceededError` and its
        worker slot is freed; deadlines never change the answer of a
        query that completes.
    """

    graph: Union[DirectedGraph, str]
    k: int
    epsilon: float
    options: IMMOptions = field(default_factory=IMMOptions)
    entropy: object = 0
    deadline: Union[float, None] = None

    def __post_init__(self):
        if not isinstance(self.graph, (DirectedGraph, str)):
            raise ValidationError(
                "graph must be a DirectedGraph or a registered graph name"
            )
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if not 0.0 < float(self.epsilon) <= 1.0:
            raise ValidationError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )
        if not isinstance(self.options, IMMOptions):
            raise ValidationError("options must be an IMMOptions instance")
        if self.deadline is not None and not float(self.deadline) > 0:
            raise ValidationError(
                f"deadline must be positive or None, got {self.deadline}"
            )

    # -- keys ----------------------------------------------------------------
    def coalesce_key(self, graph: DirectedGraph, chunk_sets: int) -> tuple:
        """The stream-identity tuple compatible queries share.

        Mirrors :meth:`repro.rrr.store.RRRStore.key` exactly — this
        tuple *is* the substrate store's registry key, which is what
        makes "coalesced queries share one store" true by construction.
        """
        from repro.rrr.store import _normalize_entropy

        return (
            graph.fingerprint(),
            self.options.model,
            self.options.eliminate_sources,
            _normalize_entropy(self.entropy),
            self.options.n_jobs,
            int(chunk_sets),
            self.options.batch_size,
        )

    def result_key(self, graph: DirectedGraph, chunk_sets: int) -> ResultKey:
        """The tier-1 exact-cache address: coalescing key + answer shape."""
        return ResultKey(
            *self.coalesce_key(graph, chunk_sets),
            k=int(self.k),
            epsilon=float(self.epsilon),
            bounds=self.options.bounds,
        )


@dataclass
class QueryOutcome:
    """What the service returned for one query.

    ``cache_tier`` records how the answer was produced: ``"exact"``
    (tier-1 hit, zero work), ``"prefix"`` (the substrate's cached RRR
    prefix covered the whole run — only selection re-ran), or
    ``"cold"`` (new RRR sets were sampled).  ``sampled_sets`` counts the
    sets this query added to its substrate (0 for both hit tiers).

    ``degraded`` marks answers served from cache while the stream's
    circuit breaker was open: correct for *some* recent query on the
    stream, but possibly stale or computed at a relaxed epsilon
    (``result.epsilon`` tells which).  Non-degraded outcomes keep the
    bit-identical-to-``run_imm`` contract.
    """

    query: InfluenceQuery
    result: "IMMResult"
    cache_tier: str
    sampled_sets: int
    seconds: float
    coalesced: bool = False
    degraded: bool = False

    @property
    def seeds(self):
        """The selected seed vertices (convenience passthrough)."""
        return self.result.seeds
