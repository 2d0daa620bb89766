"""Per-set sampling traces consumed by the simulated-GPU cost models.

A trace records, for every *attempted* RRR set, the work its traversal
performed (vertices activated, BFS rounds / walk steps, edges examined).
Engines charge traversal cycles for all attempted sets but storage and
selection cost only for the kept ones — exactly the accounting the
source-elimination heuristic changes (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.resilience.report import ResilienceReport


@dataclass
class SampleTrace:
    """Work statistics for one sampling run.

    All per-set arrays are aligned over *attempted* sets; ``kept_mask``
    marks which of those were stored (always all of them unless source
    elimination discarded emptied singletons).
    """

    sizes: np.ndarray  # stored size per attempted set (post-elimination)
    rounds: np.ndarray  # BFS depth (IC) or walk length (LT) per attempted set
    edges_examined: np.ndarray  # in-edges probed per attempted set
    kept_mask: np.ndarray  # bool, True where the set was stored
    raw_singletons: int  # sets of size 1 before source elimination
    sources: np.ndarray  # source vertex per attempted set
    #: recovery tally of the supervised fan-out that produced this trace
    #: (None for in-process sampling, which has nothing to recover from)
    resilience: "Optional[ResilienceReport]" = None

    @property
    def attempted(self) -> int:
        return int(self.kept_mask.size)

    @property
    def kept(self) -> int:
        return int(self.kept_mask.sum())

    @property
    def discarded_empty(self) -> int:
        return self.attempted - self.kept

    @property
    def raw_singleton_fraction(self) -> float:
        """Fraction of attempted sets that were singletons pre-elimination
        (the x-axis of the paper's Fig. 5)."""
        return self.raw_singletons / self.attempted if self.attempted else 0.0

    def total_edges_examined(self) -> int:
        return int(self.edges_examined.sum())

    def total_stored_elements(self) -> int:
        return int(self.sizes[self.kept_mask].sum())

    def merged_with(self, other: "SampleTrace") -> "SampleTrace":
        """Concatenate two traces (successive sampling phases of IMM)."""
        from repro.resilience.report import merge_reports

        return SampleTrace(
            sizes=np.concatenate([self.sizes, other.sizes]),
            rounds=np.concatenate([self.rounds, other.rounds]),
            edges_examined=np.concatenate([self.edges_examined, other.edges_examined]),
            kept_mask=np.concatenate([self.kept_mask, other.kept_mask]),
            raw_singletons=self.raw_singletons + other.raw_singletons,
            sources=np.concatenate([self.sources, other.sources]),
            resilience=merge_reports(self.resilience, other.resilience),
        )


def empty_trace() -> SampleTrace:
    """A zero-length trace (identity for :meth:`SampleTrace.merged_with`)."""
    z = np.empty(0, dtype=np.int64)
    return SampleTrace(
        sizes=z,
        rounds=z.copy(),
        edges_examined=z.copy(),
        kept_mask=np.empty(0, dtype=bool),
        raw_singletons=0,
        sources=z.copy(),
    )


def publish_counters(trace: SampleTrace, sets_sampled: int) -> None:
    """Publish one sampling run's ``rrr.*`` counters from its trace."""
    if not obs.enabled():
        return
    obs.counter_add("rrr.sets_attempted", trace.attempted)
    obs.counter_add("rrr.sets_kept", trace.kept)
    obs.counter_add("rrr.sets_discarded", trace.discarded_empty)
    obs.counter_add("rrr.edges_examined", trace.total_edges_examined())
    obs.counter_add("rrr.sets_sampled", int(sets_sampled))
