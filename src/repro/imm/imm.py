"""The IMM driver: theta estimation, sampling, and seed selection (Alg. 1).

Follows Tang et al. 2015: a geometric search over guesses ``x = n / 2^i``
finds a lower bound ``LB`` on the optimum influence using ``lambda_prime``
-sized samples; the final sample size is ``theta = lambda_star / LB``.
RRR sets drawn during estimation are kept and topped up (the martingale
analysis is exactly what makes this reuse sound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.imm.bounds import BoundsConfig, adjusted_ell, lambda_prime, lambda_star
from repro.imm.coverage import CoverageIndex
from repro.imm.options import IMMOptions
from repro.imm.seed_selection import SelectionResult, select_seeds
from repro.obs.export import ProfileReport
from repro.resilience.deadline import active_deadline
from repro.rrr import get_sampler
from repro.rrr.collection import RRRCollection
from repro.rrr.trace import SampleTrace, empty_trace
from repro.utils.errors import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rrr.parallel import SamplerPool
    from repro.rrr.store import RRRStore


@dataclass
class PhaseStat:
    """Diagnostics for one estimation-phase iteration."""

    index: int
    x: float
    theta_i: int
    coverage_fraction: float
    influence_estimate: float
    passed: bool


@dataclass
class IMMResult:
    """Everything :func:`run_imm` produced, for inspection and cost models.

    Attributes
    ----------
    seeds:
        The selected seed vertices (always distinct), in selection order.
    selection:
        Per-iteration greedy statistics (coverage history, scan work).
    collection:
        The RRR-set sample selection ran on (a prefix view of the
        producing stream).
    trace:
        Per-set sampling work (traversal rounds, edges examined,
        kept/discarded attempts, resilience tally).
    theta:
        The final martingale sample size.
    lower_bound:
        The influence lower bound that terminated estimation.
    k / epsilon / model / eliminate_sources:
        The run's request, echoed back.
    phases:
        One :class:`PhaseStat` per estimation phase.
    profile:
        The :mod:`repro.obs` report when ``options.profile`` was set.
    options:
        The :class:`~repro.imm.options.IMMOptions` the run used.
    """

    seeds: np.ndarray
    selection: SelectionResult
    collection: RRRCollection
    trace: SampleTrace
    theta: int
    lower_bound: float
    k: int
    epsilon: float
    model: str
    eliminate_sources: bool
    phases: list[PhaseStat] = field(default_factory=list)
    profile: ProfileReport | None = None
    options: IMMOptions | None = None

    @property
    def coverage_fraction(self) -> float:
        return self.selection.coverage_fraction

    def influence_estimate(self) -> float:
        """Unbiased RIS estimator of the seed set's expected influence.

        Without elimination this is the classic ``n * F_R(S)``.  With
        source elimination (§3.4) the stored sets are conditioned on
        being non-empty, so coverage must be deflated by the empirical
        keep rate ``P(set survives)``, and each seed's guaranteed
        self-activation (no longer visible in coverage) added back.

        Note the *algorithm* — faithfully to the paper — feeds the
        unconditioned coverage into its theta stopping rule; that
        inflation is precisely the "quicker convergence ... fewer RRR
        sets" behaviour §3.4 reports, and the quality-parity tests
        confirm the selected seeds do not suffer for it.
        """
        base = self.collection.n * self.coverage_fraction
        if self.eliminate_sources:
            keep_rate = (
                self.trace.kept / self.trace.attempted if self.trace.attempted else 1.0
            )
            return base * keep_rate + self.k
        return base


def run_imm(
    graph: DirectedGraph,
    k: int,
    epsilon: float,
    *,
    rng=None,
    options: IMMOptions | None = None,
    pool: "SamplerPool | None" = None,
    store: "RRRStore | None" = None,
) -> IMMResult:
    """Run IMM end to end and return seeds plus full diagnostics.

    ``k`` is the seed-set size and ``epsilon`` the approximation
    parameter (smaller -> more RRR sets); every other knob — model,
    source elimination, bounds, batch size, worker count, profiling —
    is bundled in the frozen :class:`~repro.imm.options.IMMOptions`
    (``None`` means the defaults).  Everything after ``epsilon`` is
    keyword-only.

    With ``options.n_jobs > 1`` every sampling call fans out over a
    resident :class:`~repro.rrr.parallel.SamplerPool` (created once per
    graph and kept across phases and runs); pass ``pool=`` to share an
    explicit pool, e.g. between engines of one comparison.  Pass
    ``store=`` (a :class:`~repro.rrr.store.RRRStore`) to warm-start:
    sampling becomes prefix reads of the store's persistent stream, so
    consecutive runs with growing theta — a k-sweep — pay each RRR set
    once.  With a store the run's randomness comes from the store's
    entropy; ``rng`` is ignored for sampling.

    With ``options.profile`` live :mod:`repro.obs` collectors are
    installed for the duration of the run (unless the caller already
    installed some) and the resulting :class:`~repro.obs.ProfileReport`
    — per-phase spans plus sampler/selection metrics — is attached as
    ``IMMResult.profile``.
    """
    if options is None:
        options = IMMOptions()
    elif not isinstance(options, IMMOptions):
        raise ValidationError("options must be an IMMOptions instance")
    if graph.weights is None:
        raise ValidationError("run_imm requires a weighted graph (assign_*_weights)")
    if not 1 <= k <= graph.n:
        raise ValidationError(f"k must be in [1, n]={graph.n}, got {k}")
    check_probability(epsilon, "epsilon")
    if epsilon == 0.0:
        raise ValidationError("epsilon must be positive")
    if graph.n < 2:
        raise ValidationError("need at least two vertices")
    if store is not None:
        if store.graph.fingerprint() != graph.fingerprint():
            raise ValidationError("store was built for a different graph")
        if store.model != options.model:
            raise ValidationError(
                f"store samples {store.model}, options request {options.model}"
            )
        if store.eliminate_sources != options.eliminate_sources:
            raise ValidationError(
                "store and options disagree on eliminate_sources"
            )
    handle = None
    if options.profile and not obs.enabled():
        handle = obs.install()
    # a per-run memory budget pins the process governor for the run's
    # duration (tiering is process-global state); ExitStack keeps the
    # no-budget path allocation-free
    from contextlib import ExitStack

    from repro.memory.budget import budget_scope

    try:
        with ExitStack() as stack:
            if options.memory_budget_mb is not None:
                stack.enter_context(
                    budget_scope(int(options.memory_budget_mb * 1024 * 1024))
                )
            with obs.span("imm.run"):
                result = _run_imm_core(
                    graph, k, epsilon, rng, options, pool, store
                )
            if options.profile:
                result.profile = obs.report()
            return result
    finally:
        if handle is not None:
            obs.uninstall()


def _run_imm_core(
    graph: DirectedGraph,
    k: int,
    epsilon: float,
    rng,
    options: IMMOptions,
    pool: "SamplerPool | None" = None,
    store: "RRRStore | None" = None,
) -> IMMResult:
    bounds = options.bounds or BoundsConfig()
    model = options.model
    eliminate_sources = options.eliminate_sources
    gen = as_generator(rng)
    n = float(graph.n)

    if store is None and pool is None and options.n_jobs > 1:
        from repro.rrr.parallel import shared_pool

        pool = shared_pool(graph, options.n_jobs, data_plane=options.data_plane)

    if pool is not None:
        def draw(count: int) -> tuple[RRRCollection, SampleTrace]:
            return pool.sample(
                model, count, rng=gen,
                eliminate_sources=eliminate_sources,
                batch_size=options.batch_size,
                visited_mode=options.visited_mode,
                resilience=options.resilience,
            )
    else:
        sampler = get_sampler(model)

        def draw(count: int) -> tuple[RRRCollection, SampleTrace]:
            return sampler(
                graph, count, rng=gen,
                eliminate_sources=eliminate_sources,
                batch_size=options.batch_size,
                visited_mode=options.visited_mode,
            )

    ell = adjusted_ell(graph.n, bounds.ell)
    eps_prime = math.sqrt(2.0) * epsilon
    lam_prime = lambda_prime(graph.n, k, eps_prime, ell)

    parts: list[RRRCollection] = []
    trace = empty_trace()
    num_sets = 0
    phases: list[PhaseStat] = []
    lower_bound = 1.0
    max_phase = max(1, int(math.ceil(math.log2(max(n, 2.0)))) - 1)

    collection = RRRCollection(
        np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64), graph.n,
        sources=np.empty(0, dtype=np.int64),
    )
    # the selection-side analogue of the sampling amortization: one
    # inverted index, extended as the collection grows, shared by every
    # estimation phase and the final selection (and — via the store —
    # by every run of a k/ε sweep)
    cov_index = CoverageIndex(graph.n) if store is None else None

    def selection_index() -> CoverageIndex:
        if store is not None:
            return store.coverage_index()
        cov_index.extend_to(collection)
        return cov_index

    last_selection: SelectionResult | None = None
    deadline = active_deadline()
    for i in range(1, max_phase + 1):
        # cooperative deadline checkpoint: an expired or cancelled query
        # aborts between estimation phases (the sampling layers below
        # check at finer round/chunk granularity)
        if deadline is not None:
            deadline.check(f"IMM estimation phase {i}")
        with obs.span(f"imm.estimation.phase_{i}"):
            x = n / (2.0**i)
            theta_i = bounds.cap(lam_prime / x)
            if theta_i > num_sets:
                with obs.span("imm.sampling"):
                    if store is not None:
                        collection, trace = store.ensure(theta_i)
                    else:
                        extra, extra_trace = draw(theta_i - num_sets)
                        parts.append(extra)
                        trace = trace.merged_with(extra_trace)
                        collection = RRRCollection.concat(parts)
                        parts = [collection]
                num_sets = theta_i
            with obs.span("imm.selection"):
                sel = select_seeds(
                    collection, k,
                    index=selection_index(),
                )
            last_selection = sel
            influence_est = n * sel.coverage_fraction
            passed = influence_est >= (1.0 + eps_prime) * x
            phases.append(
                PhaseStat(
                    index=i,
                    x=x,
                    theta_i=theta_i,
                    coverage_fraction=sel.coverage_fraction,
                    influence_estimate=influence_est,
                    passed=passed,
                )
            )
        if passed:
            lower_bound = influence_est / (1.0 + eps_prime)
            break
    else:
        # no guess passed; fall back to the weakest admissible bound
        lower_bound = max(phases[-1].influence_estimate / (1.0 + eps_prime), 1.0)

    theta = bounds.cap(lambda_star(graph.n, k, epsilon, ell) / lower_bound)
    if theta > num_sets:
        if deadline is not None:
            deadline.check("IMM final sampling")
        with obs.span("imm.final_sampling"):
            if store is not None:
                collection, trace = store.ensure(theta)
            else:
                extra, extra_trace = draw(theta - num_sets)
                parts.append(extra)
                trace = trace.merged_with(extra_trace)
                collection = RRRCollection.concat(parts)
        last_selection = None
    final_theta = max(theta, num_sets)

    if last_selection is None:
        # the collection grew since the last estimation-phase selection
        with obs.span("imm.selection"):
            selection = select_seeds(
                collection, k,
                index=selection_index(),
            )
    else:
        # the last estimation phase already ran greedy on this exact
        # collection; re-running it would reproduce the result bit for bit
        selection = last_selection
    obs.gauge_max("rrr.flat_bytes", int(collection.flat.nbytes))
    obs.gauge_max("rrr.offsets_bytes", int(collection.offsets.nbytes))
    obs.gauge_set("imm.theta", final_theta)
    obs.gauge_set("imm.lower_bound", lower_bound)
    obs.counter_add("imm.phases", len(phases))
    return IMMResult(
        seeds=selection.seeds,
        selection=selection,
        collection=collection,
        trace=trace,
        theta=final_theta,
        lower_bound=lower_bound,
        k=k,
        epsilon=epsilon,
        model=model,
        eliminate_sources=eliminate_sources,
        phases=phases,
        options=options,
    )
