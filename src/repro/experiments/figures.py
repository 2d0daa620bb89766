"""Drivers regenerating the paper's figures (3 through 8).

Every function returns a :class:`FigureResult` whose ``render()`` prints
the series the corresponding figure plots; EXPERIMENTS.md records how the
measured shapes compare with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.encoding.csc_encoded import encode_graph
from repro.experiments.config import ExperimentConfig
from repro.experiments.rendering import Series, format_series, format_table
from repro.experiments.runner import compare_engines
from repro.gpu.cost_model import CostModel
from repro.imm.imm import run_imm
from repro.imm.coverage import CoverageIndex
from repro.imm.options import IMMOptions
from repro.imm.seed_selection import select_seeds
from repro.rrr import get_sampler
from repro.utils.rng import spawn_generators


@dataclass
class FigureResult:
    """Structured figure data plus its text rendering."""

    figure: str
    title: str
    series: list[Series]
    xlabel: str
    ylabel: str
    notes: str = ""

    def render(self) -> str:
        text = format_series(self.series, f"[{self.figure}] {self.title}", self.xlabel, self.ylabel)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


# ---------------------------------------------------------------------------
# Figure 3 — thread-based vs warp-based selection scan as N grows (k = 100)
# ---------------------------------------------------------------------------
def fig3_scan_scaling(
    config: ExperimentConfig | None = None,
    dataset: str = "SE",
    n_values: tuple[int, ...] = (1_000, 4_000, 16_000, 64_000, 256_000),
    k: int = 100,
) -> FigureResult:
    """Selection-phase cycles of both scan strategies vs the number of
    RRR sets N.  One large sample is drawn once and prefix-truncated to
    each sweep point so both strategies see identical workloads."""
    config = config or ExperimentConfig.from_env()
    graph = config.graph(dataset, "IC")
    sampler = get_sampler("IC")
    collection, _ = sampler(graph, max(n_values), rng=config.seed)
    cost = CostModel(config.device())
    k_eff = min(k, graph.n)

    # one inverted index over the full sample serves every prefix point
    # (postings are clipped to each prefix) instead of re-deriving the
    # vertex->position map per sweep point
    index = CoverageIndex.build(collection)
    thread = Series("thread-based")
    warp = Series("warp-based")
    for n_sets in n_values:
        sel = select_seeds(collection.prefix(n_sets), k_eff, index=index)
        thread.add(n_sets, cost.thread_scan_cycles(sel.stats, encoded=True))
        warp.add(n_sets, cost.warp_scan_cycles(sel.stats, encoded=False))
    return FigureResult(
        figure="Fig. 3",
        title=f"Scan-strategy scalability on {dataset} (k={k_eff})",
        series=[thread, warp],
        xlabel="N (RRR sets)",
        ylabel="selection cycles",
        notes="paper shape: warp-based wins at small N, thread-based overtakes as N grows",
    )


# ---------------------------------------------------------------------------
# §4.2 — CSC memory saved by log encoding (text experiment)
# ---------------------------------------------------------------------------
def sec42_csc_memory(config: ExperimentConfig | None = None) -> FigureResult:
    """Percent of CSC bytes saved per dataset, under the paper's
    conservative accounting (integer arrays packed, float weights raw)
    and under the degree-implicit encoding eIM actually runs with."""
    config = config or ExperimentConfig.from_env()
    conservative = Series("packed ints, raw weights (%)")
    implicit = Series("degree-implicit weights (%)")
    for code in config.datasets:
        graph = config.graph(code, "IC")
        raw = graph.nbytes_csc()
        enc_cons = encode_graph(graph, weight_mode="raw32")
        enc_impl = encode_graph(graph, weight_mode="auto")
        conservative.add(code, 100.0 * (1.0 - enc_cons.nbytes_packed() / raw))
        implicit.add(code, 100.0 * (1.0 - enc_impl.nbytes_packed() / raw))
    return FigureResult(
        figure="§4.2",
        title="Network-data memory saved by log encoding",
        series=[conservative, implicit],
        xlabel="dataset",
        ylabel="% of raw CSC bytes saved",
        notes="paper: up to 28.8% for small networks, >14% for large (conservative accounting)",
    )


# ---------------------------------------------------------------------------
# Figure 4 — memory saved storing RRR sets + network data
# ---------------------------------------------------------------------------
def fig4_log_encoding_memory(
    config: ExperimentConfig | None = None,
    k: int | None = None,
    epsilon: float | None = None,
) -> FigureResult:
    """Total memory saved by log encoding over both components, measured
    on real eIM runs under IC."""
    config = config or ExperimentConfig.from_env()
    k = k or config.default_k
    epsilon = epsilon or config.default_epsilon
    saved = Series("total saved (%)")
    rrr_saved = Series("RRR store saved (%)")
    for code in config.datasets:
        graph = config.graph(code, "IC")
        result = run_imm(
            graph, min(k, graph.n), epsilon, rng=config.seed,
            options=IMMOptions(model="IC", eliminate_sources=True,
                               bounds=config.bounds(sweep=True)),
        )
        coll = result.collection
        raw = coll.nbytes_raw() + graph.nbytes_csc()
        packed = coll.nbytes_packed() + encode_graph(graph).nbytes_packed()
        saved.add(code, 100.0 * (1.0 - packed / raw))
        rrr_saved.add(code, 100.0 * (1.0 - coll.nbytes_packed() / coll.nbytes_raw()))
    return FigureResult(
        figure="Fig. 4",
        title=f"Memory saved by log encoding (IC, k={k}, eps={epsilon})",
        series=[saved, rrr_saved],
        xlabel="dataset",
        ylabel="% bytes saved",
        notes="paper: up to 54% on small networks, >=16.6% on large ones",
    )


# ---------------------------------------------------------------------------
# Figures 5 and 6 — source-vertex elimination: speedup and memory impact
# ---------------------------------------------------------------------------
def _source_elim_runs(config: ExperimentConfig, k: int, epsilon: float):
    """For each dataset: eIM cycles and R size with and without §3.4."""
    from repro.engines import EIMEngine

    rows = []
    for code in config.datasets:
        graph = config.graph(code, "IC")
        k_eff = min(k, graph.n)
        streams = spawn_generators(config.seed, 2)
        sweep_options = IMMOptions(model="IC", bounds=config.bounds(sweep=True))
        with_elim = EIMEngine(eliminate_sources=True).run(
            graph, k_eff, epsilon, rng=streams[0],
            device_spec=config.device(), options=sweep_options,
        )
        without = EIMEngine(eliminate_sources=False).run(
            graph, k_eff, epsilon, rng=streams[1],
            device_spec=config.device(), options=sweep_options,
        )
        singleton_pct = 100.0 * without.imm.trace.raw_singleton_fraction
        rows.append((code, singleton_pct, with_elim, without))
    return rows


def fig5_source_elim_speedup(
    config: ExperimentConfig | None = None,
    k: int | None = None,
    epsilon: float | None = None,
) -> FigureResult:
    """Speedup from source elimination vs the singleton-set percentage."""
    config = config or ExperimentConfig.from_env()
    k = k or config.default_k
    epsilon = epsilon or config.default_epsilon
    singles = Series("% singleton sets")
    speedup = Series("speedup (no-elim / elim)")
    for code, singleton_pct, with_elim, without in sorted(
        _source_elim_runs(config, k, epsilon), key=lambda r: r[1]
    ):
        singles.add(code, singleton_pct)
        speedup.add(code, without.total_cycles / with_elim.total_cycles)
    return FigureResult(
        figure="Fig. 5",
        title=f"Source-elimination speedup vs singleton fraction (IC, k={k}, eps={epsilon})",
        series=[singles, speedup],
        xlabel="dataset (sorted by singleton %)",
        ylabel="speedup",
        notes="paper shape: speedup grows with the fraction of source-only sets",
    )


def fig6_source_elim_memory(
    config: ExperimentConfig | None = None,
    k: int | None = None,
    epsilon: float | None = None,
) -> FigureResult:
    """Percent change in stored-R size when sources are eliminated."""
    config = config or ExperimentConfig.from_env()
    k = k or config.default_k
    epsilon = epsilon or config.default_epsilon
    singles = Series("% singleton sets")
    change = Series("R memory change (%)")
    for code, singleton_pct, with_elim, without in sorted(
        _source_elim_runs(config, k, epsilon), key=lambda r: r[1]
    ):
        singles.add(code, singleton_pct)
        change.add(
            code,
            100.0 * (with_elim.rrr_store_bytes - without.rrr_store_bytes)
            / max(without.rrr_store_bytes, 1),
        )
    return FigureResult(
        figure="Fig. 6",
        title=f"R-store memory change from source elimination (IC, k={k}, eps={epsilon})",
        series=[singles, change],
        xlabel="dataset (sorted by singleton %)",
        ylabel="% change (negative = saved)",
        notes="paper: average -8.65%, biggest savings above 50% singletons, a few slightly positive",
    )


# ---------------------------------------------------------------------------
# Figures 7 and 8 — eIM speedups over cuRipples and gIM
# ---------------------------------------------------------------------------
def _speedup_figure(config: ExperimentConfig, model: str, figure: str) -> FigureResult:
    vs_gim = Series("speedup vs gIM")
    vs_cur = Series("speedup vs cuRipples")
    for code in config.datasets:
        row = compare_engines(
            code, config.default_k, config.default_epsilon, model, config,
            include_curipples=True, bounds=config.bounds(sweep=True),
        )
        vs_gim.add(code, row.speedup_vs_gim)
        vs_cur.add(code, row.speedup_vs_curipples)
    return FigureResult(
        figure=figure,
        title=f"eIM speedups under {model} (k={config.default_k}, eps={config.default_epsilon})",
        series=[vs_gim, vs_cur],
        xlabel="dataset (ascending size)",
        ylabel="speedup (x)",
        notes="paper shape: eIM beats both nearly everywhere; the cuRipples gap widens with size",
    )


def fig7_ic_speedups(config: ExperimentConfig | None = None) -> FigureResult:
    """eIM vs cuRipples and gIM under IC (k=50, eps=0.05)."""
    return _speedup_figure(config or ExperimentConfig.from_env(), "IC", "Fig. 7")


def fig8_lt_speedups(config: ExperimentConfig | None = None) -> FigureResult:
    """eIM vs cuRipples and gIM under LT (k=50, eps=0.05)."""
    return _speedup_figure(config or ExperimentConfig.from_env(), "LT", "Fig. 8")
