"""Engine comparison plumbing shared by all table/figure drivers.

One vanilla IMM run (no source elimination) is shared between gIM and
cuRipples — their sampling semantics are identical, so duplicating it
would only add noise — while eIM runs its own (source elimination changes
theta).  Repeats re-run everything with fresh derived seeds and average
the modeled cycle counts, mirroring the paper's 10-run averaging.

Two cross-cell optimizations ride on :class:`ExperimentConfig`:

* ``n_jobs > 1`` fans all sampling out over one resident
  :class:`~repro.rrr.parallel.SamplerPool` per graph, shared by every
  engine and every cell (the graph ships to the workers once);
* ``warm_start=True`` replaces per-cell resampling with the warm-start
  :class:`~repro.rrr.store.RRRStore`: each repeat keeps two streams per
  (graph, model) — one with source elimination for eIM, one vanilla for
  gIM/cuRipples — and every cell tops the cached sample up to its theta,
  so a whole k/epsilon sweep costs O(max theta) sampling instead of
  O(sum theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engines import CuRipplesEngine, EIMEngine, GIMEngine
from repro.engines.base import EngineResult
from repro.experiments.config import ExperimentConfig
from repro.gpu.device import DeviceSpec
from repro.imm.bounds import BoundsConfig
from repro.imm.imm import run_imm
from repro.imm.options import IMMOptions
from repro.utils.rng import spawn_generators


def average_results(results: list[EngineResult]) -> EngineResult:
    """Average modeled cycles over repeats; OOM in any repeat marks the cell.

    Non-additive fields (seeds, breakdowns, the IMM handle) are taken
    from the first repeat.
    """
    first = results[0]
    if any(r.oom for r in results):
        ref = next(r for r in results if r.oom)
        return ref
    cycles = float(np.mean([r.total_cycles for r in results]))
    seconds = float(np.mean([r.seconds for r in results]))
    return EngineResult(
        engine=first.engine,
        model=first.model,
        k=first.k,
        epsilon=first.epsilon,
        seeds=first.seeds,
        oom=False,
        oom_detail="",
        total_cycles=cycles,
        seconds=seconds,
        peak_device_bytes=int(np.mean([r.peak_device_bytes for r in results])),
        rrr_store_bytes=int(np.mean([r.rrr_store_bytes for r in results])),
        theta=int(np.mean([r.theta for r in results])),
        coverage=float(np.mean([r.coverage for r in results])),
        breakdown=first.breakdown,
        imm=first.imm,
    )


@dataclass
class ComparisonRow:
    """All engines' (averaged) results on one workload cell."""

    dataset: str
    model: str
    k: int
    epsilon: float
    eim: EngineResult
    gim: EngineResult
    curipples: Optional[EngineResult] = None

    @property
    def speedup_vs_gim(self) -> float:
        return self.eim.speedup_over(self.gim)

    @property
    def speedup_vs_curipples(self) -> float:
        if self.curipples is None:
            return float("nan")
        return self.eim.speedup_over(self.curipples)

    def table_cell_vs_gim(self) -> str:
        """Paper-style cell: speedup, or ``OOM/<eIM seconds>`` when gIM
        ran out of memory (Tables 2-5 footnote convention)."""
        if self.gim.oom and not self.eim.oom:
            return f"OOM/{self.eim.seconds:.2g}"
        if self.eim.oom:
            return "OOM(eIM)"
        return f"{self.speedup_vs_gim:.2f}"


def _warm_stores(graph, model, rep, config, pool):
    """The two per-repeat warm-start streams: (eIM, vanilla).

    Entropy is a pure function of (seed, repeat, elimination flag); the
    graph/model identity lives in the store key itself, so every cell of
    a sweep — any k, any epsilon — lands on the same two streams.  With
    ``config.checkpoint_dir`` set, both streams persist their chunks to
    disk, so a killed sweep resumes where it left off.
    """
    from repro.rrr.store import shared_store

    def make(eliminate: bool):
        return shared_store(
            graph,
            model=model,
            eliminate_sources=eliminate,
            entropy=(config.seed, rep, int(eliminate)),
            n_jobs=config.n_jobs,
            pool=pool,
            resilience=config.resilience(),
            data_plane=config.data_plane,
            visited_mode=config.visited_mode,
        )

    return make(True), make(False)


def _host_oom_result(
    engine: str, model: str, k: int, epsilon: float, exc: BaseException
) -> EngineResult:
    """An ``oom=True`` cell for a *host-side* ``MemoryError``.

    The paper's tables report OOM cells whenever an engine's run dies of
    memory exhaustion; a ``MemoryError`` raised during host sampling is
    the same failure one level down, so it renders the same
    ``OOM/<seconds>`` cell instead of crashing the whole sweep.
    """
    return EngineResult(
        engine=engine,
        model=model.upper(),
        k=k,
        epsilon=epsilon,
        seeds=None,
        oom=True,
        oom_detail=f"host OOM during sampling: {exc}",
        total_cycles=float("nan"),
        seconds=float("nan"),
        peak_device_bytes=0,
        rrr_store_bytes=0,
        theta=0,
        coverage=float("nan"),
    )


def compare_engines(
    code: str,
    k: int,
    epsilon: float,
    model: str,
    config: ExperimentConfig,
    include_curipples: bool = True,
    device: Optional[DeviceSpec] = None,
    bounds: Optional[BoundsConfig] = None,
    pool=None,
) -> ComparisonRow:
    """Run eIM, gIM (and optionally cuRipples) on one workload cell."""
    graph = config.graph(code, model)
    device = device or config.device()
    bounds = bounds or config.bounds()
    k_eff = min(k, graph.n)

    eim_engine = EIMEngine()
    gim_engine = GIMEngine()
    cur_engine = CuRipplesEngine() if include_curipples else None

    if pool is None:
        pool = config.sampler_pool(graph)

    eim_runs, gim_runs, cur_runs = [], [], []
    streams = spawn_generators(config.seed * 1_000_003 + k_eff * 13 + int(epsilon * 1e6),
                               config.repeats * 2)
    resilience = config.resilience()
    for rep in range(config.repeats):
        rng_eim, rng_vanilla = streams[2 * rep], streams[2 * rep + 1]
        if config.warm_start:
            eim_store, vanilla_store = _warm_stores(graph, model, rep, config, pool)
        else:
            eim_store = vanilla_store = None
        # a host-side MemoryError during sampling is the same failure as
        # DeviceOOMError one level up: render the paper's OOM cell, keep
        # the sweep alive
        try:
            eim_runs.append(
                eim_engine.run(graph, k_eff, epsilon, rng=rng_eim,
                               device_spec=device, pool=pool, store=eim_store,
                               options=IMMOptions(
                                   model=model, bounds=bounds,
                                   n_jobs=config.n_jobs,
                                   resilience=resilience,
                                   visited_mode=config.visited_mode,
                               ))
            )
        except MemoryError as exc:
            eim_runs.append(_host_oom_result("eim", model, k_eff, epsilon, exc))
        try:
            vanilla = run_imm(
                graph, k_eff, epsilon, rng=rng_vanilla,
                options=IMMOptions(model=model, eliminate_sources=False,
                                   bounds=bounds, n_jobs=config.n_jobs,
                                   resilience=resilience,
                                   data_plane=config.data_plane,
                                   visited_mode=config.visited_mode),
                pool=pool, store=vanilla_store,
            )
        except MemoryError as exc:
            gim_runs.append(_host_oom_result("gim", model, k_eff, epsilon, exc))
            if cur_engine is not None:
                cur_runs.append(
                    _host_oom_result("curipples", model, k_eff, epsilon, exc)
                )
            continue
        gim_runs.append(
            gim_engine.run(graph, k_eff, epsilon, device_spec=device,
                           imm_result=vanilla,
                           options=IMMOptions(model=model, bounds=bounds))
        )
        if cur_engine is not None:
            cur_runs.append(
                cur_engine.run(graph, k_eff, epsilon, device_spec=device,
                               imm_result=vanilla,
                               options=IMMOptions(model=model, bounds=bounds))
            )
    return ComparisonRow(
        dataset=code,
        model=model.upper(),
        k=k_eff,
        epsilon=epsilon,
        eim=average_results(eim_runs),
        gim=average_results(gim_runs),
        curipples=average_results(cur_runs) if cur_runs else None,
    )
