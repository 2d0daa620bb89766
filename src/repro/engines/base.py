"""Engine interface and shared run plumbing."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.gpu.cost_model import CostModel
from repro.gpu.device import DeviceSpec, SimulatedDevice
from repro.graphs.csc import DirectedGraph
from repro.imm.imm import IMMResult, run_imm
from repro.imm.options import IMMOptions
from repro.utils.errors import DeviceOOMError, ValidationError


@dataclass
class EngineResult:
    """Outcome of running one engine on one workload.

    ``oom=True`` mirrors the paper's ``OOM`` table entries: the run
    aborted on a device allocation failure and carries no timing.
    """

    engine: str
    model: str
    k: int
    epsilon: float
    seeds: Optional[np.ndarray]
    oom: bool
    oom_detail: str
    total_cycles: float
    seconds: float
    peak_device_bytes: int
    rrr_store_bytes: int
    theta: int
    coverage: float
    breakdown: dict[str, float] = field(default_factory=dict)
    imm: Optional[IMMResult] = None

    def speedup_over(self, other: "EngineResult") -> float:
        """``other.cycles / self.cycles`` — how much faster this run is."""
        if self.oom or other.oom or self.total_cycles <= 0:
            return float("nan")
        return other.total_cycles / self.total_cycles


class Engine(ABC):
    """One GPU IMM implementation: algorithmic core + device cost model.

    Subclasses implement the three phase hooks; :meth:`run` wires them to
    a fresh :class:`SimulatedDevice` and converts allocation failures
    into ``oom`` results.
    """

    name: str = "base"
    eliminate_sources: bool = False

    def run(
        self,
        graph: DirectedGraph,
        k: int,
        epsilon: float,
        *,
        rng=None,
        device_spec: DeviceSpec | None = None,
        imm_result: IMMResult | None = None,
        pool=None,
        store=None,
        options: IMMOptions | None = None,
    ) -> EngineResult:
        """Execute the engine and return seeds plus modeled device costs.

        The call shape — identical across all four engines and
        mirroring :func:`~repro.imm.imm.run_imm` — is
        ``engine.run(graph, k, epsilon, options=IMMOptions(...))``;
        everything after ``epsilon`` is keyword-only.
        ``options.eliminate_sources`` is overridden by
        the engine's own ``eliminate_sources`` — source elimination is
        an engine property (only eIM implements §3.4), not a workload
        knob.

        ``imm_result`` lets the harness share one algorithmic run between
        engines with identical sampling semantics (gIM and cuRipples);
        when supplied it must have been produced with this engine's
        ``eliminate_sources`` setting and the same workload.

        ``pool`` (a :class:`~repro.rrr.parallel.SamplerPool`) and
        ``store`` (a warm-start :class:`~repro.rrr.store.RRRStore`) are
        forwarded to :func:`run_imm` so all engines of one comparison
        share a single resident worker pool and, in sweeps, top up one
        cached sample instead of resampling.
        """
        if options is None:
            options = IMMOptions()
        elif not isinstance(options, IMMOptions):
            raise ValidationError("options must be an IMMOptions instance")
        # source elimination is part of what the engine *is*
        options = options.replace(eliminate_sources=self.eliminate_sources)
        if pool is not None:
            options = options.replace(n_jobs=pool.n_jobs)
        device = SimulatedDevice(self._adapt_spec(device_spec))
        cost = CostModel(device.spec)
        if imm_result is None:
            imm_result = run_imm(
                graph,
                k,
                epsilon,
                rng=rng,
                options=options,
                pool=pool,
                store=store,
            )
        try:
            with obs.span(f"engine.{self.name}.run"):
                self._load_graph(device, cost, graph)
                self._charge_sampling(device, cost, graph, imm_result)
                self._charge_selection(device, cost, graph, imm_result)
            self._publish_metrics(device)
        except DeviceOOMError as exc:
            obs.counter_add(f"engine.{self.name}.oom", 1)
            self._publish_metrics(device)
            return EngineResult(
                engine=self.name,
                model=options.model,
                k=k,
                epsilon=epsilon,
                seeds=None,
                oom=True,
                oom_detail=str(exc),
                total_cycles=float("nan"),
                seconds=float("nan"),
                peak_device_bytes=device.memory.peak,
                rrr_store_bytes=0,
                theta=imm_result.theta,
                coverage=float("nan"),
                breakdown=device.breakdown(),
                imm=imm_result,
            )
        return EngineResult(
            engine=self.name,
            model=options.model,
            k=k,
            epsilon=epsilon,
            seeds=imm_result.seeds,
            oom=False,
            oom_detail="",
            total_cycles=device.elapsed_cycles,
            seconds=device.elapsed_seconds(),
            peak_device_bytes=device.memory.peak,
            rrr_store_bytes=self._rrr_store_bytes(imm_result),
            theta=imm_result.theta,
            coverage=imm_result.coverage_fraction,
            breakdown=device.breakdown(),
            imm=imm_result,
        )

    def _publish_metrics(self, device: SimulatedDevice) -> None:
        """Publish the device's cycle breakdown and peak memory into the
        installed :mod:`repro.obs` registry (no-op when profiling is off)."""
        for category, cycles in device.breakdown().items():
            obs.gauge_set(f"engine.{self.name}.cycles.{category}", float(cycles))
        obs.gauge_set(f"engine.{self.name}.cycles.total", float(device.elapsed_cycles))
        obs.gauge_set(f"engine.{self.name}.peak_device_bytes", int(device.memory.peak))

    # -- phase hooks ---------------------------------------------------------
    def _adapt_spec(self, spec: DeviceSpec | None) -> DeviceSpec | None:
        """Hook for engines that do not run on the GPU proper (the CPU
        Ripples baseline swaps in host memory capacity)."""
        return spec

    @abstractmethod
    def _load_graph(self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph) -> None:
        """Allocate the on-device graph representation."""

    @abstractmethod
    def _charge_sampling(
        self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph, imm: IMMResult
    ) -> None:
        """Allocate RRR storage and charge the sampling kernels."""

    @abstractmethod
    def _charge_selection(
        self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph, imm: IMMResult
    ) -> None:
        """Charge the seed-selection kernels."""

    @abstractmethod
    def _rrr_store_bytes(self, imm: IMMResult) -> int:
        """Bytes this engine's RRR store occupies (Fig. 4 reporting)."""
