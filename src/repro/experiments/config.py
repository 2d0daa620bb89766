"""Experiment configuration: scale, device, bounds and dataset plumbing.

The paper runs 16 SNAP networks on a 48 GB RTX A6000.  The default
configuration reproduces every experiment at ``tiny`` scale (~1/1000 of
paper sizes) on a proportionally scaled device, with the IMM bounds
scaled by ``sweep_theta_scale`` inside the big k/epsilon sweeps so the
whole suite stays CI-sized.  Environment overrides:

========================  ============================================
``REPRO_SCALE``            ``tiny`` (default) / ``small`` / ``paper``
``REPRO_REPEATS``          averaging repeats per cell (default 1)
``REPRO_DATASETS``         comma-separated subset of table codes
``REPRO_THETA_SCALE``      override for both theta scales
``REPRO_JOBS``             sampler worker processes (default 1)
``REPRO_WARM_START``       ``1`` enables warm-start RRR reuse in sweeps
``REPRO_TIMEOUT``          per-round sampling timeout in seconds
``REPRO_RETRIES``          sampling retry budget per job (default 2)
``REPRO_CHECKPOINT_DIR``   base dir for warm-start RRR checkpoints
``REPRO_FAULTS``           fault-injection plan (repro.resilience.faults)
``REPRO_DATA_PLANE``       ``shm`` (default where available) / ``pickle``
``REPRO_VISITED_MODE``     ``auto`` (default) / ``sorted`` / ``bitset``
========================  ============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.graphs.csc import DirectedGraph
from repro.graphs.datasets import DATASETS, get_dataset
from repro.graphs.weights import assign_ic_weights, assign_lt_weights
from repro.gpu.device import RTX_A6000, DeviceSpec
from repro.imm.bounds import BoundsConfig
from repro.utils.errors import ValidationError

ALL_CODES = tuple(DATASETS)

#: device scaling per dataset scale: memory and SM count shrink together
#: with the workloads (see DeviceSpec.scaled); the "pressure" divisor is
#: the tighter memory budget the capacity-sensitive Tables 2-5 run under,
#: calibrated so the paper's OOM pattern (deep-cascade networks first)
#: appears at the same workload-to-capacity ratios.
_SCALE_DEVICE = {
    "tiny": (1000.0, 1000.0),
    "small": (100.0, 100.0),
    "paper": (1.0, 1.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment campaign."""

    scale: str = "tiny"
    repeats: int = 1
    seed: int = 2025
    datasets: tuple[str, ...] = ALL_CODES
    default_k: int = 50
    default_epsilon: float = 0.05
    theta_scale: float = 1.0
    #: extra bound scaling inside the k/epsilon sweep tables (25 cells
    #: per table x 16 datasets; full bounds there would take hours)
    sweep_theta_scale: float = 0.25
    #: memory-budget divisor for the capacity-pressure experiments,
    #: relative to the 48 GB A6000.  Calibrated (see EXPERIMENTS.md) so
    #: that at tiny scale gIM's raw RRR store exhausts the device on the
    #: largest workloads while eIM's packed store always fits — the
    #: paper's OOM mechanism, with the hog datasets shifted to the
    #: largest synthetics because vertex-count floors flatten the small
    #: ones
    pressure_memory_divisor: float = 6400.0
    #: worker processes for RRR sampling (1 = fully in-process); shared
    #: resident pools are keyed per graph, so a whole sweep reuses them
    n_jobs: int = 1
    #: reuse RRR samples across the cells of a sweep via the warm-start
    #: store: each (k, epsilon) cell tops an existing sample up to its
    #: theta instead of resampling (sound by the IMM martingale analysis)
    warm_start: bool = False
    #: per-round sampling timeout in seconds (None = wait forever); see
    #: ResilienceOptions.job_timeout
    job_timeout: Optional[float] = None
    #: sampling retry budget per job before serial degradation
    max_retries: int = 2
    #: base directory for warm-start RRR checkpoints (None = no
    #: persistence); each stream nests a key-digest subdirectory, so a
    #: killed sweep re-run with the same dir resumes from disk
    checkpoint_dir: Optional[str] = None
    #: parent<->worker data plane: "shm" (zero-copy shared graph +
    #: log-encoded IPC) or "pickle"; None defers to REPRO_DATA_PLANE,
    #: then to "shm" where OS shared memory works.  Bit-identical output
    #: either way.
    data_plane: Optional[str] = None
    #: sampler visited bookkeeping ("auto" / "sorted" / "bitset"); None
    #: defers to REPRO_VISITED_MODE, then "auto".  Bit-identical output
    #: in every mode
    visited_mode: Optional[str] = None

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentConfig":
        """Build a config from ``REPRO_*`` environment variables."""
        kwargs: dict = {}
        if "REPRO_SCALE" in os.environ:
            kwargs["scale"] = os.environ["REPRO_SCALE"]
        if "REPRO_REPEATS" in os.environ:
            kwargs["repeats"] = int(os.environ["REPRO_REPEATS"])
        if "REPRO_DATASETS" in os.environ:
            kwargs["datasets"] = tuple(
                c.strip().upper() for c in os.environ["REPRO_DATASETS"].split(",") if c.strip()
            )
        if "REPRO_THETA_SCALE" in os.environ:
            ts = float(os.environ["REPRO_THETA_SCALE"])
            kwargs["theta_scale"] = ts
            kwargs["sweep_theta_scale"] = ts
        if "REPRO_JOBS" in os.environ:
            kwargs["n_jobs"] = int(os.environ["REPRO_JOBS"])
        if "REPRO_WARM_START" in os.environ:
            kwargs["warm_start"] = os.environ["REPRO_WARM_START"].strip().lower() in (
                "1", "true", "yes", "on",
            )
        if "REPRO_TIMEOUT" in os.environ:
            kwargs["job_timeout"] = float(os.environ["REPRO_TIMEOUT"])
        if "REPRO_RETRIES" in os.environ:
            kwargs["max_retries"] = int(os.environ["REPRO_RETRIES"])
        if "REPRO_CHECKPOINT_DIR" in os.environ:
            kwargs["checkpoint_dir"] = os.environ["REPRO_CHECKPOINT_DIR"]
        if "REPRO_DATA_PLANE" in os.environ:
            kwargs["data_plane"] = os.environ["REPRO_DATA_PLANE"]
        if "REPRO_VISITED_MODE" in os.environ:
            kwargs["visited_mode"] = os.environ["REPRO_VISITED_MODE"]
        kwargs.update(overrides)
        return cls(**kwargs)

    def __post_init__(self):
        if self.scale not in _SCALE_DEVICE:
            raise ValidationError(f"unknown scale {self.scale!r}")
        for code in self.datasets:
            get_dataset(code)  # validates
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if self.n_jobs < 1:
            raise ValidationError("n_jobs must be >= 1")
        if self.data_plane is not None and str(
            self.data_plane
        ).strip().lower() not in ("pickle", "shm"):
            raise ValidationError(
                f"unknown data plane {self.data_plane!r}; "
                "choose 'pickle' or 'shm' (or None for the default)"
            )
        from repro.kernels import resolve_visited_mode

        if self.visited_mode is not None:
            object.__setattr__(
                self, "visited_mode", resolve_visited_mode(self.visited_mode)
            )
        self.resilience()  # validates job_timeout / max_retries eagerly

    # -- derived pieces --------------------------------------------------------
    def device(self, pressure: bool = False) -> DeviceSpec:
        """The simulated device paired with this scale.

        ``pressure=True`` returns the tighter-memory variant used by the
        OOM-sensitive sweeps (compute geometry unchanged).
        """
        mem_div, sm_div = _SCALE_DEVICE[self.scale]
        if pressure:
            mem_div = max(mem_div, self.pressure_memory_divisor)
        return RTX_A6000.scaled(mem_div, sm_div)

    def bounds(self, sweep: bool = False) -> BoundsConfig:
        """IMM bound configuration (sweep tables use the lighter scaling)."""
        return BoundsConfig(
            theta_scale=self.sweep_theta_scale if sweep else self.theta_scale
        )

    def resilience(self):
        """The :class:`~repro.resilience.options.ResilienceOptions` this
        config's sampling runs under (timeout, retries, checkpointing)."""
        from repro.resilience.options import ResilienceOptions

        return ResilienceOptions(
            job_timeout=self.job_timeout,
            max_retries=self.max_retries,
            checkpoint_dir=self.checkpoint_dir,
        )

    def sampler_pool(self, graph: DirectedGraph):
        """The shared resident :class:`~repro.rrr.parallel.SamplerPool`
        for ``graph`` under this config (``None`` when ``n_jobs == 1``)."""
        if self.n_jobs == 1:
            return None
        from repro.rrr.parallel import shared_pool

        return shared_pool(graph, self.n_jobs, data_plane=self.data_plane)

    def graph(self, code: str, model: str = "IC") -> DirectedGraph:
        """The weighted synthetic instance of dataset ``code`` (cached)."""
        model = model.upper()
        key = (code.upper(), self.scale, self.seed, model)
        cached = _GRAPH_CACHE.get(key)
        if cached is not None:
            return cached
        base_key = (code.upper(), self.scale, self.seed)
        base = _BASE_CACHE.get(base_key)
        if base is None:
            base = get_dataset(code).generate(scale=self.scale, rng=self.seed)
            _BASE_CACHE[base_key] = base
        if model == "IC":
            weighted = assign_ic_weights(base)
        elif model == "LT":
            weighted = assign_lt_weights(base)
        else:
            raise ValidationError(f"unknown model {model!r}")
        _GRAPH_CACHE[key] = weighted
        return weighted


_BASE_CACHE: dict = {}
_GRAPH_CACHE: dict = {}
