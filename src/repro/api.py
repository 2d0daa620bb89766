"""repro.api — the blessed, stability-guaranteed public surface.

Everything importable from this module (equivalently, from the top-level
``repro`` package, which re-exports it) is covered by the project's
compatibility promise: signatures and semantics change only with a
major release, whose removals the README lists ("Removed in 2.0").
Anything reached by
importing a submodule directly — ``repro.rrr.parallel``,
``repro.service.scheduler``, ``repro.imm.statistics``, engine internals
— is an implementation detail that may change between releases without
notice.  ``docs/architecture.md`` ("Public API and stability") records
the split.

The surface, by layer:

* **one-shot solving** — :func:`~repro.imm.imm.run_imm` in its one
  call shape ``run_imm(graph, k, epsilon, rng=..., options=...)`` with
  :class:`~repro.imm.options.IMMOptions` /
  :class:`~repro.imm.bounds.BoundsConfig` /
  :class:`~repro.resilience.options.ResilienceOptions`, returning an
  :class:`~repro.imm.imm.IMMResult`;
* **serving** — :class:`~repro.service.service.InfluenceService`
  accepting :class:`~repro.service.query.InfluenceQuery` under
  :class:`~repro.service.options.ServiceOptions`, returning
  :class:`~repro.service.query.QueryOutcome` futures, raising
  :class:`~repro.utils.errors.ServiceOverloadedError` under load;
* **engines** — the four simulated-device engines, all speaking the
  same ``Engine.run(graph, k, epsilon, options=IMMOptions(...))``
  contract;
* **data** — graph loading, generation, and weighting.

Operational control (memory budgets, data planes, kernel modes,
resilience) rides on the option bundles rather than on extra entry
points: ``IMMOptions(memory_budget_mb=, data_plane=, visited_mode=,
resilience=)`` and ``ServiceOptions(memory_budget_mb=,
shed_on_memory_pressure=, ...)`` — every knob, env var, and CLI flag is
tabulated in ``docs/configuration.md``.  All operational knobs share
one contract: results are bit-identical across their settings.
"""

import repro.encoding  # noqa: F401 — break the encoding<->rrr import cycle
from repro.engines.base import Engine, EngineResult
from repro.engines.curipples import CuRipplesEngine
from repro.engines.eim import EIMEngine
from repro.engines.gim import GIMEngine
from repro.engines.ripples_cpu import RipplesCPUEngine
from repro.graphs.csc import DirectedGraph
from repro.graphs.datasets import DATASETS, load_dataset
from repro.graphs.io import load_edgelist
from repro.graphs.weights import assign_ic_weights, assign_lt_weights
from repro.imm.bounds import BoundsConfig
from repro.imm.imm import IMMResult, run_imm
from repro.imm.options import IMMOptions
from repro.resilience import Deadline, ResilienceOptions, ResilienceReport
from repro.service.options import ServiceOptions
from repro.service.query import InfluenceQuery, QueryOutcome
from repro.service.service import InfluenceService
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)

__all__ = [
    # one-shot solving
    "run_imm",
    "IMMOptions",
    "IMMResult",
    "BoundsConfig",
    "ResilienceOptions",
    "ResilienceReport",
    # serving
    "InfluenceService",
    "InfluenceQuery",
    "QueryOutcome",
    "ServiceOptions",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "Deadline",
    # engines
    "Engine",
    "EngineResult",
    "EIMEngine",
    "GIMEngine",
    "CuRipplesEngine",
    "RipplesCPUEngine",
    # data
    "DirectedGraph",
    "DATASETS",
    "load_dataset",
    "load_edgelist",
    "assign_ic_weights",
    "assign_lt_weights",
    # errors
    "ReproError",
    "ValidationError",
]
