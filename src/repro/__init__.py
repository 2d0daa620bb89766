"""repro — reproduction of *eIM: GPU-Accelerated Efficient Influence
Maximization in Large-Scale Social Networks* (SC Workshops '25).

The package's stable surface lives in :mod:`repro.api` and is
re-exported here.  Quick start::

    from repro.api import IMMOptions, run_imm
    from repro.api import assign_ic_weights, load_dataset

    graph = assign_ic_weights(load_dataset("WV", scale="tiny", rng=0))
    result = run_imm(graph, k=10, epsilon=0.2,
                     options=IMMOptions(model="IC"))
    print(result.seeds, result.influence_estimate())

Serving::

    from repro.api import InfluenceService, InfluenceQuery

    service = InfluenceService()
    service.register_graph("wv", graph)
    outcome = service.query(InfluenceQuery("wv", k=10, epsilon=0.2))

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.api` — the blessed public surface (stability-guaranteed);
* :mod:`repro.graphs` — CSC graphs, generators, the 16-dataset registry;
* :mod:`repro.encoding` — log encoding (bit-packing) of arrays/graphs;
* :mod:`repro.diffusion` — forward IC/LT cascades, spread estimation;
* :mod:`repro.rrr` — reverse-reachable set sampling and storage;
* :mod:`repro.imm` — the IMM algorithm plus RIS and CELF baselines;
* :mod:`repro.gpu` — the simulated SIMT device and cost models;
* :mod:`repro.engines` — eIM, gIM, cuRipples on the simulated device;
* :mod:`repro.service` — the asynchronous influence-query serving tier
  (admission control, coalescing, multi-tier result cache);
* :mod:`repro.experiments` — drivers for every paper table and figure;
* :mod:`repro.obs` — span tracing, metrics, and profile exporters
  (no-op unless installed; see ``IMMOptions(profile=True)``);
* :mod:`repro.resilience` — fault-tolerant sampling: supervised
  retries, serial degradation, RRR-store checkpointing, and the
  ``REPRO_FAULTS`` fault-injection harness.
"""

from repro.api import *  # noqa: F401,F403 — the blessed surface
from repro.api import __all__ as _api_all

# Legacy convenience re-exports.  These predate the repro.api facade and
# stay importable from the top level for compatibility, but they are NOT
# part of the stable surface — prefer the submodules (repro.diffusion,
# repro.encoding, repro.imm, repro.rrr) or repro.api.
from repro.diffusion import estimate_spread, simulate_ic, simulate_lt
from repro.encoding import PackedArray, encode_graph, pack, required_bits
from repro.imm import (
    CoverageIndex,
    InfluenceOracle,
    run_celf_greedy,
    run_ris,
    run_tim,
    select_seeds,
)
from repro.rrr import RRRCollection, sample_rrr_ic, sample_rrr_lt

__version__ = "2.0.0"

__all__ = sorted(
    set(_api_all)
    | {
        "CoverageIndex",
        "InfluenceOracle",
        "PackedArray",
        "RRRCollection",
        "__version__",
        "encode_graph",
        "estimate_spread",
        "pack",
        "required_bits",
        "run_celf_greedy",
        "run_ris",
        "run_tim",
        "sample_rrr_ic",
        "sample_rrr_lt",
        "select_seeds",
        "simulate_ic",
        "simulate_lt",
    }
)
