"""Random reverse-reachable (RRR) set machinery.

The RRR store mirrors the paper's device layout (§3.2, Fig. 2): one flat
array ``R`` holding every set's vertices (ascending within each set), an
offset array ``O`` marking set boundaries, and a frequency array ``C``
counting how many sets each vertex appears in.  Samplers generate sets in
vectorized lockstep batches — the host-side analogue of the one-warp-per-
block kernels — and return per-set traces the GPU cost models consume.
"""

from repro.rrr.collection import RRRBuilder, RRRCollection
from repro.rrr.sampler_ic import sample_rrr_ic
from repro.rrr.sampler_lt import sample_rrr_lt
from repro.rrr.source_elimination import eliminate_sources_post_hoc
from repro.rrr.statistics import (
    CollectionStatistics,
    collection_statistics,
    coverage_concentration,
    size_histogram,
)
from repro.rrr.trace import SampleTrace

__all__ = [
    "CollectionStatistics",
    "RRRBuilder",
    "RRRCollection",
    "RRRStore",
    "SamplerPool",
    "SampleTrace",
    "clear_selection_indices",
    "collection_statistics",
    "coverage_concentration",
    "eliminate_sources_post_hoc",
    "sample_rrr_ic",
    "sample_rrr_lt",
    "sample_rrr_parallel",
    "shared_pool",
    "shared_store",
    "size_histogram",
]


def __getattr__(name: str):
    # the parallel samplers pull in concurrent.futures and RRRStore
    # builds on them; resolve lazily so the multiprocessing machinery
    # stays out of the import path of single-process users.
    if name in (
        "SamplerPool", "sample_rrr_parallel", "shared_pool", "shutdown_pools"
    ):
        from repro.rrr import parallel

        return getattr(parallel, name)
    if name in ("RRRStore", "shared_store", "clear_stores"):
        from repro.rrr import store

        return getattr(store, name)
    if name == "clear_selection_indices":
        from repro.rrr.sampler_lt import clear_selection_indices

        return clear_selection_indices
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_sampler(model: str):
    """Return the RRR sampler for ``model`` ("IC" or "LT")."""
    from repro.utils.errors import ValidationError

    model = model.upper()
    if model == "IC":
        return sample_rrr_ic
    if model == "LT":
        return sample_rrr_lt
    raise ValidationError(f"unknown diffusion model {model!r}; choose IC or LT")
