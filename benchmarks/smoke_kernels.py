"""Word-parallel kernels smoke benchmark — writes ``BENCH_pr9_kernels.json``.

CI-sized check of the bitset kernels (PR 9), covering both hot paths:

* **sampling** — IC RRR sampling on a *deep-cascade* recipe (a ring
  lattice whose cascades run for hundreds of rounds) timed under
  ``visited_mode='sorted'``, ``'bitset'`` and ``'auto'``.  The sorted
  path re-merges the whole visited key array every lockstep round, so
  deep cascades are exactly the regime the dense visited plane
  accelerates, and ``auto`` must move onto it.
* **shallow sampling** — the eIM configuration's draws on CA at paper
  scale (n = 334,863; IC, source elimination), sized so each batch's
  plane fits the default budget, timed under ``'sorted'`` vs ``'auto'``.
  Sets hold a few vertices, so a plane costs far more than it saves and
  ``auto`` must stay on the sorted path.
* **selection** — the fig3 sweep pattern (greedy selection over growing
  prefixes of one stream, across a small k-sweep) on the same dense
  deep-cascade collection, run with ``coverage_scan='csr'`` vs
  ``'bitset'``, comparing the element-touch counters the two scans
  publish (scalar posting reads vs popcounted words).

Gates (exit code 1 on violation):

* bitset and auto sampling throughput each >= **1.5x** sorted (sets/s)
  on the deep-cascade recipe;
* auto sampling time <= **1.25x** sorted on the CA paper-scale draws;
* the bitset scan touches >= **2x** fewer elements (word popcounts vs
  scalar posting reads) over the fig3 sweep;
* **zero parity failures**: collections, seeds and stats bit-identical
  across modes in every cell;
* ``auto`` never exceeds the kernel memory budget: the accounted
  visited plane stays under ``REPRO_MEMORY_BUDGET_MB`` and a
  tiny-budget run falls back without building a plane.

Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_kernels.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds
from repro.kernels import DEFAULT_PLANE_BUDGET_BYTES, plane_budget_bytes
from repro.memory.budget import ENV_MEMORY_BUDGET_MB
from repro.rrr import get_sampler

# -- sampling: deep-cascade ring recipe -------------------------------------
RING_N = 8000
RING_NEIGHBORS = 4
RING_P = 0.6
SAMPLE_SETS = 2000
BATCH_SIZE = 2048

# -- shallow sampling: eIM-configured CA draws at paper scale, each batch
#    small enough that its (batch x n)-bit plane fits the default budget
CA_DRAW_SETS = 1024
CA_DRAWS = 24
CA_REPEATS = 5

# -- selection: the fig3 sweep pattern (smoke_selection conventions) over
#    the deep-cascade stream sampled above --------------------------------
PHASE_THETAS = (SAMPLE_SETS // 4, SAMPLE_SETS // 2, SAMPLE_SETS)
K_SWEEP = (4, 8, 16)


def _ring_graph():
    """A directed ring lattice: every vertex has in-edges from its
    ``RING_NEIGHBORS`` ring predecessors, all with probability
    ``RING_P`` — cascades crawl the ring for hundreds of rounds."""
    from repro.graphs.csc import DirectedGraph

    n, k = RING_N, RING_NEIGHBORS
    offsets = np.arange(1, k + 1)
    src = ((np.arange(n)[:, None] - offsets[None, :]) % n).reshape(-1)
    indptr = np.arange(n + 1) * k
    return DirectedGraph(indptr, src.astype(np.int32),
                         weights=np.full(n * k, RING_P))


def _identical_collections(a, b) -> bool:
    return bool(
        np.array_equal(a.flat, b.flat)
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.sources, b.sources)
    )


def run_sampling(graph) -> tuple[dict, "object"]:
    """Deep-cascade sampling timed per visited mode, plus parity.

    Returns the report dict and the sampled collection (reused as the
    selection workload)."""
    sampler = get_sampler("IC")
    sampler(graph, 100, rng=1)  # warmup (allocator, caches)
    out = {}
    collections = {}
    for mode in ("sorted", "bitset", "auto"):
        start = time.perf_counter()
        coll, trace = sampler(graph, SAMPLE_SETS, rng=11,
                              visited_mode=mode, batch_size=BATCH_SIZE)
        seconds = time.perf_counter() - start
        collections[mode] = coll
        out[mode] = {
            "seconds": round(seconds, 4),
            "sets_per_second": round(SAMPLE_SETS / seconds, 1),
        }
    coll = collections["sorted"]
    out["avg_set_size"] = round(coll.total_elements / coll.num_sets, 1)
    out["speedup"] = round(
        out["sorted"]["seconds"] / max(out["bitset"]["seconds"], 1e-9), 3
    )
    out["auto_speedup"] = round(
        out["sorted"]["seconds"] / max(out["auto"]["seconds"], 1e-9), 3
    )
    out["parity"] = all(
        _identical_collections(collections["sorted"], collections[mode])
        for mode in ("bitset", "auto")
    )
    return out, collections["bitset"]


def run_shallow_sampling() -> dict:
    """CA paper-scale draws timed under ``sorted`` and ``auto``.

    Each mode's time is the fastest of ``CA_REPEATS`` passes over the
    same ``CA_DRAWS`` draws, with the modes interleaved per pass so
    machine noise hits both alike."""
    from repro.graphs import assign_ic_weights
    from repro.graphs.datasets import load_dataset
    from repro.kernels import words_for_bits

    graph = assign_ic_weights(load_dataset("CA", "paper", rng=1))
    plane_bytes = CA_DRAW_SETS * words_for_bits(graph.n) * 8
    sampler = get_sampler("IC")
    sampler(graph, CA_DRAW_SETS, rng=0, eliminate_sources=True)  # warmup
    best = {"sorted": float("inf"), "auto": float("inf")}
    outputs = {}
    for _ in range(CA_REPEATS):
        for mode in best:
            start = time.perf_counter()
            outputs[mode] = [
                sampler(graph, CA_DRAW_SETS, rng=seed, eliminate_sources=True,
                        visited_mode=mode)[0]
                for seed in range(1, CA_DRAWS + 1)
            ]
            best[mode] = min(best[mode], time.perf_counter() - start)
    return {
        "n": graph.n,
        "draws": CA_DRAWS,
        "sets_per_draw": CA_DRAW_SETS,
        "batch_plane_bytes": plane_bytes,
        "plane_fits_default_budget": plane_bytes <= DEFAULT_PLANE_BUDGET_BYTES,
        "sorted_seconds": round(best["sorted"], 4),
        "auto_seconds": round(best["auto"], 4),
        "auto_over_sorted": round(best["auto"] / max(best["sorted"], 1e-9), 3),
        "parity": all(
            _identical_collections(a, b)
            for a, b in zip(outputs["sorted"], outputs["auto"])
        ),
    }


def run_selection(collection) -> dict:
    """The fig3 sweep per scan mode: wall-clock, element touches, parity."""
    out = {}
    all_seeds = {}
    for scan in ("csr", "bitset"):
        index = CoverageIndex(collection.n)
        seeds = []
        start = time.perf_counter()
        with obs.profiled() as handle:
            for k in K_SWEEP:
                for theta in PHASE_THETAS:
                    prefix = collection.prefix(theta)
                    index.extend_to(prefix)
                    sel = select_seeds(prefix, k, index=index, scan=scan)
                    seeds.append(sel.seeds.tolist())
        seconds = time.perf_counter() - start
        counters = handle.report().counters
        all_seeds[scan] = seeds
        out[scan] = {
            "seconds": round(seconds, 4),
            "element_touches": int(
                counters.get("selection.scan.posting_reads", 0)
                + counters.get("selection.scan.words_touched", 0)
            ),
        }
    out["touch_ratio"] = round(
        out["csr"]["element_touches"] / max(out["bitset"]["element_touches"], 1), 3
    )
    out["parity"] = all_seeds["csr"] == all_seeds["bitset"]
    return out


def run_budget_check(graph) -> dict:
    """``auto`` respects the kernel memory budget on both sides."""
    sampler = get_sampler("IC")
    budget = plane_budget_bytes()
    with obs.profiled() as handle:
        sampler(graph, 256, rng=3, visited_mode="auto", batch_size=256)
    report = handle.report()
    plane_bytes = int(report.gauges.get("kernels.bitset.plane_bytes", 0))
    tiles = int(report.counters.get("kernels.bitset.tiles", 0))
    within = plane_bytes <= budget

    # a tiny budget must fall back to sorted without building any plane
    prior = os.environ.get(ENV_MEMORY_BUDGET_MB)
    os.environ[ENV_MEMORY_BUDGET_MB] = "0.001"
    try:
        with obs.profiled() as handle:
            sampler(graph, 256, rng=3, visited_mode="auto", batch_size=256)
        fallback_report = handle.report()
    finally:
        if prior is None:
            del os.environ[ENV_MEMORY_BUDGET_MB]
        else:
            os.environ[ENV_MEMORY_BUDGET_MB] = prior
    fell_back = (
        fallback_report.counters.get("kernels.bitset.fallbacks", 0) >= 1
        and fallback_report.gauges.get("kernels.bitset.plane_bytes", 0) == 0
    )
    return {
        "budget_bytes": budget,
        "plane_bytes": plane_bytes,
        "tiles": tiles,
        "plane_within_budget": bool(within and plane_bytes > 0 and tiles > 0),
        "tiny_budget_falls_back": bool(fell_back),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pr9_kernels.json"),
        help="output JSON path (default: <repo root>/BENCH_pr9_kernels.json)",
    )
    args = parser.parse_args(argv)

    graph = _ring_graph()
    sampling, collection = run_sampling(graph)
    shallow = run_shallow_sampling()
    selection = run_selection(collection)
    budget = run_budget_check(graph)

    report = {
        "benchmark": "pr9_kernels",
        "sampling_recipe": {
            "kind": "ring_lattice", "n": RING_N,
            "neighbors": RING_NEIGHBORS, "p": RING_P,
            "num_sets": SAMPLE_SETS, "batch_size": BATCH_SIZE,
        },
        "selection_recipe": {
            "num_sets": SAMPLE_SETS,
            "phase_thetas": list(PHASE_THETAS), "k_sweep": list(K_SWEEP),
        },
        "sampling": sampling,
        "shallow_sampling": shallow,
        "selection": selection,
        "budget": budget,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"[written to {args.out}]")

    failed = False
    if not sampling["parity"]:
        print("FAIL: visited modes produced different collections")
        failed = True
    if not selection["parity"]:
        print("FAIL: coverage scans selected different seeds")
        failed = True
    if sampling["speedup"] < 1.5:
        print(f"FAIL: bitset sampling speedup {sampling['speedup']:.2f} < 1.5")
        failed = True
    if sampling["auto_speedup"] < 1.5:
        print(f"FAIL: auto sampling speedup {sampling['auto_speedup']:.2f} < 1.5")
        failed = True
    if not shallow["parity"]:
        print("FAIL: auto and sorted produced different CA collections")
        failed = True
    if not shallow["plane_fits_default_budget"]:
        print("FAIL: the CA draws' batch plane does not fit the default budget")
        failed = True
    if shallow["auto_over_sorted"] > 1.25:
        print(f"FAIL: auto CA sampling {shallow['auto_over_sorted']:.2f}x "
              "sorted > 1.25x")
        failed = True
    if selection["touch_ratio"] < 2.0:
        print(f"FAIL: element-touch ratio {selection['touch_ratio']:.2f} < 2.0")
        failed = True
    if not budget["plane_within_budget"]:
        print("FAIL: auto built a visited plane over the memory budget")
        failed = True
    if not budget["tiny_budget_falls_back"]:
        print("FAIL: auto did not fall back under a tiny budget")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
