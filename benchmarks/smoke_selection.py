"""Incremental-selection smoke benchmark — writes ``BENCH_pr6_selection.json``.

CI-sized check of the incremental coverage index (PR 6): the IMM
phase-loop selection pattern — greedy selection repeated over growing
prefixes of one RRR stream, across the cells of a small k-sweep — run
two ways:

* **rebuild**: every ``select_seeds`` call derives the vertex->position
  inverted index from scratch (the pre-PR behaviour);
* **incremental**: one :class:`~repro.imm.coverage.CoverageIndex` is
  extended as the stream grows and shared by every call, the way
  ``run_imm`` and the warm-start store now do it.

Recorded per mode: selection wall-clock and the
``selection.index.built_elements`` counter (elements counting-sorted
into the index — the redundant work the incremental path eliminates).
Gates:

* identical seeds in both modes on every (phase, k) cell;
* the incremental index touches **>= 2x fewer** index-build elements
  over the 3-phase run pattern (acceptance: >= 50% of per-phase
  index-build work eliminated).

Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_selection.py
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds
from repro.rrr import get_sampler

DATASET = "WV"
NUM_SETS = 9000
#: 3-phase estimation pattern: theta doubles per phase (IMM's geometric
#: guess schedule), final phase consumes the whole stream
PHASE_THETAS = (NUM_SETS // 4, NUM_SETS // 2, NUM_SETS)
K_SWEEP = (4, 8, 16)


def _collection():
    config = ExperimentConfig.from_env(scale="tiny", datasets=(DATASET,), seed=11)
    graph = config.graph(DATASET, "IC")
    collection, _ = get_sampler("IC")(graph, NUM_SETS, rng=config.seed)
    return collection


def run_phase_loop(collection, incremental: bool) -> dict:
    """The sweep-of-phase-loops selection workload in one mode.

    Every k cell replays the 3-phase loop; in incremental mode a single
    index rides across phases *and* cells (the store-backed sweep
    pattern), in rebuild mode each call derives its own.
    """
    seeds = []
    index = CoverageIndex(collection.n) if incremental else None
    start = time.perf_counter()
    with obs.profiled() as handle:
        for k in K_SWEEP:
            for theta in PHASE_THETAS:
                prefix = collection.prefix(theta)
                if index is not None:
                    index.extend_to(prefix)
                sel = select_seeds(prefix, k, index=index)
                seeds.append(sel.seeds.tolist())
    seconds = time.perf_counter() - start
    counters = handle.report().counters
    return {
        "seconds": round(seconds, 4),
        "index_built_elements": int(counters.get("selection.index.built_elements", 0)),
        "phases_per_cell": len(PHASE_THETAS),
        "cells": len(K_SWEEP),
        "seeds": seeds,
    }


def run_single_run_ratio(collection) -> dict:
    """Index-build elements of ONE 3-phase run, rebuild vs incremental."""
    totals = {}
    for mode in ("rebuild", "incremental"):
        index = CoverageIndex(collection.n) if mode == "incremental" else None
        with obs.profiled() as handle:
            for theta in PHASE_THETAS:
                prefix = collection.prefix(theta)
                if index is not None:
                    index.extend_to(prefix)
                select_seeds(prefix, K_SWEEP[0], index=index)
        counters = handle.report().counters
        totals[mode] = int(counters.get("selection.index.built_elements", 0))
    return {
        "rebuild_elements": totals["rebuild"],
        "incremental_elements": totals["incremental"],
        "ratio": round(totals["rebuild"] / max(totals["incremental"], 1), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pr6_selection.json"),
        help="output JSON path (default: <repo root>/BENCH_pr6_selection.json)",
    )
    args = parser.parse_args(argv)

    collection = _collection()
    rebuild = run_phase_loop(collection, incremental=False)
    incremental = run_phase_loop(collection, incremental=True)
    single = run_single_run_ratio(collection)

    seeds_match = rebuild.pop("seeds") == incremental.pop("seeds")
    ratio = rebuild["index_built_elements"] / max(
        incremental["index_built_elements"], 1
    )
    report = {
        "benchmark": "pr6_selection",
        "dataset": DATASET,
        "num_sets": NUM_SETS,
        "phase_thetas": list(PHASE_THETAS),
        "k_sweep": list(K_SWEEP),
        "phase_loop": {
            "rebuild": rebuild,
            "incremental": incremental,
            "built_elements_ratio": round(ratio, 3),
            "wallclock_speedup": round(
                rebuild["seconds"] / max(incremental["seconds"], 1e-9), 3
            ),
            "seeds_match": seeds_match,
        },
        "single_run_3_phases": single,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"[written to {args.out}]")

    if not seeds_match:
        print("FAIL: incremental index changed the selected seeds")
        return 1
    if ratio < 2.0:
        print(f"FAIL: index-build elements ratio {ratio:.2f} < 2.0")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
