#!/usr/bin/env python3
"""End-to-end metrics, the run manifest, and the traced-run report.

As a library this module turns a :class:`workloads.RunResult` into the
end-to-end metrics and the ``perfbench-detail`` record ``run.py``
prints.  As a script it is the traced-run report::

    python3 perfbench/report.py --seed 7 --seconds 20

For each workload of :data:`WORKLOADS`, at paper scale, it runs ``run.py`` three times in fresh processes at
the same seed — untraced, traced, traced again — and prints per-layer
self times, the tracing overhead (traced minus untraced wall time per
op), whether every count (theta list, ``rrr.sets_*``, tier counts,
demotions, promotions) repeated exactly between the two traced runs,
and whether serve-budget's answers match serve-burst's on their common
trace prefix.  Runs whose manifests differ are refused as a pair.  The
full report is written to ``.perfbench/report-<seed>.json``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: the benchmark's workloads (as in BENCHMARK.json)
WORKLOADS = ("solve-cold", "serve-burst", "serve-budget")

#: native thread pools the benchmark pins to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: per-layer counts that must repeat exactly at a fixed seed
EXACT_COUNTS = (
    "rrr.sets_attempted", "rrr.sets_kept", "rrr.edges_examined",
    "rrr.store.sampled_sets", "imm.select_calls", "imm.sets_scanned",
    "imm.theta", "memory.demotions", "memory.promotions",
    "service.tier.exact", "service.tier.prefix", "service.tier.cold",
    "service.coalesced", "service.failed",
)


def to_json(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=False)


def tail(latencies: list) -> tuple[float, float, int, int]:
    """``(value, percentile, ops, ops beyond)``: the highest percentile
    of the latencies with at least ten ops beyond it (with ten ops or
    fewer there is none, and the maximum stands in, with none beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 if n <= 10 else n - 11
    return ordered[index], 100.0 * (index + 1) / n, n, n - index - 1


def end_to_end(result) -> dict:
    latencies = [op.ms for op in result.ops if op.ok]
    tail_ms = tail(latencies)[0]
    values = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "ops_per_s": len(latencies) / result.wall_s,
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def manifest(args, result) -> dict:
    """Every setting that must match for two runs to be compared."""
    import numpy

    from repro.kernels import resolve_coverage_scan, resolve_visited_mode
    from repro.shm.segments import resolve_data_plane

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "data_plane": resolve_data_plane(None),
        "visited_mode": resolve_visited_mode(None),
        "coverage_scan": resolve_coverage_scan(None),
        "memory_budget_mb": result.manifest.get("memory_budget_mb"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_config": result.manifest,
    }


def detail(args, result) -> dict:
    latencies = [op.ms for op in result.ops if op.ok]
    value, percentile, ops, beyond = tail(latencies)
    tiers = Counter(op.tier for op in result.ops if op.ok)
    return {
        "manifest": manifest(args, result),
        "trace": bool(args.trace),
        "latency_tail": {"value_ms": value, "percentile": percentile,
                         "ops": ops, "ops_beyond": beyond},
        "wall_s": result.wall_s,
        "tiers": dict(tiers),
        "errors": dict(Counter(op.error for op in result.ops if op.error)),
        "thetas": [op.theta for op in result.ops],
        "digests": result.digest,
        "setup_s": result.setup_s,
        "gate_errors": result.errors[:20],
    }


# -- the traced-run report -----------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: int,
             scale: str = "paper", env=None) -> tuple[dict, dict, int]:
    """``(detail, result line, exit code)`` of one fresh ``run.py``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", scale],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload} run failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    record = lines[-2]
    if not record.startswith("perfbench-detail "):
        raise RuntimeError(f"{workload}: no perfbench-detail line")
    return (json.loads(record[len("perfbench-detail "):]),
            json.loads(lines[-1]), proc.returncode)


def comparable(a: dict, b: dict) -> bool:
    """Two runs pair only when their manifests agree."""
    return a["manifest"] == b["manifest"]


def workload_report(workload: str, seed: int, seconds: float) -> dict:
    plain, plain_line, _ = run_once(workload, seed, seconds, 0)
    traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
    (t1, line1, _), (t2, line2, _) = traced
    if not (comparable(plain, t1) and comparable(t1, t2)):
        raise RuntimeError(f"{workload}: manifests differ; refusing the pair")
    m1, m2 = line1["metrics"], line2["metrics"]
    counts = {name: (m1[name]["value"], m2[name]["value"])
              for name in EXACT_COUNTS}
    repeats = all(a == b for a, b in counts.values()) and \
        t1["thetas"] == t2["thetas"] and t1["tiers"] == t2["tiers"]
    ops = len(plain["thetas"])
    spans = json.loads(Path(t1["span_file"]).read_text(encoding="utf-8"))
    return {
        "workload": workload,
        "correct": all(x["correct"] for x in (plain_line, line1, line2)),
        "end_to_end": plain_line["metrics"],
        "tail": plain["latency_tail"],
        "per_layer": m1,
        "self_ms_per_op": self_ms_per_op(spans),
        "tracing_overhead": {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": t1["wall_s"],
            "per_op_ms": 1000.0 * (t1["wall_s"] - plain["wall_s"]) / ops,
            "share": (t1["wall_s"] - plain["wall_s"]) / plain["wall_s"],
        },
        "counts_repeat": repeats,
        "counts": counts,
        "digests": plain["digests"],
    }


def self_ms_per_op(dump: dict) -> dict:
    """Self time per span name, ms per op, from a dumped trace."""
    import tracing

    spans = dump["spans"]
    selfs = tracing.self_times(spans)
    out: dict = {}
    for rec in spans:
        if rec["op"] is not None:
            out[rec["name"]] = out.get(rec["name"], 0.0) + selfs[rec["id"]]
    n_ops = max(len(dump["ops"]), 1)
    return {name: 1000.0 * v / n_ops for name, v in sorted(out.items())}


def common_prefix_match(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="perfbench traced-run report")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    reports = [workload_report(w, args.seed, args.seconds) for w in WORKLOADS]
    by_name = {r["workload"]: r for r in reports}
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": reports,
           "budget_digest_matches_burst": common_prefix_match(
               by_name["serve-burst"]["digests"],
               by_name["serve-budget"]["digests"])}
    ok = all(r["correct"] and r["counts_repeat"] for r in reports) and \
        out["budget_digest_matches_burst"]
    for r in reports:
        print(f"== {r['workload']}: correct={r['correct']} "
              f"counts_repeat={r['counts_repeat']} tracing overhead "
              f"{r['tracing_overhead']['per_op_ms']:.2f} ms/op "
              f"({100 * r['tracing_overhead']['share']:.1f}%)")
        for name, value in r["self_ms_per_op"].items():
            print(f"   self {name:<22} {value:10.3f} ms/op")
        for name, metric in r["per_layer"].items():
            value = metric["value"]
            if value and not math.isnan(value):
                print(f"   {name:<26} {value:14.4f} {metric['unit']}")
    print(f"serve-budget answers match serve-burst: "
          f"{out['budget_digest_matches_burst']}")
    path = ROOT / ".perfbench" / f"report-{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1), encoding="utf-8")
    print(f"[report written to {path}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
