"""Self-test of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=3, trace=0, env=None):
    """``(detail, result line, exit code)`` of one tiny-scale run."""
    merged = dict(os.environ)
    merged.pop("REPRO_FAULTS", None)
    merged.update(env or {})
    return report.run_once(workload, seed, 1, trace, scale="tiny",
                           env=merged)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, line, code = run(workload, trace=trace)
    assert code == 0 and line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        tail = detail["latency_tail"]
        assert tail["ops"] == line["attempted"] and tail["ops_beyond"] == 10


def test_tail_has_exactly_ten_ops_beyond():
    latencies = [float((7 * i) % 23) + i / 1000 for i in range(23)]
    value, percentile, ops, beyond = report.tail(latencies)
    assert sum(1 for ms in latencies if ms > value) == beyond == 10
    assert ops == 23 and percentile == 100.0 * 13 / 23
    value, _, _, beyond = report.tail(latencies[:10])
    assert value == max(latencies[:10]) and beyond == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_at_a_fixed_seed(workload):
    (a, la, _), (b, lb, _) = run(workload, trace=1), run(workload, trace=1)
    assert report.comparable(a, b)
    for name in report.EXACT_COUNTS:
        assert la["metrics"][name] == lb["metrics"][name], name
    assert a["thetas"] == b["thetas"]
    assert a["tiers"] == b["tiers"]
    assert a["digests"] == b["digests"]


def test_span_tree_is_well_formed():
    for workload in WORKLOADS:
        detail, _, _ = run(workload, trace=1)
        dump = json.loads(Path(detail["span_file"]).read_text("utf-8"))
        spans = dump["spans"]
        assert spans and tracing.check_tree(spans) == []
        assert min(tracing.self_times(spans).values()) >= -1e-9
        assert any(rec["op"] is not None for rec in spans)


def test_decode_bytes_count_each_payload_once(monkeypatch, tmp_path):
    """shm.bytes_raw is the raw size of the payloads the parent merged
    during the timed ops, each counted once."""
    import time

    import workloads
    from repro.rrr.parallel import SamplerPool
    from repro.shm.transport import PackedResult

    merged = []  # (time, raw bytes) of every merge
    original = SamplerPool._merge

    def merge(self, results, arena):
        merged.append((time.perf_counter(), sum(
            r.nbytes_raw for r in results if isinstance(r, PackedResult))))
        return original(self, results, arena)

    monkeypatch.setattr(SamplerPool, "_merge", merge)
    recorder = tracing.Recorder(tmp_path)
    tracing.install_probes(recorder)
    try:
        result = workloads.execute("solve-cold", 3, 1, scale="tiny",
                                   probe=recorder)
        metrics = tracing.layer_metrics(recorder, result)
    finally:
        recorder.restore()
    raw = sum(size for at, size in merged
              if any(op.start <= at <= op.end for op in result.ops))
    assert raw > 0
    per_op = metrics["shm.bytes_raw"]["value"]
    assert per_op * len(result.ops) == pytest.approx(raw, rel=1e-12)


def test_budget_answers_match_burst_answers():
    burst, _, _ = run("serve-burst")
    budget, _, _ = run("serve-budget")
    assert report.common_prefix_match(burst["digests"], budget["digests"])


def test_a_failed_op_is_counted_not_dropped():
    clean, clean_line, _ = run("serve-burst")
    # the 21st and 31st query executions raise inside the service (the
    # ten warm-up queries come first)
    detail, line, _ = run("serve-burst",
                          env={"REPRO_FAULTS": "crash@worker-thread#20,30"})
    assert line["attempted"] == clean_line["attempted"]
    assert line["failed"] == 2
    assert sum(detail["errors"].values()) == 2
    assert sum(detail["tiers"].values()) == line["attempted"] - 2


def test_manifest_pins_thread_pools():
    detail, _, _ = run("solve-cold")
    manifest = detail["manifest"]
    assert set(manifest["threads"].values()) == {"1"}
    for key in ("seed", "nproc", "python", "numpy", "start_method",
                "data_plane", "visited_mode", "coverage_scan",
                "memory_budget_mb"):
        assert key in manifest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "solve-cold", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout



#: runs a command as a child subreaper: every process the command leaves
#: behind is re-parented here, so waiting counts them all
REAPER = """
import ctypes, os, subprocess, sys
if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
    sys.exit(3)  # PR_SET_CHILD_SUBREAPER refused
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
left = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    left += 1
print(code, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER")
@pytest.mark.parametrize("workload", ["solve-cold", "serve-burst"])
def test_a_run_leaves_no_process_behind(workload):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, sys.executable,
         str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "0"]
