#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Workloads: ``solve-cold`` (back-to-back cold eIM-configured ``run_imm``
solves), ``serve-burst`` (closed-loop dashboard bursts over
``InfluenceService``) and ``serve-budget`` (the same traffic under a
64 MiB memory budget).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps each layer's entry points and prints per-layer
metrics instead (never use a traced run's timings as end-to-end
numbers).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``perfbench-detail {...}``) carries the run manifest, the tail
percentile with its op count, tier counts and answer digests.

The command exits non-zero when any answer fails the correctness gate,
and without printing a result when the program's sources (``src/``)
are not beside it.  See ``README.md`` for why the workloads are what
they are.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time
import traceback
from pathlib import Path

from report import THREAD_VARS  # report imports no numpy

# pin native thread pools before numpy is imported anywhere: the
# benchmark measures the program's own parallelism, not BLAS's
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where traced runs write their spans and the store spills demoted chunks
WORK_DIR = ROOT / ".perfbench"


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-cold", "serve-burst", "serve-budget"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper", choices=("paper", "tiny"),
                        help="dataset scale (tiny is for the self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # demoted RRR chunks spill under the temp dir: keep it in the checkout
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None

    import report
    import workloads

    probe = workloads.NULL_PROBE
    if args.trace:
        import tracing

        probe = tracing.Recorder(WORK_DIR / "spill")
        tracing.install_probes(probe)
    result = workloads.execute(args.workload, args.seed, args.seconds,
                               scale=args.scale, probe=probe)
    detail = report.detail(args, result)
    if args.trace:
        metrics = tracing.layer_metrics(probe, result)
        detail["span_file"] = str(tracing.dump(probe, result, WORK_DIR,
                                               args.workload, args.seed))
        probe.restore()
    else:
        metrics = report.end_to_end(result)
    failed = sum(1 for op in result.ops if not op.ok)
    correct = not result.errors
    print("perfbench-detail " + report.to_json(detail))
    print(report.to_json({
        "correct": correct,
        "attempted": len(result.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    for error in result.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    return 0 if correct else 1


def _children() -> list[int]:
    """Pids of this process's children that are still there (zombies
    included, so that waiting reaps them)."""
    me = str(os.getpid())
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # ended meanwhile
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process the run started and wait for each to end.

    The program's exit hooks run first (sampler pools, stores and
    shared-memory segments close there), then multiprocessing's resource
    tracker, which would otherwise outlive this process, is stopped.
    Anything still parented here gets SIGTERM, then SIGKILL after
    ``grace_s``, and is reaped either way.
    """
    atexit._run_exitfuncs()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    pids = _children()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # already reaped
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as exc:  # argparse: usage errors and --help
        code = 0 if exc.code is None else exc.code
    except BaseException:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    stop_children()
    # exit without interpreter teardown: a finaliser run there could
    # start a new resource tracker after the one above was stopped
    os._exit(code if isinstance(code, int) else 1)
