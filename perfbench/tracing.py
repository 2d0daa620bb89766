"""The traced run: an in-memory span recorder and the per-layer probes.

Spans are recorded from the benchmark's own files by wrapping each
layer's public entry points (nothing under ``src/`` changes).  A span
has a name, start, end, parent span and op id; a layer's self time is
its span's duration minus the part of that interval its children
cover.  Sampler workers forked from a traced parent inherit the
wrappers and append their spans to a per-process file under the spill
directory; the parent folds them in when the run ends, attributing
each to the op whose interval contains it (``perf_counter`` is the
system-wide monotonic clock on Linux, so the intervals compare).

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path


class _Span:
    __slots__ = ("recorder", "rec")

    def __init__(self, recorder: "Recorder", rec: dict):
        self.recorder = recorder
        self.rec = rec

    def __enter__(self) -> dict:
        self.recorder._local_stack().append(self.rec)
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc) -> bool:
        self.rec["end"] = time.perf_counter()
        self.recorder._local_stack().pop()
        self.recorder._emit(self.rec)
        return False


class _OpScope:
    __slots__ = ("recorder", "index", "prior")

    def __init__(self, recorder: "Recorder", index):
        self.recorder = recorder
        self.index = index

    def __enter__(self):
        local = self.recorder._local()
        self.prior = local.op
        local.op = self.index
        return self

    def __exit__(self, *exc) -> bool:
        self.recorder._local().op = self.prior
        return False


class Recorder:
    """Thread-safe span recorder with one span stack per thread."""

    def __init__(self, spill_dir: Path):
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 0
        self._query_ops: dict[int, int] = {}
        self._patches: list[tuple] = []
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spill_dir.glob("spans-*.jsonl"):
            stale.unlink()

    # -- per-thread state (reset in forked workers) ---------------------------
    def _local(self):
        local = self._tls
        if getattr(local, "pid", None) != os.getpid():
            local.pid = os.getpid()
            local.stack = []
            local.op = None
        return local

    def _local_stack(self) -> list:
        return self._local().stack

    def op(self, index) -> _OpScope:
        """Attribute spans opened on this thread to op ``index``."""
        return _OpScope(self, index)

    def bind(self, query, index: int) -> None:
        """Remember which op a service query object belongs to."""
        with self._lock:
            self._query_ops[id(query)] = index

    def op_of(self, query):
        with self._lock:
            return self._query_ops.get(id(query))

    def span(self, name: str, **attrs) -> _Span:
        local = self._local()
        stack = local.stack
        with self._lock:
            self._next_id += 1
            sid = (os.getpid() << 32) | self._next_id
        rec = {
            "id": sid, "name": name, "start": 0.0, "end": 0.0,
            "parent": stack[-1]["id"] if stack else None,
            "op": local.op, "pid": os.getpid(),
            "thread": threading.get_ident(), "attrs": attrs,
        }
        return _Span(self, rec)

    def _emit(self, rec: dict) -> None:
        if os.getpid() == self._pid:
            with self._lock:
                self.spans.append(rec)
            return
        # a forked sampler worker: one appended line per span, read
        # back by the parent in collect()
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             kind: str = "function") -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs) -> dict`` and ``after(result, args,
        span_attrs)`` collect span attributes; ``kind`` is
        ``"function"`` or ``"classmethod"``.  :meth:`restore` undoes it.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = original.__func__ if kind == "classmethod" else original
        recorder = self

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            with recorder.span(name, **attrs) as rec:
                result = func(*args, **kwargs)
                if after is not None:
                    after(result, args, rec["attrs"])
            return result

        for meta in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, meta, getattr(func, meta, None))
        setattr(owner, attr, classmethod(wrapper) if kind == "classmethod"
                else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- collection ----------------------------------------------------------
    def collect(self, op_windows: dict) -> list[dict]:
        """All spans, worker spans included and attributed to the op
        whose ``(start, end)`` window in ``op_windows`` contains them."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                rec["op"] = None
                for index, (lo, hi) in op_windows.items():
                    if lo <= rec["start"] and rec["end"] <= hi:
                        rec["op"] = index
                        break
                spans.append(rec)
            path.unlink()
        return spans


def self_times(spans: list[dict]) -> dict:
    """``{span id: self seconds}``: duration minus the union of the
    intervals its children cover, clipped to the span."""
    children: dict = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
    out = {}
    for rec in spans:
        lo, hi = rec["start"], rec["end"]
        covered, cursor = 0.0, lo
        for child in sorted(children.get(rec["id"], ()),
                            key=lambda c: c["start"]):
            a, b = max(child["start"], cursor), min(child["end"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[rec["id"]] = (hi - lo) - covered
    return out


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with the span tree: children outside their parents,
    negative self times, dangling parents."""
    by_id = {rec["id"]: rec for rec in spans}
    problems = []
    for rec in spans:
        if rec["end"] < rec["start"]:
            problems.append(f"{rec['name']}: ends before it starts")
        parent = rec["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"{rec['name']}: parent {parent} missing")
            continue
        up = by_id[parent]
        if rec["start"] < up["start"] or rec["end"] > up["end"]:
            problems.append(f"{rec['name']} lies outside parent {up['name']}")
    for sid, value in self_times(spans).items():
        if value < -1e-9:
            problems.append(f"span {sid}: negative self time {value}")
    return problems


# -- the layer probes ----------------------------------------------------------


def _trace_counts(result, args, attrs) -> None:
    trace = result[1]
    attrs["attempted"] = int(trace.attempted)
    attrs["kept"] = int(trace.kept)
    attrs["edges"] = int(trace.total_edges_examined())


def _packed_sizes(args, kwargs) -> dict:
    payload = args[0]
    return {"packed": int(payload.nbytes_packed),
            "raw": int(payload.nbytes_raw)}


def _selection_counts(result, args, attrs) -> None:
    attrs["sets_scanned"] = int(result.stats.total_scans())


def _store_before(args, kwargs) -> dict:
    return {"cached_before": int(args[0].num_cached)}


def _store_after(result, args, attrs) -> None:
    attrs["sampled"] = int(args[0].num_cached) - attrs.pop("cached_before")


def _chunk_state(args, kwargs) -> dict:
    from repro.memory.tiers import HOT

    return {"promoted": args[0].state != HOT}


def install_probes(recorder: Recorder) -> None:
    """Wrap every layer's public entry points on ``recorder``."""
    import repro.imm.imm as imm_mod
    import repro.rrr as rrr_pkg
    import repro.service.service as service_mod
    from repro.imm.coverage import CoverageIndex
    from repro.memory.tiers import TieredChunk
    from repro.rrr.collection import RRRCollection
    from repro.rrr.parallel import SamplerPool
    from repro.rrr.store import RRRStore
    from repro.service.cache import SubstrateTable
    from repro.service.scheduler import QueryScheduler
    from repro.service.service import InfluenceService
    from repro.shm.transport import PackedResult

    wrap = recorder.wrap
    # rrr samplers (looked up through get_sampler, in-process or in
    # forked pool workers)
    wrap(rrr_pkg, "sample_rrr_ic", "rrr.sample", after=_trace_counts)
    wrap(rrr_pkg, "sample_rrr_lt", "rrr.sample", after=_trace_counts)
    # rrr.parallel + shm
    wrap(SamplerPool, "sample", "rrr.pool.sample")
    # every decode path (``decode`` and the store's arena merge) goes
    # through ``decode_into`` once per payload
    wrap(PackedResult, "decode_into", "shm.decode", before=_packed_sizes)
    # rrr.collection / rrr.store
    wrap(RRRCollection, "concat", "rrr.concat", kind="classmethod")
    wrap(RRRStore, "ensure", "rrr.store.ensure", before=_store_before,
         after=_store_after)
    # imm coverage + selection
    wrap(CoverageIndex, "extend_to", "imm.index_extend")
    wrap(imm_mod, "select_seeds", "imm.select", after=_selection_counts)
    # memory tiers
    wrap(TieredChunk, "demote", "memory.demote")
    wrap(TieredChunk, "get", "memory.get", before=_chunk_state)
    # service
    wrap(InfluenceService, "submit", "service.submit")
    wrap(SubstrateTable, "acquire", "service.acquire")
    wrap(service_mod, "run_imm", "service.run")

    class TracedScheduler(QueryScheduler):
        """The scheduler with its execute callable timed per query."""

        def __init__(self, max_inflight, max_queue_depth, execute,
                     counter=None):
            def traced(job):
                with recorder.op(recorder.op_of(job.query)):
                    with recorder.span("service.execute"):
                        return execute(job)

            super().__init__(max_inflight, max_queue_depth, traced, counter)

    recorder._patches.append(
        (service_mod, "QueryScheduler", service_mod.QueryScheduler)
    )
    service_mod.QueryScheduler = TracedScheduler


# -- per-layer metrics ---------------------------------------------------------

#: every per-layer metric, with its unit.  Times are per op (summed over
#: the op's spans, averaged over all ops of the run); ``1/op`` counts
#: likewise; ``count`` metrics are totals over the timed phase.
LAYER_METRICS = {
    "rrr.sample_ms": "ms", "rrr.sets_attempted": "1/op",
    "rrr.sets_kept": "1/op", "rrr.keep_ratio": "ratio",
    "rrr.edges_examined": "1/op", "rrr.sets_per_s": "1/s",
    "rrr.pool.wait_ms": "ms", "shm.decode_ms": "ms",
    "shm.bytes_packed": "B/op", "shm.bytes_raw": "B/op",
    "rrr.pool.start_s": "s",
    "rrr.concat_ms": "ms", "rrr.store.ensure_ms": "ms",
    "rrr.store.sampled_sets": "1/op",
    "imm.index_extend_ms": "ms", "imm.select_ms": "ms",
    "imm.select_calls": "1/op", "imm.sets_scanned": "1/op",
    "imm.theta": "sets",
    "memory.demotions": "count", "memory.promotions": "count",
    "memory.overcommits": "count", "memory.demote_ms": "ms",
    "memory.promote_ms": "ms", "memory.peak_charged_mb": "MiB",
    "service.admit_ms": "ms", "service.queue_wait_ms": "ms",
    "service.substrate_wait_ms": "ms", "service.run_ms": "ms",
    "service.tier.exact": "count", "service.tier.prefix": "count",
    "service.tier.cold": "count", "service.hit_ratio": "ratio",
    "service.coalesced": "count", "service.failed": "count",
    "graphs.build_s": "s",
}


def op_spans(recorder: Recorder, result) -> list[dict]:
    """The run's spans, worker spans attributed to their ops."""
    if not hasattr(recorder, "_collected"):
        windows = {op.index: (op.start, op.end) for op in result.ops}
        recorder._collected = recorder.collect(windows)
    return recorder._collected


def layer_metrics(recorder: Recorder, result) -> dict:
    """Every metric of :data:`LAYER_METRICS` for one traced run."""
    import statistics

    spans = op_spans(recorder, result)
    selfs = self_times(spans)
    n_ops = max(len(result.ops), 1)
    timed = [rec for rec in spans if rec["op"] is not None]

    def total(name, attr=None, use_self=False, where=None):
        out = 0.0
        for rec in timed:
            if rec["name"] != name or (where and not where(rec)):
                continue
            if attr is not None:
                out += rec["attrs"].get(attr, 0)
            elif use_self:
                out += selfs[rec["id"]]
            else:
                out += rec["end"] - rec["start"]
        return out

    def per_op_ms(name, **kw):
        return 1000.0 * total(name, **kw) / n_ops

    first: dict = {}
    for rec in timed:  # earliest span of each (op, name)
        key = (rec["op"], rec["name"])
        if key not in first or rec["start"] < first[key]["start"]:
            first[key] = rec
    queue_wait = substrate_wait = 0.0
    for op in result.ops:
        submit = first.get((op.index, "service.submit"))
        execute = first.get((op.index, "service.execute"))
        if submit and execute:
            queue_wait += execute["start"] - submit["end"]
        acquire = first.get((op.index, "service.acquire"))
        run = first.get((op.index, "service.run"))
        if acquire and run:
            substrate_wait += run["start"] - acquire["start"]

    attempted = total("rrr.sample", "attempted")
    kept = total("rrr.sample", "kept")
    sample_s = total("rrr.sample")
    tiers = {t: sum(1 for op in result.ops if op.ok and op.tier == t)
             for t in ("exact", "prefix", "cold")}
    answered = [op for op in result.ops if op.ok]
    mem = result.memory
    values = {
        "rrr.sample_ms": 1000.0 * sample_s / n_ops,
        "rrr.sets_attempted": attempted / n_ops,
        "rrr.sets_kept": kept / n_ops,
        "rrr.keep_ratio": kept / attempted if attempted else 0.0,
        "rrr.edges_examined": total("rrr.sample", "edges") / n_ops,
        "rrr.sets_per_s": attempted / sample_s if sample_s else 0.0,
        "rrr.pool.wait_ms": per_op_ms("rrr.pool.sample", use_self=True),
        "shm.decode_ms": per_op_ms("shm.decode"),
        "shm.bytes_packed": total("shm.decode", "packed") / n_ops,
        "shm.bytes_raw": total("shm.decode", "raw") / n_ops,
        "rrr.pool.start_s": statistics.median(result.pool_start_s),
        "rrr.concat_ms": per_op_ms("rrr.concat"),
        "rrr.store.ensure_ms": per_op_ms("rrr.store.ensure"),
        "rrr.store.sampled_sets": total("rrr.store.ensure", "sampled") / n_ops,
        "imm.index_extend_ms": per_op_ms("imm.index_extend"),
        "imm.select_ms": per_op_ms("imm.select"),
        "imm.select_calls": sum(1 for r in timed if r["name"] == "imm.select")
        / n_ops,
        "imm.sets_scanned": total("imm.select", "sets_scanned") / n_ops,
        "imm.theta": statistics.mean(op.theta for op in answered)
        if answered else 0.0,
        "memory.demotions": mem["demotions"],
        "memory.promotions": mem["promotions"],
        "memory.overcommits": mem["overcommits"],
        "memory.demote_ms": per_op_ms("memory.demote"),
        "memory.promote_ms": per_op_ms(
            "memory.get", where=lambda r: r["attrs"].get("promoted")),
        "memory.peak_charged_mb": mem["peak_charged_bytes"] / 2**20,
        "service.admit_ms": per_op_ms("service.submit"),
        "service.queue_wait_ms": 1000.0 * queue_wait / n_ops,
        "service.substrate_wait_ms": 1000.0 * substrate_wait / n_ops,
        "service.run_ms": per_op_ms("service.run"),
        "service.tier.exact": tiers["exact"],
        "service.tier.prefix": tiers["prefix"],
        "service.tier.cold": tiers["cold"],
        "service.hit_ratio": (tiers["exact"] + tiers["prefix"]) / len(answered)
        if answered and sum(tiers.values()) else 0.0,
        "service.coalesced": sum(1 for op in answered if op.coalesced),
        "service.failed": sum(1 for op in result.ops if not op.ok),
        "graphs.build_s": statistics.median(result.build_s),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def dump(recorder: Recorder, result, work_dir: Path, workload: str,
         seed: int) -> Path:
    """Write the run's spans (and op windows) as JSON; returns the path."""
    path = Path(work_dir) / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "ops": [{"index": op.index, "start": op.start, "end": op.end,
                 "tier": op.tier} for op in result.ops],
        "spans": op_spans(recorder, result),
    }), encoding="utf-8")
    return path
