"""The three perfbench workloads: set-up, the timed op loop, and the
correctness gate that runs after it.

Every workload takes its op sequence from ``--seed`` alone; the program
under test only ever sees the generated inputs (graphs, rng entropies,
``(k, epsilon)`` cells).  The graphs themselves are fixed dataset
instances (``GRAPH_SEEDS``), so runs with different seeds differ in the
random streams and the traffic, not in the network.

See ``README.md`` beside this file for why each workload exists and
which layers it stresses.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import time
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.graphs.datasets import load_dataset
from repro.graphs.weights import assign_ic_weights, assign_lt_weights
from repro.imm.imm import run_imm
from repro.imm.options import IMMOptions
from repro.memory.budget import governor
from repro.rrr.parallel import shared_pool, shutdown_pools
from repro.rrr.sampler_lt import clear_selection_indices
from repro.rrr.store import RRRStore
from repro.service import InfluenceQuery, InfluenceService, ServiceOptions

#: fixed generator seeds of the dataset instances (the network is part
#: of the workload's definition; ``--seed`` varies the streams/traffic)
GRAPH_SEEDS = {"CA": 1, "SE": 1, "PG": 2}

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 5

#: a run measures a fixed number of ops, so that two versions of the
#: program are timed on the same work: ``--seconds`` buys as many as
#: fit at the calibrated op time, but never fewer than MIN_OPS, so the
#: tail percentile always has ten ops beyond it
MIN_OPS = 12
#: calibrated wall time of one solve-cold op (2-core x86 host)
SOLVE_S = 2.7


@dataclass
class Op:
    """One timed operation: a solve, or one served query."""

    index: int
    start: float
    end: float = 0.0
    ok: bool = False
    tier: str = ""  # serve: exact / prefix / cold; solve: "solve"
    theta: int = 0
    coalesced: bool = False
    error: str = ""
    seeds: tuple = ()
    key: tuple = ()  # serve: (graph, entropy, k, epsilon)
    rotation: int = 0  # serve: traffic rotation the op belongs to

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class RunResult:
    """What one workload run hands to the reporter."""

    ops: list
    wall_s: float
    setup_s: list
    build_s: list
    pool_start_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    errors: list = field(default_factory=list)
    digest: object = None  # solve: one digest; serve: one per rotation
    memory: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _graph(code: str, model: str, scale: str):
    raw = load_dataset(code, scale, rng=GRAPH_SEEDS[code])
    graph = assign_ic_weights(raw) if model == "IC" else assign_lt_weights(raw)
    graph.fingerprint()  # lazy content hash, paid once in set-up
    return graph


class _NullProbe:
    """Stand-in for the traced run's recorder: every hook is a no-op."""

    def op(self, index):
        return nullcontext()

    def bind(self, query, index):
        pass


NULL_PROBE = _NullProbe()


# -- solve-cold ----------------------------------------------------------------


class SolveCold:
    """Back-to-back cold ``run_imm`` solves in eIM's configuration.

    CA at paper scale, IC in-degree weights, k=50, epsilon=0.5, source
    elimination on, two sampler workers on the default data plane.  Op
    ``i`` solves with a fresh generator seeded ``(seed, i)``.
    """

    K = 50
    EPSILON = 0.5
    N_JOBS = 2

    def __init__(self, seed: int, scale: str = "paper"):
        self.seed = int(seed)
        self.scale = scale
        self.options = IMMOptions(
            model="IC", eliminate_sources=True, n_jobs=self.N_JOBS
        )
        self.graph = None
        self.pool = None

    def manifest(self) -> dict:
        return {
            "dataset": "CA", "scale": self.scale, "model": "IC",
            "k": self.K, "epsilon": self.EPSILON, "n_jobs": self.N_JOBS,
            "eliminate_sources": True, "memory_budget_mb": None,
            "data_plane": self.pool.data_plane if self.pool else None,
        }

    def setup(self) -> tuple[float, float, float]:
        """Graph, resident pool with its workers attached; returns
        ``(total, graph build, pool start)`` seconds."""
        shutdown_pools()
        self.graph = self.pool = None
        t0 = time.perf_counter()
        self.graph = _graph("CA", "IC", self.scale)
        t1 = time.perf_counter()
        self.pool = shared_pool(self.graph, self.N_JOBS)
        # a tiny fan-out starts the workers and attaches the graph —
        # lazy set-up every first solve would otherwise pay
        self.pool.sample("IC", 4 * self.N_JOBS, rng=0, eliminate_sources=True)
        t2 = time.perf_counter()
        return t2 - t0, t1 - t0, t2 - t1

    def _solve(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        return run_imm(self.graph, self.K, self.EPSILON, rng=rng,
                       options=self.options)

    @staticmethod
    def op_count(seconds: float) -> int:
        return max(MIN_OPS, round(seconds / SOLVE_S))

    def warm(self, seconds: float) -> None:
        """Nothing to warm: every solve is cold by definition."""

    def run(self, seconds: float, probe=NULL_PROBE) -> tuple[list, float]:
        ops = []
        begin = time.perf_counter()
        for _ in range(self.op_count(seconds)):
            op = Op(index=len(ops), start=time.perf_counter(), tier="solve")
            with probe.op(op.index):
                result = self._solve(op.index)
            op.end = time.perf_counter()
            op.ok = True
            op.theta = int(result.theta)
            op.seeds = tuple(int(v) for v in result.seeds)
            ops.append(op)
        return ops, time.perf_counter() - begin

    def check(self, ops: list) -> list[str]:
        """Seed sets are k distinct in-range vertices, and op 0 repeats
        bit for bit when solved again from the same seed."""
        errors = []
        for op in ops:
            seeds = op.seeds
            if len(seeds) != self.K or len(set(seeds)) != self.K:
                errors.append(f"solve {op.index}: {len(set(seeds))} distinct "
                              f"seeds of {len(seeds)}, expected {self.K}")
            if any(not 0 <= v < self.graph.n for v in seeds):
                errors.append(f"solve {op.index}: seed out of range")
        again = self._solve(0)
        if tuple(int(v) for v in again.seeds) != ops[0].seeds or \
                int(again.theta) != ops[0].theta:
            errors.append("solve 0 did not repeat at a fixed seed")
        return errors

    def digest(self, ops: list) -> str:
        """One digest of every solve's theta and seed set."""
        return _digest((op.theta, op.seeds) for op in ops)

    def close(self) -> None:
        shutdown_pools()


# -- serve-burst / serve-budget -------------------------------------------------


#: the serving graphs: (code, model) per graph index
SERVE_GRAPHS = (("SE", "IC"), ("PG", "LT"))
#: dashboard cells per graph: a fine k x epsilon grid, so that outside
#: the default view a cell rarely repeats and exact hits stay a steady
#: minority
SERVE_CELLS = {
    0: [(k, round(e / 100, 2)) for k in range(5, 61) for e in range(50, 71, 2)],
    1: [(k, round(e / 100, 2)) for k in range(20, 61) for e in range(60, 81)],
}
#: the view every burst on a returning stream opens with (an exact hit
#: once warm), and the cell that needs the most RRR sets on each graph
DEFAULT_CELL = {0: (20, 0.5), 1: (40, 0.7)}
STRICTEST_CELL = {0: (60, 0.5), 1: (20, 0.6)}
#: stream identities by popularity rank: the graph each rank serves and
#: its bursts per rotation (Zipf-like).  Ranks below PERSISTENT_RANKS
#: keep their stream for the whole run and are warmed before timing;
#: the long tail opens a fresh stream on every visit, so those bursts
#: are cold, with FRESH_BURST cells each.  PG gets one returning
#: stream with few queries: under the budget its queries cost 2-4 s,
#: and more of them would put serve-budget's tail on their boundary.
RANK_GRAPH = (0, 0, 0, 1, 0, 0, 0, 0, 0)
RANK_VISITS = (6, 3, 3, 2, 2, 1, 1, 1, 1)
PERSISTENT_RANKS = 5
FRESH_BURST = 3
MAX_BURST = 8
#: substrate slots: fewer than the streams a run opens, so stale tail
#: streams are evicted, yet enough that a returning stream (visited at
#: least twice a rotation) is not
MAX_SUBSTRATES = 12
#: calibrated wall time of one traffic rotation (2-core x86 host),
#: unbudgeted and at BUDGET_MB; ``--seconds`` buys that many whole
#: rotations, at least one
ROTATION_S = {None: 5.0, "budget": 30.0}
#: serve-budget's memory budget (MiB): far below the unbudgeted peak
#: charged bytes (about 1 GiB), so every burst demotes and promotes
BUDGET_MB = 64.0


@dataclass(frozen=True)
class Burst:
    """One dashboard burst: cells of one stream identity."""

    graph: int
    entropy: tuple
    cells: tuple
    rotation: int  # 0 for the warm-up, then 1, 2, ...


def returning_stream(rank: int) -> tuple:
    """Entropy of a returning stream.  Like the graphs, these streams
    are part of the workload's definition: a handful of them carries
    most of the traffic, and redrawing them per seed would make a run's
    cost hinge on which estimation phase five random streams stop at."""
    return (0xE1, rank)


def serve_trace(seed: int, rotations: int) -> tuple[list, list]:
    """``(warm-up bursts, timed bursts)`` for ``rotations`` rotations.

    Every rotation has the same composition: each rank's visit count,
    and burst sizes 1..8 dealt largest-first to the most popular ranks
    (a popular stream backs a busy dashboard).  Runs with different
    seeds differ in burst order, cells and tail streams, not in how
    much of each kind of work they hold.
    """
    rng = np.random.default_rng([seed, 0xB0])
    warmup = [
        Burst(RANK_GRAPH[r], returning_stream(r),
              (STRICTEST_CELL[RANK_GRAPH[r]], DEFAULT_CELL[RANK_GRAPH[r]]), 0)
        for r in range(PERSISTENT_RANKS)
    ]
    visits = [rank for rank, n in enumerate(RANK_VISITS) for _ in range(n)]
    returning = sum(RANK_VISITS[:PERSISTENT_RANKS])
    sizes = sorted(((i % MAX_BURST) + 1 for i in range(returning)),
                   reverse=True)
    sizes += [FRESH_BURST] * (len(visits) - returning)
    bursts = []
    for rotation in range(rotations):
        for i in rng.permutation(len(visits)):
            rank = visits[i]
            graph = RANK_GRAPH[rank]
            grid = SERVE_CELLS[graph]
            picks = [grid[int(j)] for j in
                     rng.choice(len(grid), size=sizes[i], replace=False)]
            # a dashboard lists its strictest cells first: smallest
            # epsilon, then largest k
            picks.sort(key=lambda c: (c[1], -c[0]))
            if rank < PERSISTENT_RANKS:
                entropy = returning_stream(rank)
                picks = [DEFAULT_CELL[graph]] + [
                    c for c in picks if c != DEFAULT_CELL[graph]
                ][: sizes[i] - 1]
            else:
                entropy = (seed, rank, rotation + 1)
            bursts.append(Burst(graph, entropy, tuple(picks), rotation + 1))
    return warmup, bursts


class Serve:
    """A closed loop of dashboard bursts over one ``InfluenceService``.

    One client thread submits every cell of a burst, waits for all of
    them, then sends the next burst.  ``budget_mb`` set turns this into
    the ``serve-budget`` workload.
    """

    def __init__(self, seed: int, scale: str = "paper",
                 budget_mb: Optional[float] = None):
        self.seed = int(seed)
        self.scale = scale
        self.budget_mb = budget_mb
        self.graphs: list = []
        self.service: Optional[InfluenceService] = None

    def manifest(self) -> dict:
        return {
            "datasets": [f"{c}/{m}" for c, m in SERVE_GRAPHS],
            "scale": self.scale, "ranks": len(RANK_GRAPH),
            "persistent_ranks": PERSISTENT_RANKS,
            "max_burst": MAX_BURST, "fresh_burst": FRESH_BURST,
            "max_substrates": MAX_SUBSTRATES,
            "memory_budget_mb": self.budget_mb,
        }

    def setup(self) -> tuple[float, float, float]:
        """Graphs, a started service, the LT selection index; returns
        ``(total, graph build, 0)`` seconds."""
        self.close()
        clear_selection_indices()
        t0 = time.perf_counter()
        self.graphs = [_graph(code, model, self.scale)
                       for code, model in SERVE_GRAPHS]
        t1 = time.perf_counter()
        self.service = InfluenceService(ServiceOptions(
            max_substrates=MAX_SUBSTRATES, memory_budget_mb=self.budget_mb))
        for i, graph in enumerate(self.graphs):
            self.service.register_graph(f"g{i}", graph)
        # the LT sampler builds its per-graph selection index on first
        # use; that is lazy set-up, not part of any query
        from repro.rrr import get_sampler

        for graph, (_, model) in zip(self.graphs, SERVE_GRAPHS):
            if model == "LT":
                get_sampler("LT")(graph, 1, rng=0)
        t2 = time.perf_counter()
        return t2 - t0, t1 - t0, 0.0

    def query(self, graph: int, entropy: tuple, k: int,
              eps: float) -> InfluenceQuery:
        return InfluenceQuery(
            f"g{graph}", k=k, epsilon=eps,
            options=IMMOptions(model=SERVE_GRAPHS[graph][1]),
            entropy=entropy,
        )

    def rotations(self, seconds: float) -> int:
        per = ROTATION_S["budget" if self.budget_mb else None]
        return max(1, round(seconds / per))

    def _serve(self, bursts, ops: list, probe) -> None:
        """Closed loop: submit a burst, wait for all of it, repeat."""
        for burst in bursts:
            pending = []
            for k, eps in burst.cells:
                op = Op(index=len(ops), start=0.0, rotation=burst.rotation,
                        key=(burst.graph, burst.entropy, k, eps))
                ops.append(op)
                query = self.query(burst.graph, burst.entropy, k, eps)
                probe.bind(query, op.index)
                op.start = time.perf_counter()
                try:
                    with probe.op(op.index):
                        future = self.service.submit(query)
                except Exception as exc:  # shed at admission: a failed op
                    op.end = time.perf_counter()
                    op.error = type(exc).__name__
                    continue
                future.add_done_callback(
                    lambda _f, op=op: setattr(op, "end", time.perf_counter())
                )
                pending.append((op, future))
            wait_futures([f for _, f in pending])
            for op, future in pending:
                exc = future.exception()
                if exc is not None:
                    op.error = type(exc).__name__
                    continue
                outcome = future.result()
                if outcome.degraded:  # a stand-in answer, not the query's
                    op.error = "degraded"
                    continue
                op.ok = True
                op.tier = outcome.cache_tier
                op.theta = int(outcome.result.theta)
                op.coalesced = bool(outcome.coalesced)
                op.seeds = tuple(int(v) for v in outcome.seeds)

    def warm(self, seconds: float) -> None:
        """Untimed: bring the returning streams to their largest theta
        and cache their default view (a long-running service is warm)."""
        warmup, self._timed = serve_trace(self.seed, self.rotations(seconds))
        self.warm_ops: list = []
        self._serve(warmup, self.warm_ops, NULL_PROBE)

    def run(self, seconds: float, probe=NULL_PROBE) -> tuple[list, float]:
        ops: list = []
        begin = time.perf_counter()
        self._serve(self._timed, ops, probe)
        return ops, time.perf_counter() - begin

    def check(self, ops: list) -> list[str]:
        """Every served answer (warm-up included) equals a direct
        ``run_imm`` on a fresh store of the same stream identity, once
        per distinct result key.

        The fresh stores are the gate's own — built in two spawned
        processes from regenerated graphs, never the service's or this
        process's registry — and are grown strictest-cell-first, not in
        the order the service grew them.
        """
        errors = [f"op {op.index}: {op.error}"
                  for op in self.warm_ops if not op.ok]
        answers: dict = {}
        for op in self.warm_ops + ops:
            if op.ok:
                answers.setdefault(op.key, set()).add(op.seeds)
        streams: dict = {}
        for key in answers:
            streams.setdefault(key[:2], []).append(key)
        # largest streams first, dealt alternately to the two processes
        order = sorted(streams.items(), key=lambda kv: -len(kv[1]))
        shares = [order[0::2], order[1::2]]
        chunk_sets = self.service.options.chunk_sets
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            futures = [pool.submit(direct_answers, self.scale, chunk_sets,
                                   share) for share in shares if share]
            for future in futures:
                for key, expect in future.result():
                    if answers[key] != {expect}:
                        errors.append(f"served answer for {key} differs "
                                      "from direct run_imm")
        return errors

    def digest(self, ops: list) -> list:
        """Answer digests of the warm-up plus the first 1, 2, ...
        rotations: runs of different lengths compare on their common
        prefix, since the trace for a seed does not depend on its
        length."""
        answered = [op for op in self.warm_ops + ops if op.ok]
        last = max((op.rotation for op in answered), default=0)
        return [_digest((op.key, op.seeds) for op in answered
                        if op.rotation <= r) for r in range(1, last + 1)]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def direct_answers(scale: str, chunk_sets: int, streams) -> list:
    """``[(key, seeds)]``: direct ``run_imm`` answers for ``streams``
    (``[((graph, entropy), keys)]``), each stream on a fresh store."""
    graphs = [_graph(code, model, scale) for code, model in SERVE_GRAPHS]
    out = []
    for (graph_index, entropy), keys in streams:
        options = IMMOptions(model=SERVE_GRAPHS[graph_index][1])
        store = RRRStore(
            graphs[graph_index], model=options.model,
            eliminate_sources=options.eliminate_sources, entropy=entropy,
            n_jobs=options.n_jobs, chunk_sets=chunk_sets,
            batch_size=options.batch_size,
        )
        try:
            for key in sorted(keys, key=lambda c: (c[3], -c[2])):
                result = run_imm(graphs[graph_index], key[2], key[3],
                                 options=options, store=store)
                out.append((key, tuple(int(v) for v in result.seeds)))
        finally:
            store.close()
    return out


WORKLOADS = {
    "solve-cold": lambda seed, scale: SolveCold(seed, scale),
    "serve-burst": lambda seed, scale: Serve(seed, scale),
    "serve-budget": lambda seed, scale: Serve(seed, scale, budget_mb=BUDGET_MB),
}


def execute(name: str, seed: int, seconds: float, scale: str = "paper",
            probe=NULL_PROBE) -> RunResult:
    """Set up ``SETUP_REPEATS`` times, measure, then run the gate."""
    workload = WORKLOADS[name](seed, scale)
    try:
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        workload.warm(seconds)
        gov = governor()
        before = gov.snapshot()
        ops, wall = workload.run(seconds, probe)
        after = gov.snapshot()
        rss = peak_rss_mb()
        errors = workload.check(ops)
        memory = {
            key: after[key] - before[key]
            for key in ("demotions", "promotions", "overcommits")
        }
        memory["peak_charged_bytes"] = after["peak_charged_bytes"]
        return RunResult(
            ops=ops, wall_s=wall,
            setup_s=[s[0] for s in setups],
            build_s=[s[1] for s in setups],
            pool_start_s=[s[2] for s in setups],
            peak_rss_mb=rss, errors=errors,
            digest=workload.digest(ops), memory=memory,
            manifest=workload.manifest(),
        )
    finally:
        workload.close()

