"""Warm-start RRR store: grow a sample once, serve every θ as a prefix.

The IMM martingale analysis (Tang et al. 2015) is exactly what makes
RRR-sample reuse sound: the algorithm only ever needs "the first θ sets
of a fixed random stream", for a θ that grows within a run *and across
the runs of a k/ε sweep*.  The tables drivers used to resample from
scratch for every (k, ε) cell — O(Σθᵢ) sampling for a sweep whose
information content is O(max θᵢ).

:class:`RRRStore` materializes that stream incrementally, in chunks.
Chunk ``j`` is always drawn from the stream
``SeedSequence(entropy, spawn_key=(j,))`` and always holds
``chunk_sets << min(j, _CHUNK_DOUBLINGS)`` kept sets — both pure
functions of ``j`` — so the first θ sets are a deterministic function
of the store key alone, independent of the ``ensure`` call pattern.
Cached-then-topped-up and freshly-grown stores with the same key agree
bit for bit on every shared prefix.

The identity of a stream is its :func:`store_key`:
``(graph fingerprint, model, eliminate_sources, entropy, n_jobs,
chunk_sets, batch_size)`` — everything that shapes either the draws or
their consumption order.  :func:`shared_store` keeps one store per key
for the whole process so sweep drivers (and user code) transparently
share samples.  The data plane is *not* part of the key: planes are
bit-identical by contract, so a store grown on one plane and topped up
on the other still serves one coherent stream.

On the ``shm`` data plane (:mod:`repro.shm`) a store with ``n_jobs>1``
backs its chunks with a shared-memory :class:`~repro.shm.arena.ChunkArena`:
packed worker payloads decode straight into arena segments, so the
warm-start cache itself lives in shared pages rather than private heap.

With a ``checkpoint_dir`` every completed chunk is persisted
(:mod:`repro.resilience.checkpoint`), keyed by the same identity tuple:
a killed sweep re-run with the same directory loads its prefix from
disk — after verifying the fingerprint/entropy key — and only tops up
the deficit.  Because chunks are pure functions of ``(key, j)``, a
resumed store is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.memory.budget import governor
from repro.memory.tiers import COMPRESSED, HOT, TieredChunk, chunk_nbytes
from repro.resilience.deadline import active_deadline
from repro.resilience.options import ResilienceOptions
from repro.rrr.collection import RRRCollection
from repro.rrr.parallel import SamplerPool
from repro.rrr.trace import SampleTrace, empty_trace
from repro.utils.errors import ValidationError

#: the governor account the store's concatenated prefix cache reports under
CONCAT_ACCOUNT = "rrr.concat"

#: chunk sizes double this many times (then stay flat) so huge θ requests
#: need O(log θ) chunks early on without unbounded overshoot later
_CHUNK_DOUBLINGS = 6


def _normalize_entropy(entropy) -> tuple[int, ...]:
    """Entropy as a hashable tuple of non-negative ints."""
    if isinstance(entropy, (int, np.integer)):
        entropy = (int(entropy),)
    try:
        out = tuple(int(e) for e in entropy)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"entropy must be an int or an iterable of ints, got {entropy!r}"
        ) from exc
    if not out or any(e < 0 for e in out):
        raise ValidationError("entropy must contain at least one int >= 0")
    return out


class RRRStore:
    """An append-only RRR sample for one (graph, model, stream) triple.

    :meth:`ensure` returns the first ``theta`` sets (and the matching
    per-set trace) of the store's stream, sampling only what is not yet
    cached.  All chunks are kept, so successive calls with growing θ —
    IMM's estimation phases, or a whole k-sweep — pay each set's
    traversal exactly once.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        model: str = "IC",
        eliminate_sources: bool = False,
        entropy=0,
        n_jobs: int = 1,
        pool: Optional[SamplerPool] = None,
        chunk_sets: int = 4096,
        batch_size: int = 16384,
        checkpoint_dir=None,
        resilience: Optional[ResilienceOptions] = None,
        data_plane: Optional[str] = None,
        visited_mode: Optional[str] = None,
    ):
        if graph.weights is None:
            raise ValidationError("RRRStore requires a weighted graph")
        if chunk_sets < 1:
            raise ValidationError("chunk_sets must be >= 1")
        if n_jobs < 1:
            raise ValidationError("n_jobs must be >= 1")
        if pool is not None and pool.n_jobs != n_jobs:
            raise ValidationError(
                f"pool has n_jobs={pool.n_jobs}, store requested {n_jobs}"
            )
        self.graph = graph
        self.model = str(model).upper()
        self.eliminate_sources = bool(eliminate_sources)
        self.entropy = _normalize_entropy(entropy)
        self.n_jobs = int(n_jobs)
        self.chunk_sets = int(chunk_sets)
        self.batch_size = int(batch_size)
        self.resilience = resilience
        from repro.shm.segments import resolve_data_plane

        # operational knob like checkpoint_dir — planes are
        # bit-identical, so it stays out of key()
        self.data_plane = resolve_data_plane(data_plane)
        from repro.kernels import resolve_visited_mode

        # same contract: every visited mode draws the same stream
        self.visited_mode = resolve_visited_mode(visited_mode)
        self._arena = None  # lazy ChunkArena (shm plane, n_jobs > 1)
        if checkpoint_dir is None and resilience is not None:
            checkpoint_dir = resilience.checkpoint_dir
        # each store nests its own key-digest subdirectory, so one base
        # dir safely holds every stream of a sweep
        self._checkpoint_dir: Optional[Path] = None
        if checkpoint_dir is not None:
            from repro.resilience import checkpoint as _ckpt

            self._checkpoint_dir = _ckpt.store_dir(checkpoint_dir, self.key())
        self._checkpoint_loaded = False
        self._pool = pool
        self._chunks: list[TieredChunk] = []
        self._collection: Optional[RRRCollection] = None  # concat cache
        self._trace: Optional[SampleTrace] = None
        self._concat_accounted = 0  # bytes charged under CONCAT_ACCOUNT
        # tier state is guarded by an RLock so the governor's pressure
        # walk (possibly running on another store's allocating thread)
        # never demotes chunks out from under an in-progress ensure();
        # _relieve() acquires it non-blocking, so cross-store pressure
        # can never deadlock two allocating threads
        self._tier_lock = threading.RLock()
        self._gov = None  # the governor our pressure handler lives on
        self._gov_handle: Optional[int] = None
        self._tmp_spill_dir: Optional[Path] = None  # lazy, sans checkpoint
        # the selection-side cache riding this store: one CoverageIndex
        # over the cached stream, extended chunk by chunk, shared by
        # every phase of every run served from this key
        self._index = None

    # -- identity ------------------------------------------------------------
    def key(self) -> tuple:
        """The stream-identity tuple this store caches under."""
        return (
            self.graph.fingerprint(),
            self.model,
            self.eliminate_sources,
            self.entropy,
            self.n_jobs,
            self.chunk_sets,
            self.batch_size,
        )

    @property
    def num_cached(self) -> int:
        """Kept RRR sets materialized so far (any tier; metadata only —
        reading this never promotes a demoted chunk)."""
        return sum(c.num_sets for c in self._chunks)

    # -- tiering -------------------------------------------------------------
    def governed_nbytes(self) -> int:
        """RAM bytes this store currently holds on the governor's ledger
        (hot chunks, arena segments, compressed columns, concat cache)."""
        with self._tier_lock:
            total = self._concat_accounted
            if self._arena is not None and not self._arena.closed:
                total += self._arena.nbytes
            for chunk in self._chunks:
                total += chunk._hot_accounted
                if chunk._compressed is not None:
                    total += chunk._compressed.nbytes
            return total

    def _spill_base(self) -> Optional[Path]:
        """Where demoted chunks land on disk.

        A checkpointing store spills for free into its checkpoint
        directory (a spilled chunk *is* a chunk checkpoint); otherwise a
        per-store temp directory is created on first use and removed on
        :meth:`close`.
        """
        if self._checkpoint_dir is not None:
            return self._checkpoint_dir
        if self._tmp_spill_dir is None:
            self._tmp_spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        return self._tmp_spill_dir

    def _wrap_chunk(
        self, j: int, collection: RRRCollection, trace: SampleTrace,
        on_disk: bool = False,
    ) -> TieredChunk:
        from repro.resilience import checkpoint as _ckpt

        arena_release = None
        if self._arena is not None and not self._arena.closed and self._arena.owns(collection):
            arena_release = self._arena.release_segment_of
        return TieredChunk(
            j,
            collection,
            trace,
            spill_path=_ckpt.chunk_path(self._spill_base(), j),
            arena_release=arena_release,
            on_disk=on_disk,
        )

    def _ensure_governed(self) -> None:
        """Register (or lazily re-register) this store's pressure handler.

        ``reset_governor`` replaces the process governor wholesale, so
        the registration is checked against the *current* governor on
        every growth path rather than cached forever.  The handler
        holds only a weak reference: the governor is process-global,
        and a strong ref here would pin every store (and its arena
        segments) for the life of the process.
        """
        gov = governor()
        if self._gov is not gov:
            self._gov = gov
            ref = weakref.ref(self)

            def _handler(deficit: int, ref=ref) -> int:
                store = ref()
                return 0 if store is None else store._relieve(deficit)

            self._gov_handle = gov.add_pressure_handler(_handler, priority=10)

    def _relieve(self, deficit: int) -> int:
        """Governor pressure hook: demote cold chunks until ``deficit``
        RAM bytes are freed (or nothing demotable remains).

        Policy, cheapest-to-undo first: hot chunks compress in LRU
        order, then compressed chunks spill to disk, and only then is
        the concatenated prefix cache dropped (it is pure cache, but
        rebuilding it means decoding every chunk).  Non-blocking: if
        another thread is mid-``ensure`` on this store, pressure moves
        on to the next handler instead of deadlocking.
        """
        if not self._tier_lock.acquire(blocking=False):
            return 0
        try:
            freed = 0
            for state in (HOT, COMPRESSED):
                if freed >= deficit:
                    return freed
                cold_first = sorted(
                    (c for c in self._chunks if c.state == state),
                    key=lambda c: c.last_touch,
                )
                for chunk in cold_first:
                    if freed >= deficit:
                        return freed
                    if (
                        state == HOT
                        and chunk._hot is not None
                        and self._collection is chunk._hot[0]
                    ):
                        # the concat cache aliases this (single) chunk's
                        # arrays; drop the alias or the demotion frees
                        # accounting without freeing memory
                        freed += self._drop_concat()
                    freed += chunk.demote()
            if freed < deficit:
                freed += self._drop_concat()
            return freed
        finally:
            self._tier_lock.release()

    def _drop_concat(self) -> int:
        """Invalidate the concatenated prefix cache; returns bytes freed."""
        freed = self._concat_accounted
        if self._concat_accounted:
            governor().account(CONCAT_ACCOUNT, "resident", -self._concat_accounted)
            self._concat_accounted = 0
        self._collection = None
        self._trace = None
        return freed

    # -- growth --------------------------------------------------------------
    def _chunk_size(self, j: int) -> int:
        return self.chunk_sets << min(j, _CHUNK_DOUBLINGS)

    def _chunk_rng(self, j: int) -> np.random.Generator:
        # spawn_key=(j,) is exactly what SeedSequence(entropy).spawn()
        # would produce as its j-th child, without having to persist (or
        # trust the call history of) a live parent object
        seq = np.random.SeedSequence(self.entropy, spawn_key=(j,))
        return np.random.Generator(np.random.PCG64(seq))

    def _ensure_arena(self):
        """The shared-memory chunk arena (shm plane, fan-out only)."""
        if self.data_plane != "shm" or self.n_jobs <= 1:
            return None
        if self._arena is None or self._arena.closed:
            from repro.shm.arena import ChunkArena

            self._arena = ChunkArena()
        return self._arena

    def _sample_chunk(self, j: int) -> tuple[RRRCollection, SampleTrace]:
        rng = self._chunk_rng(j)
        count = self._chunk_size(j)
        if self.n_jobs > 1:
            if self._pool is None or self._pool.closed:
                from repro.rrr.parallel import shared_pool

                self._pool = shared_pool(
                    self.graph, self.n_jobs, data_plane=self.data_plane
                )
            return self._pool.sample(
                self.model,
                count,
                rng=rng,
                eliminate_sources=self.eliminate_sources,
                batch_size=self.batch_size,
                visited_mode=self.visited_mode,
                resilience=self.resilience,
                arena=self._ensure_arena(),
            )
        from repro.rrr import get_sampler

        return get_sampler(self.model)(
            self.graph,
            count,
            rng=rng,
            eliminate_sources=self.eliminate_sources,
            batch_size=self.batch_size,
            visited_mode=self.visited_mode,
        )

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the store's shared-memory arena (if any); idempotent.

        Cached chunk *contents* become invalid after close — this is for
        teardown (tests, :func:`clear_stores`), not mid-run trimming.
        """
        with self._tier_lock:
            if self._gov is not None and self._gov_handle is not None:
                self._gov.remove_pressure_handler(self._gov_handle)
                self._gov = None
                self._gov_handle = None
            for chunk in self._chunks:
                chunk.close()
            self._chunks = []
            self._drop_concat()
            if self._arena is not None:
                self._arena.close()
                self._arena = None
            self._index = None
            if self._tmp_spill_dir is not None:
                shutil.rmtree(self._tmp_spill_dir, ignore_errors=True)
                self._tmp_spill_dir = None

    def __del__(self):  # pragma: no cover - GC backstop
        # stores abandoned without close() must not leave their concat
        # bytes (or a dead pressure handler) on the process governor
        try:
            self.close()
        except Exception:
            pass

    # -- checkpointing -------------------------------------------------------
    def _load_checkpoint(self) -> None:
        """Adopt the completed chunk prefix persisted on disk (once).

        Verifies the manifest against :meth:`key` (mismatch raises
        :class:`~repro.utils.errors.CheckpointError`) and stops at the
        first missing or partial chunk — chunks are pure functions of
        ``(key, j)``, so the rest is simply resampled.
        """
        if self._checkpoint_dir is None or self._checkpoint_loaded:
            return
        self._checkpoint_loaded = True
        from repro.resilience import checkpoint as _ckpt

        chunks = _ckpt.load_chunks(
            self._checkpoint_dir, self.key(), self.graph.n, self._chunk_size
        )
        if len(chunks) > len(self._chunks):
            # already on disk => a later spill of these chunks is free
            self._chunks = [
                self._wrap_chunk(j, collection, trace, on_disk=True)
                for j, (collection, trace) in enumerate(chunks)
            ]
            self._drop_concat()
            # a tight budget may not even want the resumed prefix hot;
            # rebalance immediately rather than after the first top-up
            governor().request(0)

    def _save_chunk(self, j: int, chunk: tuple[RRRCollection, SampleTrace]) -> None:
        if self._checkpoint_dir is None:
            return
        from repro.resilience import checkpoint as _ckpt

        _ckpt.write_manifest(self._checkpoint_dir, self.key())
        _ckpt.save_chunk(self._checkpoint_dir, j, chunk[0], chunk[1])

    def ensure(self, theta: int) -> tuple[RRRCollection, SampleTrace]:
        """The first ``theta`` sets of this stream, sampling any deficit.

        Returns a prefix view (cheap slices of the cached arrays) plus
        the per-set trace covering exactly the attempts that produced
        those ``theta`` kept sets.
        """
        if theta < 0:
            raise ValidationError("theta must be non-negative")
        obs.counter_add("rrr.store.requests", 1)
        with self._tier_lock:
            self._ensure_governed()
            self._load_checkpoint()
            cached = self.num_cached
            obs.counter_add("rrr.store.reused_sets", min(theta, cached))
            sampled_new = 0
            deadline = active_deadline()
            if self.num_cached < theta:
                # the concat is about to go stale; dropping it *before*
                # sampling keeps the ledger from holding the old prefix
                # and the new chunks at once under a tight budget
                self._drop_concat()
            while self.num_cached < theta:
                # cached prefixes always serve; only *new* sampling is
                # subject to the ambient deadline, one chunk at a time
                if deadline is not None:
                    deadline.check("store chunk top-up")
                j = len(self._chunks)
                with obs.span("rrr.store.topup"):
                    collection, trace = self._sample_chunk(j)
                # make room (demoting older chunks) before the new
                # chunk's bytes land on the ledger, so peak residency
                # tracks the budget instead of budget + chunk
                governor().request(chunk_nbytes(collection, trace))
                self._save_chunk(j, (collection, trace))
                self._chunks.append(
                    self._wrap_chunk(
                        j, collection, trace,
                        on_disk=self._checkpoint_dir is not None,
                    )
                )
                sampled_new += collection.num_sets
            if sampled_new:
                obs.counter_add("rrr.store.topups", 1)
                obs.counter_add("rrr.store.sampled_sets", sampled_new)
            self._materialize()
            return self._collection.prefix(theta), self._trace_prefix(theta)

    def _materialize(self) -> None:
        """Rebuild the concatenated collection/trace caches if stale.

        Chunk reads here are *transient* (``promote=False``): under a
        tight budget each demoted chunk's decode streams into the
        concat without re-hydrating the chunk list, so accounted
        residency after a rebuild is one concat — not concat plus
        every chunk hot again.
        """
        if self._collection is not None:
            return
        with self._tier_lock:
            if self._collection is not None:
                return
            if not self._chunks:
                self._collection = RRRCollection(
                    np.empty(0, dtype=np.int32),
                    np.zeros(1, dtype=np.int64),
                    self.graph.n,
                    sources=np.empty(0, dtype=np.int64),
                )
                self._trace = empty_trace()
                return
            # make room up front: the rebuilt cache is roughly the
            # chunks' combined hot footprint
            governor().request(sum(c.nbytes_hot for c in self._chunks))
            parts = [c.get(promote=False) for c in self._chunks]
            if len(parts) == 1:
                collection, trace = parts[0]
            else:
                collection = RRRCollection.concat([c for c, _ in parts])
                trace = empty_trace()
                for _, t in parts:
                    trace = trace.merged_with(t)
            self._collection = collection
            self._trace = trace
            chunk0 = self._chunks[0]
            aliased = (
                len(self._chunks) == 1
                and chunk0._hot is not None
                and collection is chunk0._hot[0]
            )
            # charge the cache unless it aliases a (single) hot chunk's
            # arrays, which the chunk already accounts for
            self._concat_accounted = (
                0 if aliased else chunk_nbytes(collection, trace)
            )
            if self._concat_accounted:
                governor().account(
                    CONCAT_ACCOUNT, "resident", self._concat_accounted
                )

    def coverage_index(self):
        """The persistent vertex->position :class:`~repro.imm.coverage.CoverageIndex`
        over this store's cached stream.

        Extended in place as chunks accumulate — chunk contents are pure
        functions of ``(key, j)``, so the already-indexed prefix never
        changes, across top-ups *and* across checkpoint resume.  Seed
        selection on any ``ensure(theta)`` prefix view passes this index
        and clips postings to the prefix, so a whole k/ε sweep builds
        each posting exactly once.
        """
        from repro.imm.coverage import CoverageIndex

        with self._tier_lock:
            self._ensure_governed()
            self._load_checkpoint()
            self._materialize()
            if self._index is None:
                self._index = CoverageIndex(self.graph.n)
            self._index.extend_to(self._collection)
            return self._index

    def _trace_prefix(self, theta: int) -> SampleTrace:
        """The trace slice covering the attempts behind the first
        ``theta`` kept sets (discarded attempts in between included)."""
        trace = self._trace
        if theta == 0 or trace.attempted == 0:
            return empty_trace()
        kept_cum = np.cumsum(trace.kept_mask)
        cut = int(np.searchsorted(kept_cum, theta, side="left")) + 1
        if cut >= trace.attempted:
            return trace
        # raw_singletons is a scalar over the whole sample; pro-rate it
        # over the attempts actually consumed (diagnostic only)
        raw = int(round(trace.raw_singletons * cut / trace.attempted))
        return SampleTrace(
            sizes=trace.sizes[:cut],
            rounds=trace.rounds[:cut],
            edges_examined=trace.edges_examined[:cut],
            kept_mask=trace.kept_mask[:cut],
            raw_singletons=raw,
            sources=trace.sources[:cut],
            resilience=trace.resilience,
        )


# -- shared store registry ---------------------------------------------------
_STORES: dict[tuple, RRRStore] = {}
# the registry is hit from concurrent service workers; without the lock
# two same-key lookups could both miss and build duplicate stores, each
# re-sampling the stream the other already paid for
_STORES_LOCK = threading.Lock()


def shared_store(
    graph: DirectedGraph,
    model: str = "IC",
    eliminate_sources: bool = False,
    entropy=0,
    n_jobs: int = 1,
    pool: Optional[SamplerPool] = None,
    chunk_sets: int = 4096,
    batch_size: int = 16384,
    checkpoint_dir=None,
    resilience: Optional[ResilienceOptions] = None,
    data_plane: Optional[str] = None,
    visited_mode: Optional[str] = None,
) -> RRRStore:
    """The process-wide :class:`RRRStore` for this stream identity.

    Repeated calls with the same key — e.g. every cell of a k-sweep —
    return the same store, which is what turns the sweep's sampling cost
    from O(Σθᵢ) into O(max θᵢ).

    ``checkpoint_dir`` / ``resilience`` / ``data_plane`` /
    ``visited_mode`` are operational knobs, not part of the stream
    identity: a cache hit keeps the first
    store's configuration (the planes produce bit-identical sets, so the
    stream is the same either way).  A cached store whose explicit pool
    has since been closed is healed on lookup (its pool reference is
    dropped, so the next top-up re-acquires a live :func:`shared_pool`)
    — stale registry state can never serve a dead executor.
    """
    # the key is computed without constructing a store so a cache hit
    # does no work; it must mirror RRRStore.key() (asserted below)
    key = (
        graph.fingerprint(),
        str(model).upper(),
        bool(eliminate_sources),
        _normalize_entropy(entropy),
        int(n_jobs),
        int(chunk_sets),
        int(batch_size),
    )
    with _STORES_LOCK:
        cached = _STORES.get(key)
        if cached is not None:
            if cached._pool is not None and cached._pool.closed:
                cached._pool = None
                obs.counter_add("rrr.store.pool_healed", 1)
            obs.counter_add("rrr.store.shared_hits", 1)
            return cached
        store = RRRStore(
            graph,
            model=model,
            eliminate_sources=eliminate_sources,
            entropy=entropy,
            n_jobs=n_jobs,
            pool=pool,
            chunk_sets=chunk_sets,
            batch_size=batch_size,
            checkpoint_dir=checkpoint_dir,
            resilience=resilience,
            data_plane=data_plane,
            visited_mode=visited_mode,
        )
        assert store.key() == key
        _STORES[key] = store
        return store


def clear_stores() -> None:
    """Drop every shared store, releasing their shared-memory arenas
    (tests and memory-pressure relief)."""
    with _STORES_LOCK:
        stores = list(_STORES.values())
        _STORES.clear()
    for store in stores:
        store.close()


# like the pool registry's shutdown_pools hook: resident arenas must not
# outlive the interpreter (the SegmentRegistry atexit backstop would catch
# them, but eagerly closing here keeps the backstop a true last resort)
atexit.register(clear_stores)
