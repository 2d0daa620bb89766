"""The service's multi-tier result cache.

Two tiers, from cheapest to most expensive:

* **Tier 1 — exact results** (:class:`ExactResultCache`): an LRU of
  finished :class:`~repro.imm.imm.IMMResult` objects keyed by the full
  result key.  A repeat query costs a dictionary lookup and samples
  zero new RRR sets.
* **Tier 2 — sampling substrates** (:class:`SubstrateTable`): an LRU of
  :class:`Substrate` objects — one warm-start
  :class:`~repro.rrr.store.RRRStore` (whose chunks are
  prefix-deterministic) plus the persistent
  :class:`~repro.imm.coverage.CoverageIndex` riding on it — keyed by
  the coalescing key.  A new ``(k, ε)`` against a warm substrate reuses
  the indexed RRR prefix and only re-runs selection; only a theta
  beyond the cached prefix samples, and only the deficit.

Both tiers are thread-safe; the substrate table additionally tracks
in-flight use so eviction never closes a store a worker is reading.
Evictions are published as ``service.evictions``.

Both tiers also register with the process memory governor
(:mod:`repro.memory.budget`): cached results pin the RRR prefix views
they carry, so under memory pressure the result cache sheds LRU
entries (releasing those pins) and the substrate table closes *idle*
substrates — never one with an in-flight query, the same invariant its
capacity eviction already honors.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.memory.budget import governor

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.imm.imm import IMMResult
    from repro.service.query import ResultKey
    from repro.rrr.store import RRRStore

#: governor account for tier-1 cached results (their owned arrays only;
#: the RRR views they pin are accounted by the store that built them)
RESULTS_ACCOUNT = "service.results"
#: governor account marker for tier-2 substrates (the stores themselves
#: account their bytes under ``rrr.*``; the table contributes pressure
#: handling, not bytes)
SUBSTRATES_ACCOUNT = "service.substrates"


def _result_owned_nbytes(result: "IMMResult") -> int:
    """The bytes a cached result *owns* (seed array and friends).

    Deliberately excludes ``result.collection`` — that is a view over
    the producing store's concat cache, already on the ledger under
    ``rrr.concat``; charging it here would double-count.  Entries that
    are not :class:`IMMResult` objects (test doubles) get a nominal
    charge so the LRU accounting still moves.
    """
    seeds = getattr(result, "seeds", None)
    if seeds is None or not hasattr(seeds, "nbytes"):
        return 256
    total = int(seeds.nbytes)
    try:
        total += int(result.selection.coverage_history.nbytes)
    except AttributeError:
        pass
    return total


class ExactResultCache:
    """Thread-safe LRU over finished query results (tier 1)."""

    def __init__(self, capacity: int):
        self._capacity = int(capacity)
        self._entries: "OrderedDict[tuple, IMMResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._accounted = 0
        self._gov = None
        self._gov_handle: Optional[int] = None

    def _ensure_governed_locked(self) -> None:
        gov = governor()
        if self._gov is not gov:
            self._gov = gov
            # results are pure cache: shed them late, after chunk
            # demotion (10) but before idle substrates close (30).
            # Weak ref: the process-global governor must not pin caches
            # (and the result views they hold) past their service.
            ref = weakref.ref(self)

            def _handler(deficit: int, ref=ref) -> int:
                cache = ref()
                return 0 if cache is None else cache._relieve(deficit)

            self._gov_handle = gov.add_pressure_handler(_handler, priority=20)

    def _relieve(self, deficit: int) -> int:
        """Pressure hook: drop LRU results until the cache is empty or
        the (estimated) pinned bytes shed reach ``deficit``.

        The freed estimate counts each entry's pinned prefix view —
        dropping the last reference to a demoted store's concat is the
        actual memory win, even though those bytes sit on the store's
        account, not this one.
        """
        freed = 0
        with self._lock:
            while self._entries and freed < deficit:
                _, result = self._entries.popitem(last=False)
                owned = _result_owned_nbytes(result)
                self._accounted = max(0, self._accounted - owned)
                governor().account(RESULTS_ACCOUNT, "resident", -owned)
                freed += owned
                collection = getattr(result, "collection", None)
                if collection is not None:
                    freed += int(collection.flat.nbytes)
                obs.counter_add("service.evictions", 1)
                obs.counter_add("service.memory_evictions", 1)
        return freed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> "Optional[IMMResult]":
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: tuple, result: "IMMResult") -> None:
        if self._capacity == 0:
            return
        with self._lock:
            self._ensure_governed_locked()
            previous = self._entries.get(key)
            delta = _result_owned_nbytes(result)
            if previous is not None:
                delta -= _result_owned_nbytes(previous)
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                _, dropped = self._entries.popitem(last=False)
                delta -= _result_owned_nbytes(dropped)
                obs.counter_add("service.evictions", 1)
            self._accounted = max(0, self._accounted + delta)
            governor().account(RESULTS_ACCOUNT, "resident", delta)

    def find_relaxed(
        self, key: "ResultKey", slack: float
    ) -> "Optional[tuple[float, IMMResult]]":
        """Best epsilon-relaxed stand-in for ``key`` (degraded serving).

        Scans for entries that differ from ``key`` only in ``epsilon``
        and whose epsilon is at most ``slack * key.epsilon``; returns
        ``(cached_epsilon, result)`` for the tightest such entry,
        preferring any ``epsilon' <= epsilon`` (a strictly better
        answer) over looser ones.  Does not touch LRU order — degraded
        reads shouldn't pin entries the healthy path isn't using.
        """
        epsilon = float(key.epsilon)
        best: "Optional[tuple[float, IMMResult]]" = None
        with self._lock:
            for entry_key, result in self._entries.items():
                if entry_key._replace(epsilon=key.epsilon) != key:
                    continue
                cached_eps = float(entry_key.epsilon)
                if cached_eps > slack * epsilon:
                    continue
                if best is None or cached_eps < best[0]:
                    best = (cached_eps, result)
        return best

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._accounted:
                governor().account(RESULTS_ACCOUNT, "resident", -self._accounted)
                self._accounted = 0
            if self._gov is not None and self._gov_handle is not None:
                self._gov.remove_pressure_handler(self._gov_handle)
                self._gov = None
                self._gov_handle = None

    def __del__(self):  # pragma: no cover - GC backstop
        # a cache dropped without clear() must credit its ledger bytes
        try:
            self.clear()
        except Exception:
            pass


@dataclass
class Substrate:
    """The shared sampling state behind one coalescing key.

    ``lock`` serializes same-key queries onto the store (the coalescing
    discipline: one ``ensure(max θ)`` stream, one index — never two
    threads growing the same chunks).  ``inflight`` guards eviction;
    ``queries`` counts lifetime traffic for introspection.
    """

    key: tuple
    store: "RRRStore"
    lock: threading.Lock = field(default_factory=threading.Lock)
    inflight: int = 0
    queries: int = 0


class SubstrateTable:
    """Thread-safe LRU of sampling substrates (tier 2).

    ``acquire`` returns the substrate for a key — creating it via
    ``factory`` on first use — with its in-flight count already bumped,
    so a concurrent eviction sweep cannot close it mid-query.  Callers
    must pair every ``acquire`` with ``release``.
    """

    def __init__(self, capacity: int):
        self._capacity = int(capacity)
        self._entries: "OrderedDict[tuple, Substrate]" = OrderedDict()
        self._lock = threading.Lock()
        self._gov = None
        self._gov_handle: Optional[int] = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def _ensure_governed_locked(self) -> None:
        gov = governor()
        if self._gov is not gov:
            self._gov = gov
            # closing a warm substrate forfeits its whole cached stream:
            # last resort, after chunk demotion (10) and result-cache
            # shedding (20).  Weak ref, same as the other handlers —
            # the governor must not keep substrate tables (and their
            # stores' segments) alive past their service.
            ref = weakref.ref(self)

            def _handler(deficit: int, ref=ref) -> int:
                table = ref()
                return 0 if table is None else table._relieve(deficit)

            self._gov_handle = gov.add_pressure_handler(_handler, priority=30)

    def _relieve(self, deficit: int) -> int:
        """Pressure hook: close LRU *idle* substrates.

        The in-flight guard is the same one capacity eviction honors —
        a worker mid-query holds views into its substrate's store (and,
        on the shm plane, attachments to its arena segments), so a
        busy substrate is never closed, no matter how deep the deficit.
        Non-blocking on the table lock: pressure raised *by* an acquire
        on this table must not deadlock against it.
        """
        if not self._lock.acquire(blocking=False):
            return 0
        try:
            victims: list[Substrate] = []
            freed = 0
            while freed < deficit:
                victim_key = next(
                    (k for k, s in self._entries.items() if s.inflight == 0),
                    None,
                )
                if victim_key is None:
                    break
                victim = self._entries.pop(victim_key)
                victims.append(victim)
                freed += victim.store.governed_nbytes()
        finally:
            self._lock.release()
        for victim in victims:
            victim.store.close()
            obs.counter_add("service.evictions", 1)
            obs.counter_add("service.memory_evictions", 1)
        return freed

    def acquire(self, key: tuple, factory) -> tuple[Substrate, bool]:
        """``(substrate, was_warm)`` for ``key``, pinned against eviction."""
        evicted: list[Substrate] = []
        with self._lock:
            self._ensure_governed_locked()
            substrate = self._entries.get(key)
            warm = substrate is not None
            if substrate is None:
                substrate = Substrate(key=key, store=factory())
                self._entries[key] = substrate
                # evict least-recently-used *idle* substrates over capacity
                while len(self._entries) > self._capacity:
                    victim_key = next(
                        (k for k, s in self._entries.items()
                         if s.inflight == 0 and k != key),
                        None,
                    )
                    if victim_key is None:
                        break  # everything is busy; stay temporarily over
                    evicted.append(self._entries.pop(victim_key))
            self._entries.move_to_end(key)
            substrate.inflight += 1
            substrate.queries += 1
        for victim in evicted:
            victim.store.close()
            obs.counter_add("service.evictions", 1)
        return substrate, warm

    def release(self, substrate: Substrate) -> None:
        with self._lock:
            substrate.inflight -= 1

    def residency(self) -> list[dict]:
        """Per-substrate occupancy for health reporting (no key material
        beyond a digest — stream keys embed graph fingerprints)."""
        from repro.service.breaker import key_digest

        with self._lock:
            return [
                {
                    "key": key_digest(key),
                    "cached_sets": substrate.store.num_cached,
                    "inflight": substrate.inflight,
                    "queries": substrate.queries,
                }
                for key, substrate in self._entries.items()
            ]

    def close(self) -> None:
        """Close every substrate store (service shutdown)."""
        with self._lock:
            entries, self._entries = list(self._entries.values()), OrderedDict()
            if self._gov is not None and self._gov_handle is not None:
                self._gov.remove_pressure_handler(self._gov_handle)
                self._gov = None
                self._gov_handle = None
        for substrate in entries:
            substrate.store.close()

    def __del__(self):  # pragma: no cover - GC backstop
        # only the handler entry needs reaping: the substrates' stores
        # carry their own finalizers, and a shared store must not be
        # force-closed by a dying table
        try:
            if self._gov is not None and self._gov_handle is not None:
                self._gov.remove_pressure_handler(self._gov_handle)
        except Exception:
            pass
