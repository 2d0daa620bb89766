"""The :class:`MemoryBudget` ledger: one accountant for every byte.

Without it each subsystem guesses at memory on its own: the kernel
planes check a private ceiling, the RRR store and chunk arena grow
without bound, and the serving tier finds out about host pressure only
when ``MemoryError`` surfaces.
HBMax's central observation — compressed, *budgeted* RRR storage is
what lets parallel IM scale on bounded-memory machines — needs the
opposite: a single ledger that every byte-holder reports to, and a
tiering policy that frees bytes *before* the host runs out.

The governor tracks three tiers per account:

* ``resident`` — hot, directly addressable arrays (heap or shm);
* ``compressed`` — in-memory but bitpacked (still RAM, so it counts
  against the budget alongside ``resident``);
* ``spilled`` — on disk; free as far as the budget is concerned.

A *reservation* (:meth:`MemoryBudget.request`) that would push
``resident + compressed`` past the budget walks the registered
pressure handlers (RRR chunk demotion first, then service-cache
trims) until the reservation fits or nothing more can be freed; the
caller proceeds either way — the budget is a target the governor
actively steers toward, never a hard wall that turns into a crash
(overshoot is counted as ``memory.overcommits``).

Budget resolution, highest precedence first: an explicit
:meth:`set_budget` / :func:`budget_scope` (how
``IMMOptions(memory_budget_mb=)`` and ``--memory-budget-mb`` apply),
then ``REPRO_MEMORY_BUDGET_MB``, else unbounded.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Callable, Optional

from repro import obs
from repro.utils.errors import ValidationError

ENV_MEMORY_BUDGET_MB = "REPRO_MEMORY_BUDGET_MB"

#: storage tiers, cheapest-to-touch first
TIERS = ("resident", "compressed", "spilled")

_MB = 1024 * 1024


def _parse_mb(raw: str, name: str) -> int:
    try:
        budget = int(float(str(raw).strip()) * _MB)
    except ValueError:
        raise ValidationError(
            f"{name} must be a number of MiB, got {raw!r}"
        ) from None
    if budget <= 0:
        raise ValidationError(f"{name} must be positive, got {raw!r}")
    return budget


def env_budget_bytes() -> Optional[int]:
    """The budget the environment asks for (``None`` = unbounded)."""
    raw = os.environ.get(ENV_MEMORY_BUDGET_MB)
    if raw is not None and str(raw).strip():
        return _parse_mb(raw, ENV_MEMORY_BUDGET_MB)
    return None


class MemoryBudget:
    """Process-wide accounted memory budget with demotion hooks.

    Thread-safe.  Subsystems report byte deltas with :meth:`account`
    and, when they can shed load, register a *pressure handler* — a
    callable ``handler(deficit_bytes) -> freed_bytes`` invoked (outside
    the ledger lock) whenever a reservation needs room.  Handlers must
    be idempotent and must never raise; freeing less than asked (or
    nothing) is fine.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._accounts: dict[str, dict[str, int]] = {}
        self._explicit: Optional[int] = None
        self._explicit_set = False
        self._handlers: list[tuple[int, int, Callable[[int], int]]] = []
        self._next_handle = 0
        self._peak_charged = 0
        self._demotions = 0
        self._promotions = 0
        self._overcommits = 0

    # -- budget resolution ---------------------------------------------------
    @property
    def budget_bytes(self) -> Optional[int]:
        """The active budget: explicit override, else environment."""
        with self._lock:
            if self._explicit_set:
                return self._explicit
        return env_budget_bytes()

    def set_budget(self, nbytes: Optional[int]) -> None:
        """Pin the budget explicitly (``None`` = explicitly unbounded).

        Overrides the environment until :meth:`clear_budget`.
        """
        if nbytes is not None and nbytes <= 0:
            raise ValidationError("memory budget must be positive (or None)")
        with self._lock:
            self._explicit = None if nbytes is None else int(nbytes)
            self._explicit_set = True

    def clear_budget(self) -> None:
        """Drop the explicit override; the environment decides again."""
        with self._lock:
            self._explicit = None
            self._explicit_set = False

    # -- the ledger ----------------------------------------------------------
    def account(self, name: str, tier: str, delta: int) -> None:
        """Report ``delta`` bytes moving in (+) or out (-) of a tier."""
        if tier not in TIERS:
            raise ValidationError(f"unknown memory tier {tier!r}; use {TIERS}")
        delta = int(delta)
        if delta == 0:
            return
        with self._lock:
            entry = self._accounts.setdefault(
                name, {tier: 0 for tier in TIERS}
            )
            entry[tier] = max(0, entry[tier] + delta)
            self._publish_locked()

    def _totals_locked(self) -> dict[str, int]:
        totals = {tier: 0 for tier in TIERS}
        for entry in self._accounts.values():
            for tier in TIERS:
                totals[tier] += entry[tier]
        return totals

    def _publish_locked(self) -> None:
        totals = self._totals_locked()
        charged = totals["resident"] + totals["compressed"]
        if charged > self._peak_charged:
            self._peak_charged = charged
        obs.gauge_set("memory.resident_bytes", totals["resident"])
        obs.gauge_set("memory.compressed_bytes", totals["compressed"])
        obs.gauge_set("memory.spilled_bytes", totals["spilled"])
        obs.gauge_max("memory.peak_charged_bytes", charged)

    def tier_bytes(self, tier: str) -> int:
        with self._lock:
            return self._totals_locked()[tier]

    @property
    def charged_bytes(self) -> int:
        """RAM the governor is answerable for: resident + compressed."""
        with self._lock:
            totals = self._totals_locked()
        return totals["resident"] + totals["compressed"]

    @property
    def peak_charged_bytes(self) -> int:
        with self._lock:
            return self._peak_charged

    def headroom(self) -> Optional[int]:
        """Bytes left under the budget (``None`` = unbounded; may be
        negative while overcommitted)."""
        budget = self.budget_bytes
        if budget is None:
            return None
        return budget - self.charged_bytes

    def would_fit(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more RAM fits without demoting anything.

        The kernel planes gate their dense-plane allocations on this
        (plus their own per-plane ceiling).
        """
        headroom = self.headroom()
        return headroom is None or int(nbytes) <= headroom

    def overcommitted(self) -> bool:
        """True while ``resident + compressed`` exceeds the budget."""
        headroom = self.headroom()
        return headroom is not None and headroom < 0

    # -- pressure ------------------------------------------------------------
    def add_pressure_handler(
        self, handler: Callable[[int], int], priority: int = 0
    ) -> int:
        """Register a demotion hook; lower ``priority`` runs first.

        Returns a handle for :meth:`remove_pressure_handler`.
        """
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._handlers.append((int(priority), handle, handler))
            self._handlers.sort(key=lambda entry: (entry[0], entry[1]))
        return handle

    def remove_pressure_handler(self, handle: int) -> None:
        with self._lock:
            self._handlers = [
                entry for entry in self._handlers if entry[1] != handle
            ]

    def request(self, nbytes: int = 0) -> bool:
        """Make room for ``nbytes`` more resident bytes, demoting if needed.

        Returns ``True`` when the reservation fits (possibly after
        demotions), ``False`` when the process proceeds overcommitted —
        never raises: a budget is steering, not a wall.  ``request(0)``
        is a pure rebalance back under the budget.
        """
        nbytes = int(nbytes)
        budget = self.budget_bytes
        if budget is None:
            return True
        if self.charged_bytes + nbytes <= budget:
            return True
        with self._lock:
            handlers = list(self._handlers)
        for _, _, handler in handlers:
            deficit = self.charged_bytes + nbytes - budget
            if deficit <= 0:
                return True
            try:
                handler(deficit)
            except Exception:  # noqa: BLE001 — a bad handler must not
                continue  # turn an allocation into a crash
        if self.charged_bytes + nbytes <= budget:
            return True
        # last resort: charged bytes may belong to holders that are
        # unreachable but sitting in collection cycles — their
        # finalizers credit the ledger, so one sweep can clear phantom
        # charge no handler can reach
        gc.collect()
        if self.charged_bytes + nbytes <= budget:
            return True
        with self._lock:
            self._overcommits += 1
        obs.counter_add("memory.overcommits", 1)
        return False

    # -- tier-movement bookkeeping -------------------------------------------
    def note_demotion(self, count: int = 1) -> None:
        with self._lock:
            self._demotions += int(count)
        obs.counter_add("memory.demotions", count)

    def note_promotion(self, count: int = 1) -> None:
        with self._lock:
            self._promotions += int(count)
        obs.counter_add("memory.promotions", count)

    def exhausted_tier(self) -> str:
        """Which tier ran out when an OOM surfaced (breaker forensics).

        ``"host"`` with no budget (the host itself was the limit);
        otherwise the deepest tier the governor had already pushed data
        into — if chunks were spilling and the host *still* OOMed, the
        disk tier was the last line, not the arena.
        """
        if self.budget_bytes is None:
            return "host"
        with self._lock:
            totals = self._totals_locked()
        for tier in reversed(TIERS):
            if totals[tier] > 0:
                return tier
        return "resident"

    # -- introspection -------------------------------------------------------
    def snapshot(self) -> dict:
        """The ledger as a dict (health endpoints, debugging)."""
        budget = self.budget_bytes
        with self._lock:
            totals = self._totals_locked()
            accounts = {
                name: dict(entry) for name, entry in self._accounts.items()
            }
            peak = self._peak_charged
            demotions = self._demotions
            promotions = self._promotions
            overcommits = self._overcommits
        return {
            "budget_bytes": budget,
            "resident_bytes": totals["resident"],
            "compressed_bytes": totals["compressed"],
            "spilled_bytes": totals["spilled"],
            "peak_charged_bytes": peak,
            "demotions": demotions,
            "promotions": promotions,
            "overcommits": overcommits,
            "accounts": accounts,
        }


#: the process-wide governor every subsystem registers with
_GOVERNOR = MemoryBudget()


def governor() -> MemoryBudget:
    """The process-wide :class:`MemoryBudget`."""
    return _GOVERNOR


def reset_governor() -> MemoryBudget:
    """Replace the process governor with a fresh one (tests only).

    Subsystems that cached handler registrations re-register lazily,
    so a reset between tests cannot leak pressure handlers (or their
    strong references) across test cases.
    """
    global _GOVERNOR
    _GOVERNOR = MemoryBudget()
    return _GOVERNOR


@contextmanager
def budget_scope(nbytes: Optional[int]):
    """Pin the governor's budget for a block, restoring the prior state.

    How a per-run ``IMMOptions(memory_budget_mb=)`` applies: the budget
    is process-wide state (demotion has to see every account), so a run
    that carries its own budget installs it for the duration and puts
    the previous explicit-or-env resolution back afterwards.
    """
    gov = governor()
    with gov._lock:
        prior = (gov._explicit, gov._explicit_set)
    gov.set_budget(nbytes)
    try:
        yield gov
    finally:
        with gov._lock:
            gov._explicit, gov._explicit_set = prior
