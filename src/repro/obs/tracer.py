"""Span-based tracing: nested wall-clock timing of named code regions.

A :class:`Tracer` hands out context managers via :meth:`Tracer.span`;
entering a span pushes it on the calling thread's stack (so spans nest
lexically per thread, and concurrent threads never see each other's
nesting) and exiting records a :class:`SpanRecord` carrying the full
slash-separated path, the nesting depth, and start/duration in seconds.

The default installed tracer is a :class:`NullTracer` whose ``span``
returns one shared, allocation-free context manager — the zero-cost
path every hot loop takes when profiling is off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class SpanRecord:
    """One completed span."""

    name: str  # leaf name, e.g. "imm.estimation.phase_1"
    path: str  # full nesting path, e.g. "imm.run/imm.estimation.phase_1"
    depth: int  # 0 for root spans
    start: float  # clock value at entry (perf_counter seconds)
    duration: float  # seconds


class _ActiveSpan:
    """Context manager for one live span of a :class:`Tracer`."""

    __slots__ = ("_tracer", "_name", "_path", "_depth", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack
        stack.append(self._name)
        self._depth = len(stack) - 1
        self._path = "/".join(stack)
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        tracer._stack.pop()
        tracer.records.append(
            SpanRecord(
                name=self._name,
                path=self._path,
                depth=self._depth,
                start=self._start,
                duration=end - self._start,
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanRecord` entries in completion order.

    ``clock`` is injectable (defaults to :func:`time.perf_counter`) so
    tests can drive deterministic timings.  Records from every thread
    land in one list; each thread nests its spans on its own stack.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self.records: list[SpanRecord] = []

    @property
    def _stack(self) -> list[str]:
        """The calling thread's stack of open span names."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            return stack

    def span(self, name: str) -> _ActiveSpan:
        """A context manager timing the enclosed region as ``name``."""
        return _ActiveSpan(self, name)

    def reset(self) -> None:
        self._local = threading.local()
        self.records.clear()


class _NullSpan:
    """Shared no-op context manager; never allocates per call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    __slots__ = ()

    #: always-empty record list (shared tuple, satisfies the read API)
    records: tuple = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def reset(self) -> None:  # pragma: no cover - trivially nothing
        pass
