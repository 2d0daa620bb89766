"""Observability: span tracing, metrics, and profile exporters.

The library's hot paths call the module-level hooks below
(``obs.span``, ``obs.counter_add``, ...) unconditionally.  By default
those route to no-op singletons — a shared context manager and a
write-discarding registry — so instrumentation costs nothing when
profiling is off.  :func:`install` swaps in live collectors for the
duration of a measured run:

    from repro import obs

    handle = obs.install()
    result = run_imm(graph, k, eps, rng=0)
    report = obs.report()
    obs.uninstall()
    print(obs.render_table(report))

or, scoped::

    with obs.profiled() as handle:
        run_imm(...)
    print(obs.render_table(handle.report()))

``run_imm(..., options=IMMOptions(profile=True))`` wraps exactly this
and attaches the report to ``IMMResult.profile``; the CLI's
``--profile`` flag prints it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.export import (
    ProfileReport,
    build_report,
    render_table,
    to_json,
    write_json,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.tracer import NullTracer, SpanRecord, Tracer

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "ProfileReport",
    "SpanRecord",
    "Tracer",
    "counter_add",
    "current_metrics",
    "current_tracer",
    "enabled",
    "gauge_max",
    "gauge_set",
    "install",
    "observe",
    "profiled",
    "render_table",
    "report",
    "span",
    "to_json",
    "uninstall",
    "write_json",
    "write_jsonl",
]

_NULL_TRACER = NullTracer()
_NULL_METRICS = NullMetrics()


@dataclass
class ObsHandle:
    """What :func:`install` returned; snapshot with :meth:`report`."""

    tracer: Tracer
    metrics: MetricsRegistry

    def report(self) -> ProfileReport:
        return build_report(self.tracer, self.metrics)


class _ObsState:
    __slots__ = ("tracer", "metrics")

    def __init__(self):
        self.tracer = _NULL_TRACER
        self.metrics = _NULL_METRICS


_state = _ObsState()


def enabled() -> bool:
    """True when a live tracer is installed."""
    return _state.tracer is not _NULL_TRACER


def install(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None) -> ObsHandle:
    """Swap in live collectors (fresh ones by default) and return them."""
    _state.tracer = tracer if tracer is not None else Tracer()
    _state.metrics = metrics if metrics is not None else MetricsRegistry()
    return ObsHandle(tracer=_state.tracer, metrics=_state.metrics)


def uninstall() -> None:
    """Restore the no-op collectors."""
    _state.tracer = _NULL_TRACER
    _state.metrics = _NULL_METRICS


@contextmanager
def profiled(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None):
    """Install live collectors for the enclosed block, then restore."""
    handle = install(tracer=tracer, metrics=metrics)
    try:
        yield handle
    finally:
        uninstall()


def report() -> ProfileReport:
    """Snapshot whatever the currently installed collectors hold."""
    return build_report(_state.tracer, _state.metrics)


def current_tracer():
    return _state.tracer


def current_metrics():
    return _state.metrics


# -- hot-path hooks (no-ops unless installed) -------------------------------
def span(name: str):
    """Context manager timing ``name`` on the installed tracer."""
    return _state.tracer.span(name)


def counter_add(name: str, value: float = 1) -> None:
    _state.metrics.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    _state.metrics.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    _state.metrics.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    _state.metrics.observe(name, value)
