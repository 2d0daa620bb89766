"""The metrics registry: counters, gauges, and histograms.

* **Counters** accumulate (``rrr.edges_examined``, ``selection.decrements``).
* **Gauges** hold the last value set; :meth:`MetricsRegistry.gauge_max`
  keeps a running maximum instead — how peak byte sizes of the ``flat``
  / ``offsets`` arrays are tracked across IMM's growing sample.
* **Histograms** keep running count / sum / min / max per name (the
  mean is derived), so a long-running server's state stays O(1) per
  name however many values it observes.

:class:`NullMetrics` is the no-op twin installed by default.
"""

from __future__ import annotations

import math


class MetricsRegistry:
    """In-memory metric store; all values are plain Python numbers."""

    __slots__ = ("counters", "gauges", "_histograms")

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, sum, min, max]
        self._histograms: dict[str, list] = {}

    # -- write paths ---------------------------------------------------------
    def counter_add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        prev = self.gauges.get(name, -math.inf)
        if value > prev:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        state = self._histograms.get(name)
        if state is None:
            self._histograms[name] = [1, value, value, value]
            return
        state[0] += 1
        state[1] += value
        if value < state[2]:
            state[2] = value
        if value > state[3]:
            state[3] = value

    # -- read paths ----------------------------------------------------------
    def histogram_summary(self, name: str) -> dict[str, float]:
        state = self._histograms.get(name)
        if state is None:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        count, total, lo, hi = state
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
        }

    def histograms(self) -> dict[str, dict[str, float]]:
        return {name: self.histogram_summary(name) for name in self._histograms}

    def snapshot(self) -> dict:
        """A JSON-ready view of everything recorded."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": self.histograms(),
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self._histograms.clear()


class NullMetrics:
    """The disabled registry: every write is a no-op, every read empty."""

    __slots__ = ()

    counters: dict = {}
    gauges: dict = {}

    def counter_add(self, name: str, value: float = 1) -> None:
        pass

    def gauge_set(self, name: str, value: float) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def histogram_summary(self, name: str) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}

    def histograms(self) -> dict[str, dict[str, float]]:
        return {}

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:  # pragma: no cover - trivially nothing
        pass
