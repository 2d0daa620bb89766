"""Unit tests for the observability subsystem (repro.obs)."""

import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs.export import build_report
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.tracer import NullTracer, Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the no-op collectors installed."""
    obs.uninstall()
    yield
    obs.uninstall()


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# -- tracer ------------------------------------------------------------------
def test_nested_spans_nest_correctly():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("inner_a"):
            pass
        with tracer.span("inner_b"):
            pass
    assert [r.name for r in tracer.records] == ["inner_a", "inner_b", "outer"]
    by_name = {r.name: r for r in tracer.records}
    assert by_name["outer"].depth == 0
    assert by_name["inner_a"].depth == 1
    assert by_name["inner_a"].path == "outer/inner_a"
    assert by_name["inner_b"].path == "outer/inner_b"
    # the fake clock ticks once per call: outer spans its children entirely
    assert by_name["outer"].duration > by_name["inner_a"].duration


def test_span_records_on_exception():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    assert [r.name for r in tracer.records] == ["failing"]
    assert tracer._stack == []  # stack unwound despite the exception


def test_sibling_spans_share_depth():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert all(r.depth == 0 for r in tracer.records)


def test_span_stack_is_per_thread():
    """Concurrent threads nest spans under one tracer without mixing."""
    tracer = Tracer()
    nthreads, rounds = 8, 20
    barrier = threading.Barrier(nthreads)

    def work(t: int) -> None:
        barrier.wait()
        for _ in range(rounds):
            with tracer.span(f"t{t}.outer"):
                time.sleep(0)  # yield so the other threads interleave
                with tracer.span(f"t{t}.mid"):
                    time.sleep(0)
                    with tracer.span(f"t{t}.inner"):
                        time.sleep(0)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert len(tracer.records) == nthreads * rounds * 3
    for record in tracer.records:
        t, level = record.name.split(".")
        chain = [f"{t}.{name}" for name in ("outer", "mid", "inner")]
        depth = chain.index(record.name)
        assert record.depth == depth, record
        assert record.path == "/".join(chain[: depth + 1]), record
    assert tracer._stack == []


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("anything"):
        pass
    assert len(tracer.records) == 0
    # the null span is one shared object — no per-call allocation
    assert tracer.span("x") is tracer.span("y")


# -- metrics -----------------------------------------------------------------
def test_counters_accumulate():
    reg = MetricsRegistry()
    reg.counter_add("hits")
    reg.counter_add("hits", 4)
    assert reg.counters["hits"] == 5


def test_gauge_set_and_max():
    reg = MetricsRegistry()
    reg.gauge_set("level", 3)
    reg.gauge_set("level", 1)
    assert reg.gauges["level"] == 1
    reg.gauge_max("peak", 10)
    reg.gauge_max("peak", 7)
    reg.gauge_max("peak", 12)
    assert reg.gauges["peak"] == 12


def test_histogram_summary():
    reg = MetricsRegistry()
    for v in (1, 2, 3):
        reg.observe("sizes", v)
    h = reg.histogram_summary("sizes")
    assert h["count"] == 3 and h["sum"] == 6.0
    assert h["min"] == 1.0 and h["max"] == 3.0 and h["mean"] == 2.0
    assert reg.histogram_summary("missing")["count"] == 0


def test_histogram_state_is_bounded():
    """Observing keeps O(1) state per name, not every raw value."""
    import random

    rng = random.Random(7)
    values = [rng.uniform(-1e6, 1e6) for _ in range(100_000)]
    reg = MetricsRegistry()
    for v in values:
        reg.observe("x", v)
    reg.observe("y", 1.0)
    for state in reg._histograms.values():
        assert len(state) <= 5
        assert all(isinstance(field, (int, float)) for field in state)
    h = reg.histogram_summary("x")
    assert h["count"] == len(values)
    assert h["min"] == min(values) and h["max"] == max(values)
    assert h["sum"] == pytest.approx(sum(values), rel=1e-9, abs=1e-3)
    assert h["mean"] == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)


def test_null_metrics_discards_everything():
    reg = NullMetrics()
    reg.counter_add("x", 5)
    reg.gauge_set("y", 1)
    reg.gauge_max("y", 2)
    reg.observe("z", 3)
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# -- global state ------------------------------------------------------------
def test_disabled_hooks_add_no_entries():
    assert not obs.enabled()
    with obs.span("noop"):
        obs.counter_add("c", 1)
        obs.gauge_set("g", 1)
        obs.observe("h", 1)
    report = obs.report()
    assert report.spans == []
    assert report.counters == {} and report.gauges == {} and report.histograms == {}


def test_install_routes_hooks_and_uninstall_restores():
    handle = obs.install()
    assert obs.enabled()
    with obs.span("work"):
        obs.counter_add("c", 2)
    report = handle.report()
    assert report.span_names() == ["work"]
    assert report.counters == {"c": 2}
    obs.uninstall()
    assert not obs.enabled()
    obs.counter_add("c", 99)  # discarded
    assert handle.report().counters == {"c": 2}


def test_profiled_context_manager():
    with obs.profiled() as handle:
        with obs.span("inside"):
            pass
    assert not obs.enabled()
    assert handle.report().span_names() == ["inside"]


# -- exporters ---------------------------------------------------------------
def _sample_report():
    tracer = Tracer(clock=FakeClock())
    reg = MetricsRegistry()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    reg.counter_add("edges", 100)
    reg.gauge_set("bytes", 2048)
    reg.observe("batch", 16)
    return build_report(tracer, reg)


def test_render_table_contains_everything():
    text = obs.render_table(_sample_report())
    assert "root" in text and "  child" in text
    assert "edges" in text and "100" in text
    assert "bytes" in text and "2,048" in text
    assert "batch" in text and "count=1" in text


def test_render_table_empty_report():
    text = obs.render_table(obs.ProfileReport())
    assert "no spans" in text


def test_to_json_roundtrips(tmp_path):
    report = _sample_report()
    doc = obs.to_json(report)
    assert json.loads(json.dumps(doc)) == doc
    assert {s["name"] for s in doc["spans"]} == {"root", "child"}
    path = tmp_path / "profile.json"
    obs.write_json(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == doc


def test_write_jsonl(tmp_path):
    path = tmp_path / "profile.jsonl"
    obs.write_jsonl(_sample_report(), path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert kinds == {"span", "counter", "gauge", "histogram"}
    assert all("name" in r for r in records)


def test_report_helpers():
    report = _sample_report()
    assert report.find_spans("child")[0].path == "root/child"
    assert report.total_seconds("root") > 0.0
    assert report.total_seconds("missing") == 0.0
