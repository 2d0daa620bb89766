"""The fault-tolerant sampling pipeline: injection, supervision, recovery.

The core contract under test: every recovery path — retry after a worker
crash, executor rebuild, hung-worker recycle, serial degradation — must
reproduce the *exact* sets a fault-free run produces, because each job
carries its own pinned ``SeedSequence``.  Faults cost wall-clock, never
results.

The last test is the CI fault drill: when the harness exports
``REPRO_FAULTS`` (crash / hang / memerr matrix), the drill runs a
supervised sample under that ambient plan, proves bit-identity against a
clean run, and writes the :class:`ResilienceReport` JSON to
``REPRO_FAULTS_REPORT`` for the artifact upload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.resilience import (
    DEFAULT_RESILIENCE,
    FaultPlan,
    ResilienceOptions,
    ResilienceReport,
    merge_reports,
)
from repro.resilience.faults import ENV_VAR, active_spec
from repro.rrr.parallel import (
    SamplerPool,
    sample_rrr_parallel,
    shared_pool,
    shutdown_pools,
)
from repro.utils.errors import (
    SamplingTimeoutError,
    ValidationError,
    WorkerCrashError,
)

# the CI drill's plan comes from the harness environment; capture it at
# import time, before the autouse fixture scrubs the variable so every
# *other* test runs under its explicit plan only
_AMBIENT_FAULTS = os.environ.get(ENV_VAR, "").strip()
_REPORT_PATH = os.environ.get("REPRO_FAULTS_REPORT", "").strip()

#: fast backoff/timeout knobs so faulted tests stay CI-sized
FAST = dict(backoff_base=0.0)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


def _baseline(graph, num_sets=400, rng=7):
    coll, trace = sample_rrr_parallel(graph, num_sets, rng=rng, n_jobs=2)
    assert trace.resilience is not None and trace.resilience.clean
    return coll


# -- fault-plan grammar ------------------------------------------------------


def test_fault_plan_grammar():
    plan = FaultPlan.parse("crash@1; hang(2.5)@0,3#*; memerr@*#1,2")
    crash, hang, memerr = plan.clauses
    assert crash.kind == "crash" and crash.jobs == frozenset((1,))
    assert crash.attempts == frozenset((0,))  # omitted -> first attempt only
    assert hang.kind == "hang" and hang.seconds == 2.5
    assert hang.jobs == frozenset((0, 3)) and hang.attempts is None
    assert memerr.jobs is None and memerr.attempts == frozenset((1, 2))
    assert memerr.matches(17, 2) and not memerr.matches(17, 0)


@pytest.mark.parametrize(
    "spec",
    [
        "",
        ";",
        "crash",  # no @jobs
        "explode@1",  # unknown kind
        "hang(@1",  # unbalanced paren
        "hang(abc)@1",  # bad duration
        "hang(-1)@1",  # negative duration
        "crash@x",  # non-int job
        "crash@-2",  # negative job
        "crash@1#y",  # non-int attempt
    ],
)
def test_fault_plan_rejects_malformed(spec):
    with pytest.raises(ValidationError):
        FaultPlan.parse(spec)


def test_active_spec_validates_eagerly(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "explode@1")
    with pytest.raises(ValidationError):
        active_spec()
    monkeypatch.setenv(ENV_VAR, "crash@1")
    assert active_spec() == "crash@1"
    monkeypatch.delenv(ENV_VAR)
    assert active_spec() is None


# -- options and report ------------------------------------------------------


def test_resilience_options_validation():
    with pytest.raises(ValidationError):
        ResilienceOptions(job_timeout=0.0)
    with pytest.raises(ValidationError):
        ResilienceOptions(max_retries=-1)
    with pytest.raises(ValidationError):
        ResilienceOptions(backoff_base=-0.1)
    opts = ResilienceOptions(backoff_base=0.05)
    assert opts.backoff(0) == pytest.approx(0.05)
    assert opts.backoff(3) == pytest.approx(0.4)  # deterministic: no jitter
    assert DEFAULT_RESILIENCE.serial_fallback


def test_report_tally_merge_and_dict():
    a = ResilienceReport()
    assert a.clean
    a.record("timeout", job=0, attempt=0)
    a.record("crash", job=1, attempt=0, detail="x")
    a.record("failure", job=1, attempt=1)
    assert (a.timeouts, a.crashes, a.failures) == (1, 1, 1)
    assert a.total_faults == 3 and not a.clean
    b = ResilienceReport(retries=2, degraded_jobs=1, wall_clock_lost=0.5)
    merged = merge_reports(a, b)
    assert merged.total_faults == 3 and merged.retries == 2
    assert merged.degraded_jobs == 1
    assert merge_reports(None, a) is a and merge_reports(a, None) is a
    assert merge_reports(None, None) is None
    dumped = json.dumps(merged.as_dict())  # must be JSON-serializable
    assert "degraded_jobs" in dumped


def test_report_publishes_obs_counters():
    report = ResilienceReport(retries=3, rebuilds=1, wall_clock_lost=0.25)
    with obs.profiled() as handle:
        report.publish()
    counters = handle.report().counters
    assert counters["resilience.retries"] == 3
    assert counters["resilience.rebuilds"] == 1
    assert "resilience.degraded_jobs" not in counters  # zeros stay silent


# -- supervised recovery: bit-identity on every path -------------------------


def test_crash_recovery_is_bit_identical(small_ic_graph, monkeypatch):
    clean = _baseline(small_ic_graph)
    monkeypatch.setenv(ENV_VAR, "crash@1")
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2,
        resilience=ResilienceOptions(**FAST),
    )
    assert np.array_equal(coll.flat, clean.flat)
    assert np.array_equal(coll.offsets, clean.offsets)
    report = trace.resilience
    assert report.crashes >= 1 and report.rebuilds >= 1 and report.retries >= 1
    assert report.degraded_jobs == 0


def test_memerr_retry_is_bit_identical(small_ic_graph, monkeypatch):
    clean = _baseline(small_ic_graph)
    monkeypatch.setenv(ENV_VAR, "memerr@0")
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2,
        resilience=ResilienceOptions(**FAST),
    )
    assert np.array_equal(coll.flat, clean.flat)
    assert trace.resilience.failures == 1
    assert trace.resilience.rebuilds == 0  # the pool survived the raise
    assert any("MemoryError" in e.get("detail", "")
               for e in trace.resilience.events)


def test_hang_timeout_recovery_is_bit_identical(small_ic_graph, monkeypatch):
    clean = _baseline(small_ic_graph)
    monkeypatch.setenv(ENV_VAR, "hang(10)@0")
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2,
        resilience=ResilienceOptions(job_timeout=0.5, **FAST),
    )
    assert np.array_equal(coll.flat, clean.flat)
    report = trace.resilience
    assert report.timeouts >= 1
    assert report.rebuilds >= 1  # hung workers can only be reclaimed by recycle
    assert report.wall_clock_lost > 0


def test_retry_budget_exhaustion_degrades_to_serial(small_ic_graph, monkeypatch):
    clean = _baseline(small_ic_graph)
    monkeypatch.setenv(ENV_VAR, "memerr@*#*")  # every job, every attempt
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2,
        resilience=ResilienceOptions(max_retries=1, **FAST),
    )
    # injection never fires in-process, so degraded jobs run clean and
    # reproduce their exact sets
    assert np.array_equal(coll.flat, clean.flat)
    report = trace.resilience
    assert report.degraded_jobs == 2
    assert report.failures == 4  # 2 jobs x (first attempt + 1 retry)


def test_degraded_job_counted_once(small_ic_graph, monkeypatch):
    """A job that degrades to in-process sampling publishes its own
    ``rrr.*`` counters; the parent adds only the workers' share."""
    monkeypatch.setenv(ENV_VAR, "memerr@0#*")  # job 0 fails every attempt
    with obs.profiled() as handle:
        coll, trace = sample_rrr_parallel(
            small_ic_graph, 400, rng=7, n_jobs=2, eliminate_sources=True,
            resilience=ResilienceOptions(max_retries=0, **FAST),
        )
    assert trace.resilience.degraded_jobs == 1
    counters = handle.report().counters
    assert counters["rrr.sets_attempted"] == trace.attempted
    assert counters["rrr.sets_kept"] == trace.kept
    assert counters["rrr.edges_examined"] == trace.total_edges_examined()
    assert counters["rrr.sets_sampled"] == coll.num_sets


def test_fallback_disabled_raises_worker_crash(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "memerr@*#*")
    with pytest.raises(WorkerCrashError):
        sample_rrr_parallel(
            small_ic_graph, 400, rng=7, n_jobs=2,
            resilience=ResilienceOptions(
                max_retries=0, serial_fallback=False, **FAST
            ),
        )


def test_fallback_disabled_all_timeouts_raises_timeout(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "hang(10)@*#*")
    with pytest.raises(SamplingTimeoutError):
        sample_rrr_parallel(
            small_ic_graph, 400, rng=7, n_jobs=2,
            resilience=ResilienceOptions(
                job_timeout=0.3, max_retries=0, serial_fallback=False, **FAST
            ),
        )


def test_keyboard_interrupt_cancels_and_abandons(small_ic_graph, monkeypatch):
    from repro.rrr import parallel as par

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    pool = SamplerPool(small_ic_graph, 2)
    monkeypatch.setattr(par, "wait", interrupt)
    with pytest.raises(KeyboardInterrupt):
        pool.sample("IC", 400, rng=1)
    assert not pool.started  # the executor was torn down, not leaked
    pool.close()


# -- lifecycle and registry hardening ----------------------------------------


def test_close_is_terminal_and_idempotent(small_ic_graph):
    pool = SamplerPool(small_ic_graph, 2)
    pool.sample("IC", 100, rng=1)
    pool.close()
    pool.close()  # second close is a no-op, not an error
    assert pool.closed and not pool.started
    with pytest.raises(ValidationError):
        pool.sample("IC", 100, rng=1)


def test_shared_pool_evicts_closed_entries(small_ic_graph):
    first = shared_pool(small_ic_graph, 2)
    first.close()
    with obs.profiled() as handle:
        healed = shared_pool(small_ic_graph, 2)
    assert healed is not first and not healed.closed
    assert handle.report().counters["rrr.parallel.pool_evicted"] == 1
    assert shared_pool(small_ic_graph, 2) is healed


def test_shutdown_pools_closes_and_clears(small_ic_graph):
    pool = shared_pool(small_ic_graph, 2)
    pool.sample("IC", 100, rng=1)
    shutdown_pools()
    assert pool.closed
    assert shared_pool(small_ic_graph, 2) is not pool


def test_shared_store_heals_closed_pool(small_ic_graph):
    from repro.rrr.store import clear_stores, shared_store

    clear_stores()
    try:
        pool = shared_pool(small_ic_graph, 2)
        store = shared_store(small_ic_graph, entropy=5, n_jobs=2, pool=pool,
                             chunk_sets=32)
        store.ensure(40)
        before = store.num_cached
        shutdown_pools()  # kills the store's pool out from under it
        healed = shared_store(small_ic_graph, entropy=5, n_jobs=2,
                              chunk_sets=32)
        assert healed is store and healed._pool is None
        coll, _ = healed.ensure(before + 40)  # top-up re-acquires a live pool
        assert coll.num_sets == before + 40
    finally:
        clear_stores()


def test_sample_trace_merge_carries_reports(small_ic_graph, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "crash@0")
    _, faulted = sample_rrr_parallel(
        small_ic_graph, 400, rng=3, n_jobs=2,
        resilience=ResilienceOptions(**FAST),
    )
    monkeypatch.delenv(ENV_VAR)
    _, clean = sample_rrr_parallel(small_ic_graph, 100, rng=4, n_jobs=2)
    merged = faulted.merged_with(clean)
    assert merged.resilience.crashes == faulted.resilience.crashes
    assert merged.attempted == faulted.attempted + clean.attempted


# -- host OOM renders the paper's table cell ---------------------------------


def test_compare_engines_maps_host_memoryerror_to_oom(monkeypatch):
    from repro.experiments import ExperimentConfig, runner

    cfg = ExperimentConfig(datasets=("WV",), sweep_theta_scale=0.1)

    def explode(*args, **kwargs):
        raise MemoryError("host allocation failed")

    # vanilla sampling dies -> gIM and cuRipples cells go OOM, eIM's own
    # run survives and the sweep row still renders
    monkeypatch.setattr(runner, "run_imm", explode)
    row = runner.compare_engines("WV", 5, 0.3, "IC", cfg,
                                 bounds=cfg.bounds(sweep=True))
    assert not row.eim.oom
    assert row.gim.oom and row.curipples.oom
    assert "host OOM" in row.gim.oom_detail
    assert row.table_cell_vs_gim().startswith("OOM/")


def test_compare_engines_maps_eim_memoryerror_to_oom(monkeypatch):
    from repro.experiments import ExperimentConfig, runner

    cfg = ExperimentConfig(datasets=("WV",), sweep_theta_scale=0.1)

    class ExplodingEIM:
        def run(self, *args, **kwargs):
            raise MemoryError("host allocation failed")

    monkeypatch.setattr(runner, "EIMEngine", ExplodingEIM)
    row = runner.compare_engines("WV", 5, 0.3, "IC", cfg,
                                 include_curipples=False,
                                 bounds=cfg.bounds(sweep=True))
    assert row.eim.oom and not row.gim.oom
    assert row.table_cell_vs_gim() == "OOM(eIM)"


# -- the end-to-end acceptance drill (CI fault matrix) -----------------------


def test_fault_drill_reproduces_clean_run(small_ic_graph, monkeypatch):
    """One worker fault per batch must not change ``run_imm``'s output.

    Locally this drills ``crash@1``; in CI the harness exports
    ``REPRO_FAULTS`` (crash / hang / memerr matrix) and
    ``REPRO_FAULTS_REPORT``, and the resulting
    :class:`ResilienceReport` JSON becomes the build artifact.
    """
    from repro.imm import IMMOptions, run_imm

    plan = _AMBIENT_FAULTS or "crash@1"
    options = IMMOptions(
        model="IC", n_jobs=2,
        resilience=ResilienceOptions(job_timeout=1.0, **FAST),
    )
    clean = run_imm(small_ic_graph, 5, 0.3, rng=17, options=options)
    monkeypatch.setenv(ENV_VAR, plan)
    faulted = run_imm(small_ic_graph, 5, 0.3, rng=17, options=options)

    assert np.array_equal(faulted.seeds, clean.seeds)
    assert faulted.theta == clean.theta
    assert np.array_equal(faulted.collection.flat, clean.collection.flat)
    report = faulted.trace.resilience
    assert report is not None and not report.clean

    if _REPORT_PATH:
        path = Path(_REPORT_PATH)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"plan": plan, **report.as_dict()}, indent=2))
