"""End-to-end kernel parity: the visited-mode knob is purely
operational, so full IMM runs — serial, pooled over both
data planes, fault-injected, and checkpoint-resumed — must produce
bit-identical seeds and statistics whichever implementations run."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import compare_engines
from repro.imm import IMMOptions, run_imm
from repro.resilience import ResilienceOptions
from repro.resilience.faults import ENV_VAR as FAULTS_ENV
from repro.rrr import sample_rrr_parallel
from repro.rrr.parallel import shutdown_pools
from repro.rrr.store import clear_stores


@pytest.fixture(autouse=True)
def _fresh_registries(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_stores()
    yield
    clear_stores()
    shutdown_pools()


def _assert_same_result(ref, out):
    np.testing.assert_array_equal(out.seeds, ref.seeds)
    assert out.theta == ref.theta
    assert out.selection.covered_sets == ref.selection.covered_sets
    np.testing.assert_array_equal(out.collection.flat, ref.collection.flat)
    np.testing.assert_array_equal(out.collection.offsets, ref.collection.offsets)
    np.testing.assert_array_equal(
        out.selection.stats.sets_scanned, ref.selection.stats.sets_scanned
    )
    np.testing.assert_array_equal(
        out.selection.stats.elements_decremented,
        ref.selection.stats.elements_decremented,
    )


def _options(model, **kw):
    return IMMOptions(model=model, bounds=None, **kw)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_run_imm_parity_across_modes(model, small_ic_graph, small_lt_graph):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    ref = run_imm(graph, 6, 0.3, rng=3,
                  options=_options(model, visited_mode="sorted"))
    for visited in ("bitset", "auto"):
        out = run_imm(graph, 6, 0.3, rng=3,
                      options=_options(model, visited_mode=visited))
        _assert_same_result(ref, out)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_pooled_sampling_parity_fork(model, small_ic_graph, small_lt_graph):
    """Workers resolve the mode from the job tuple, not their own env:
    a 2-worker fork pool must match the serial stream in every mode."""
    graph = small_ic_graph if model == "IC" else small_lt_graph
    ref, _ = sample_rrr_parallel(graph, 500, rng=11, n_jobs=2,
                                 visited_mode="sorted")
    for mode in ("bitset", "auto"):
        coll, _ = sample_rrr_parallel(graph, 500, rng=11, n_jobs=2,
                                      visited_mode=mode)
        np.testing.assert_array_equal(coll.flat, ref.flat)
        np.testing.assert_array_equal(coll.offsets, ref.offsets)
        np.testing.assert_array_equal(coll.sources, ref.sources)
    shutdown_pools()


def test_pooled_sampling_parity_spawn(small_ic_graph):
    """One spawn-context case: fresh interpreters, same stream."""
    from repro.rrr.parallel import SamplerPool

    ref, _ = sample_rrr_parallel(small_ic_graph, 300, rng=13, n_jobs=2,
                                 visited_mode="sorted")
    with SamplerPool(small_ic_graph, 2, mp_context="spawn") as pool:
        coll, _ = pool.sample("IC", 300, rng=13, visited_mode="bitset")
    np.testing.assert_array_equal(coll.flat, ref.flat)
    np.testing.assert_array_equal(coll.offsets, ref.offsets)


def test_crash_recovery_parity_in_bitset_mode(small_ic_graph, monkeypatch):
    """A worker crash mid-stream retries onto the same bit-identical
    chunks regardless of the visited implementation."""
    clean, _ = sample_rrr_parallel(small_ic_graph, 400, rng=7, n_jobs=2,
                                   visited_mode="sorted")
    monkeypatch.setenv(FAULTS_ENV, "crash@1")
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2, visited_mode="bitset",
        resilience=ResilienceOptions(backoff_base=0.0),
    )
    np.testing.assert_array_equal(coll.flat, clean.flat)
    np.testing.assert_array_equal(coll.offsets, clean.offsets)
    assert trace.resilience.crashes >= 1


def test_warm_start_checkpoint_resume_parity(tmp_path):
    """A checkpointed sweep written under one visited mode resumes under
    the other with the identical table row: chunk bytes on disk are
    mode-independent."""
    def config(visited, checkpoint_dir):
        return ExperimentConfig(
            scale="tiny", datasets=("WV",), seed=7,
            theta_scale=0.2, sweep_theta_scale=0.2,
            warm_start=True, checkpoint_dir=str(checkpoint_dir),
            visited_mode=visited,
        )

    cold = compare_engines("WV", 8, 0.3, "IC",
                           config("sorted", tmp_path),
                           include_curipples=False)
    clear_stores()  # the "kill": in-memory state gone, checkpoints stay
    resumed = compare_engines("WV", 8, 0.3, "IC",
                              config("bitset", tmp_path),
                              include_curipples=False)
    assert np.array_equal(resumed.eim.seeds, cold.eim.seeds)
    assert np.array_equal(resumed.gim.seeds, cold.gim.seeds)
    assert resumed.eim.theta == cold.eim.theta
    assert resumed.table_cell_vs_gim() == cold.table_cell_vs_gim()

    # and a from-scratch bitset sweep agrees with the sorted one
    clear_stores()
    fresh = compare_engines("WV", 8, 0.3, "IC",
                            config("bitset", tmp_path / "fresh"),
                            include_curipples=False)
    assert np.array_equal(fresh.eim.seeds, cold.eim.seeds)
    assert fresh.eim.theta == cold.eim.theta
