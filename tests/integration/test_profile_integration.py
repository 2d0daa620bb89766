"""End-to-end observability: run_imm with IMMOptions(profile=True)
produces a report whose spans and metrics agree with the run's own
diagnostics."""

import json

import numpy as np
import pytest

from repro import obs
from repro.imm import IMMOptions, run_imm
from repro.imm.bounds import BoundsConfig

#: bounds light enough for a unit-sized run
LIGHT = IMMOptions(bounds=BoundsConfig(theta_scale=0.1))


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.uninstall()
    yield
    obs.uninstall()


@pytest.fixture
def profiled_result(small_ic_graph):
    return run_imm(
        small_ic_graph, 5, 0.3, rng=0,
        options=IMMOptions(bounds=BoundsConfig(theta_scale=0.2), profile=True),
    )


def test_profile_off_by_default(small_ic_graph):
    result = run_imm(small_ic_graph, 3, 0.4, rng=0, options=LIGHT)
    assert result.profile is None
    assert not obs.enabled()
    assert obs.report().spans == []  # the run left nothing behind


def test_profile_emits_span_per_phase_stat(profiled_result):
    report = profiled_result.profile
    assert report is not None
    names = set(report.span_names())
    for phase in profiled_result.phases:
        assert f"imm.estimation.phase_{phase.index}" in names
    # exactly one estimation span per reported phase, no extras
    phase_spans = [n for n in report.span_names() if n.startswith("imm.estimation.")]
    assert len(phase_spans) == len(profiled_result.phases)


def test_profile_span_tree_structure(profiled_result):
    report = profiled_result.profile
    root = report.find_spans("imm.run")
    assert len(root) == 1 and root[0].depth == 0
    for s in report.spans:
        if s.name.startswith("imm.estimation."):
            assert s.path.startswith("imm.run/")
            assert s.depth == 1
    # every span closed within the root's window
    for s in report.spans:
        assert s.start >= root[0].start - 1e-9
        assert s.duration >= 0.0


def test_profile_metrics_match_run_diagnostics(profiled_result):
    report = profiled_result.profile
    # sampler counters agree with the run's own trace
    assert report.counters["rrr.sets_attempted"] == profiled_result.trace.attempted
    assert report.counters["rrr.edges_examined"] == (
        profiled_result.trace.total_edges_examined()
    )
    # selection counters cover at least the final selection's work
    assert report.counters["selection.iterations"] >= profiled_result.k
    assert report.gauges["imm.theta"] == profiled_result.theta
    assert report.gauges["rrr.flat_bytes"] == profiled_result.collection.flat.nbytes
    assert (
        report.gauges["rrr.offsets_bytes"]
        == profiled_result.collection.offsets.nbytes
    )


@pytest.mark.parametrize("eliminate", [False, True])
def test_profile_sampler_counters_at_two_jobs(small_ic_graph, eliminate):
    """Sets sampled in worker processes still reach the parent's profile:
    at ``n_jobs=2`` the ``rrr.*`` counters equal the merged trace's
    totals (streams differ across ``n_jobs``, so compare within a run)."""
    from repro.rrr.parallel import shutdown_pools

    try:
        result = run_imm(
            small_ic_graph, 5, 0.3, rng=0,
            options=IMMOptions(bounds=BoundsConfig(theta_scale=0.2), n_jobs=2,
                               eliminate_sources=eliminate, profile=True),
        )
    finally:
        shutdown_pools()
    counters = result.profile.counters
    assert counters["rrr.parallel.jobs"] >= 2  # the workers really ran
    assert counters["rrr.sets_attempted"] == result.trace.attempted
    assert counters["rrr.sets_kept"] == result.trace.kept
    assert counters.get("rrr.sets_discarded", 0) == result.trace.discarded_empty
    assert counters["rrr.edges_examined"] == result.trace.total_edges_examined()


def test_profile_report_is_json_serializable(profiled_result):
    doc = obs.to_json(profiled_result.profile)
    roundtripped = json.loads(json.dumps(doc))
    assert roundtripped == doc
    assert len(doc["spans"]) == len(profiled_result.profile.spans)


def test_profile_uninstalls_after_run(small_ic_graph, profiled_result):
    assert not obs.enabled()
    # a second unprofiled run must not accumulate into the old report
    before = len(profiled_result.profile.spans)
    run_imm(small_ic_graph, 3, 0.4, rng=1, options=LIGHT)
    assert len(profiled_result.profile.spans) == before


def test_profile_respects_caller_installed_collectors(small_ic_graph):
    handle = obs.install()
    result = run_imm(small_ic_graph, 3, 0.4, rng=0,
                     options=LIGHT.replace(profile=True))
    # the caller's collectors stay installed and hold the run's spans
    assert obs.enabled()
    assert obs.current_tracer() is handle.tracer
    assert result.profile is not None
    assert "imm.run" in result.profile.span_names()
    obs.uninstall()


def test_profiled_results_identical_to_unprofiled(small_ic_graph):
    opts = IMMOptions(bounds=BoundsConfig(theta_scale=0.2))
    plain = run_imm(small_ic_graph, 4, 0.3, rng=7, options=opts)
    profiled = run_imm(small_ic_graph, 4, 0.3, rng=7,
                       options=opts.replace(profile=True))
    assert np.array_equal(plain.seeds, profiled.seeds)
    assert plain.theta == profiled.theta
    assert np.array_equal(plain.collection.flat, profiled.collection.flat)


def test_final_selection_reused_when_collection_unchanged(small_ic_graph, monkeypatch):
    """When the final theta does not grow the collection, run_imm must not
    re-run greedy selection on the identical input."""
    import repro.imm.imm as imm_mod

    calls = []
    real_select = imm_mod.select_seeds

    def counting_select(collection, k, **kwargs):
        calls.append(collection.num_sets)
        return real_select(collection, k, **kwargs)

    monkeypatch.setattr(imm_mod, "select_seeds", counting_select)
    result = run_imm(small_ic_graph, 2, 0.5, rng=0,
                     options=IMMOptions(bounds=BoundsConfig(theta_scale=0.05)))
    # selection runs once per estimation phase, plus at most one final run —
    # and that extra run is only allowed if the collection actually grew
    assert len(calls) in (len(result.phases), len(result.phases) + 1)
    if len(calls) == len(result.phases) + 1:
        assert calls[-1] > calls[-2]
    assert calls[-1] == result.collection.num_sets
