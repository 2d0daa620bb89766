"""IMMOptions: validation, the one run_imm call shape, and parallel runs."""

import dataclasses

import numpy as np
import pytest

from repro import IMMOptions, run_imm
from repro.imm.bounds import BoundsConfig
from repro.utils.errors import ValidationError

BOUNDS = BoundsConfig(theta_scale=0.1)


def test_defaults():
    opts = IMMOptions()
    assert opts.model == "IC"
    assert opts.eliminate_sources is False
    assert opts.bounds is None
    assert opts.batch_size == 16384
    assert opts.n_jobs == 1
    assert opts.profile is False


def test_model_normalized_and_validated():
    assert IMMOptions(model="lt").model == "LT"
    with pytest.raises(ValidationError):
        IMMOptions(model="SIR")


def test_field_validation():
    with pytest.raises(TypeError):
        IMMOptions(selection_strategy="fast")  # removed knob
    with pytest.raises(TypeError):
        IMMOptions(coverage_scan="csr")  # removed knob: one selection scan
    with pytest.raises(ValidationError):
        IMMOptions(batch_size=0)
    with pytest.raises(ValidationError):
        IMMOptions(n_jobs=0)


def test_frozen_and_replace():
    opts = IMMOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.model = "LT"
    other = opts.replace(n_jobs=3, model="lt")
    assert (other.n_jobs, other.model) == (3, "LT")
    assert (opts.n_jobs, opts.model) == (1, "IC")


def test_no_warning_for_pure_options_call(small_ic_graph, recwarn):
    run_imm(small_ic_graph, 3, 0.4, rng=1, options=IMMOptions(bounds=BOUNDS))
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_options_and_legacy_kwargs_conflict(small_ic_graph):
    # the per-knob keywords are gone, and everything after epsilon is
    # keyword-only: a stale positional model cannot bind to rng
    with pytest.raises(TypeError):
        run_imm(small_ic_graph, 3, 0.4, model="IC", options=IMMOptions())
    with pytest.raises(TypeError):
        run_imm(small_ic_graph, 3, 0.4, "IC")
    with pytest.raises(ValidationError, match="IMMOptions"):
        run_imm(small_ic_graph, 3, 0.4, options={"model": "IC"})


def test_result_carries_options(small_ic_graph):
    opts = IMMOptions(bounds=BOUNDS)
    result = run_imm(small_ic_graph, 3, 0.4, rng=0, options=opts)
    assert result.options is opts


def test_parallel_options_reproducible(small_ic_graph):
    # acceptance: n_jobs=4 yields a valid seed set, bit-for-bit stable
    # for a fixed (rng, n_jobs)
    opts = IMMOptions(bounds=BOUNDS, n_jobs=4)
    a = run_imm(small_ic_graph, 5, 0.3, rng=17, options=opts)
    b = run_imm(small_ic_graph, 5, 0.3, rng=17, options=opts)
    assert len(set(a.seeds.tolist())) == 5
    assert np.all((0 <= a.seeds) & (a.seeds < small_ic_graph.n))
    assert a.theta == b.theta
    assert np.array_equal(a.seeds, b.seeds)
    assert np.array_equal(a.collection.flat, b.collection.flat)
    assert np.array_equal(a.collection.offsets, b.collection.offsets)
