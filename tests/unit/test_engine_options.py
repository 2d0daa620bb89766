"""The unified Engine.run contract: all four engines accept one
IMMOptions with identical semantics; the knobs live nowhere else."""

import pytest

from repro.api import (
    CuRipplesEngine,
    EIMEngine,
    GIMEngine,
    IMMOptions,
    RipplesCPUEngine,
)
from repro.imm.bounds import BoundsConfig
from repro.utils.errors import ValidationError

ENGINES = [EIMEngine, GIMEngine, CuRipplesEngine, RipplesCPUEngine]
OPTS = IMMOptions(model="IC", bounds=BoundsConfig(theta_scale=0.1))


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_every_engine_accepts_options(small_ic_graph, engine_cls):
    result = engine_cls().run(small_ic_graph, 5, 0.3, rng=3, options=OPTS)
    assert result.model == "IC"
    assert len(result.seeds) == 5
    # elimination stays an engine property, never a caller knob
    assert result.imm.eliminate_sources == engine_cls().eliminate_sources


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_engine_overrides_options_elimination(small_ic_graph, engine_cls):
    wrong = OPTS.replace(
        eliminate_sources=not engine_cls().eliminate_sources
    )
    result = engine_cls().run(small_ic_graph, 5, 0.3, rng=3, options=wrong)
    assert result.imm.eliminate_sources == engine_cls().eliminate_sources


def test_mixing_options_and_legacy_raises(small_ic_graph):
    # the per-knob keywords are gone: a stale positional model or a
    # removed keyword fails loudly instead of binding to another slot
    with pytest.raises(TypeError):
        EIMEngine().run(small_ic_graph, 5, 0.3, "IC", options=OPTS)
    with pytest.raises(TypeError):
        GIMEngine().run(small_ic_graph, 5, 0.3, options=OPTS,
                        selection_strategy="fast")
    with pytest.raises(TypeError):
        GIMEngine().run(small_ic_graph, 5, 0.3, model="IC")


def test_options_must_be_imm_options(small_ic_graph):
    with pytest.raises(ValidationError, match="IMMOptions"):
        EIMEngine().run(small_ic_graph, 5, 0.3, options={"model": "IC"})


def test_resolve_options_forces_engine_elimination(small_ic_graph):
    # the options the run resolves keep every caller knob but the
    # engine's own source elimination
    result = EIMEngine().run(
        small_ic_graph, 5, 0.3, rng=3,
        options=OPTS.replace(eliminate_sources=False),
    )
    resolved = result.imm.options
    assert resolved.eliminate_sources is True
    assert resolved.model == OPTS.model and resolved.bounds == OPTS.bounds
