import numpy as np
import pytest

from repro.imm import BoundsConfig, IMMOptions
from repro.imm.tim import estimate_kpt, lambda_tim, run_tim
from repro.utils.errors import ValidationError

BOUNDS = BoundsConfig(theta_scale=0.05)
OPTS = IMMOptions(bounds=BOUNDS)


def test_lambda_tim_monotonicity():
    assert lambda_tim(1000, 50, 0.1, 1.0) > lambda_tim(1000, 50, 0.2, 1.0)
    assert lambda_tim(1000, 100, 0.1, 1.0) > lambda_tim(1000, 10, 0.1, 1.0)
    with pytest.raises(ValidationError):
        lambda_tim(1000, 50, 0.0, 1.0)


def test_kpt_estimate_bounded(small_ic_graph):
    kpt, collection = estimate_kpt(small_ic_graph, 10, rng=1, theta_scale=0.2)
    assert 1.0 <= kpt <= small_ic_graph.n
    assert collection.num_sets > 0


def test_run_tim_produces_valid_seeds(small_ic_graph):
    res = run_tim(small_ic_graph, 8, 0.3, rng=2, bounds=BOUNDS)
    assert res.seeds.size == 8
    assert len(set(res.seeds.tolist())) == 8
    assert res.collection.num_sets >= 1
    assert res.theta >= 1


def test_tim_needs_more_sets_than_imm(small_ic_graph):
    """The gap the paper's §2.2 describes: IMM's martingale bound is
    tighter, so TIM draws (substantially) more RRR sets for the same
    epsilon and guarantee."""
    from repro.imm import run_imm

    tim = run_tim(small_ic_graph, 10, 0.2, rng=3, bounds=BOUNDS)
    imm = run_imm(small_ic_graph, 10, 0.2, rng=3, options=OPTS)
    assert tim.theta > imm.theta


def test_tim_quality_matches_imm(small_ic_graph):
    from repro.diffusion import estimate_spread
    from repro.imm import run_imm

    tim = run_tim(small_ic_graph, 6, 0.3, rng=4, bounds=BOUNDS)
    imm = run_imm(small_ic_graph, 6, 0.3, rng=4, options=OPTS)
    sp_tim = estimate_spread(small_ic_graph, tim.seeds, "IC", 400, rng=5)
    sp_imm = estimate_spread(small_ic_graph, imm.seeds, "IC", 400, rng=5)
    assert sp_tim > 0.85 * sp_imm


def test_tim_validation(small_ic_graph, line_graph):
    with pytest.raises(ValidationError):
        run_tim(line_graph, 1, 0.2)
    with pytest.raises(ValidationError):
        run_tim(small_ic_graph, 0, 0.2)
    with pytest.raises(ValidationError):
        run_tim(small_ic_graph, 5, 1.2)


def test_tim_lt_model(small_lt_graph):
    res = run_tim(small_lt_graph, 5, 0.3, model="LT", rng=6, bounds=BOUNDS)
    assert res.seeds.size == 5
