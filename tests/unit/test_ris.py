import math

import pytest

from repro.imm import run_ris
from repro.utils.errors import ValidationError


def test_fixed_num_sets(small_ic_graph):
    res = run_ris(small_ic_graph, 5, num_sets=800, rng=1)
    assert res.collection.num_sets == 800
    assert res.seeds.size == 5
    assert math.isnan(res.work_budget)


def test_budget_rule_spends_enough(small_ic_graph):
    res = run_ris(small_ic_graph, 5, epsilon=0.5, rng=2, budget_constant=0.01)
    assert res.work_spent >= res.work_budget or res.collection.num_sets >= 4096
    assert res.collection.num_sets > 0


def test_budget_grows_with_accuracy(small_ic_graph):
    loose = run_ris(small_ic_graph, 3, epsilon=0.5, rng=3, budget_constant=0.001)
    tight = run_ris(small_ic_graph, 3, epsilon=0.3, rng=3, budget_constant=0.001)
    assert tight.work_budget > loose.work_budget


def test_validation(small_ic_graph, line_graph):
    with pytest.raises(ValidationError):
        run_ris(line_graph, 2)
    with pytest.raises(ValidationError):
        run_ris(small_ic_graph, 0)
    with pytest.raises(ValidationError):
        run_ris(small_ic_graph, 2, epsilon=1.5)


def test_lt_model_supported(small_lt_graph):
    res = run_ris(small_lt_graph, 4, model="LT", num_sets=500, rng=4)
    assert res.seeds.size == 4


def test_quality_close_to_imm(small_ic_graph):
    from repro.diffusion import estimate_spread
    from repro.imm import BoundsConfig, IMMOptions, run_imm

    ris = run_ris(small_ic_graph, 6, num_sets=4000, rng=5)
    imm = run_imm(small_ic_graph, 6, 0.25, rng=5,
                  options=IMMOptions(bounds=BoundsConfig(theta_scale=0.1)))
    sp_ris = estimate_spread(small_ic_graph, ris.seeds, "IC", 500, rng=6)
    sp_imm = estimate_spread(small_ic_graph, imm.seeds, "IC", 500, rng=6)
    assert sp_ris > 0.85 * sp_imm
