import numpy as np
import pytest

from repro.graphs import DirectedGraph, assign_ic_weights
from repro.imm import run_celf_greedy
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def tiny_graph():
    """Star + chain: hub 0 dominates, vertex 10 starts a short chain."""
    src = [0] * 8 + [10, 11]
    dst = list(range(1, 9)) + [11, 12]
    return assign_ic_weights(
        DirectedGraph.from_edges(src, dst, n=13), scheme="constant", p=0.9
    )


def test_hub_selected_first(tiny_graph):
    res = run_celf_greedy(tiny_graph, 1, num_samples=150, rng=1)
    assert res.seeds[0] == 0
    assert res.spread > 5


def test_lazy_evaluation_saves_work(tiny_graph):
    res = run_celf_greedy(tiny_graph, 3, num_samples=80, rng=2)
    # upper bound on naive greedy evaluations: n * k
    assert res.evaluations < tiny_graph.n * 3
    assert res.seeds.size == 3
    assert len(set(res.seeds.tolist())) == 3


def test_candidate_pool(tiny_graph):
    res = run_celf_greedy(tiny_graph, 2, num_samples=50, rng=3,
                          candidates=[0, 10, 12])
    assert set(res.seeds.tolist()) <= {0, 10, 12}


def test_validation(tiny_graph, line_graph):
    with pytest.raises(ValidationError):
        run_celf_greedy(line_graph, 1)
    with pytest.raises(ValidationError):
        run_celf_greedy(tiny_graph, 0)
    with pytest.raises(ValidationError):
        run_celf_greedy(tiny_graph, 3, candidates=[0, 1])


def test_agreement_with_imm(small_ic_graph):
    """CELF and IMM should find seed sets of comparable quality."""
    from repro.diffusion import estimate_spread
    from repro.imm import BoundsConfig, IMMOptions, run_imm

    celf = run_celf_greedy(small_ic_graph, 3, num_samples=60, rng=4)
    imm = run_imm(small_ic_graph, 3, 0.3, rng=4,
                  options=IMMOptions(bounds=BoundsConfig(theta_scale=0.2)))
    sp_celf = estimate_spread(small_ic_graph, celf.seeds, "IC", 400, rng=5)
    sp_imm = estimate_spread(small_ic_graph, imm.seeds, "IC", 400, rng=5)
    assert sp_celf > 0.8 * sp_imm


def test_round_one_uses_initial_gains_exactly(tiny_graph):
    # regression: the initial singleton gains were pushed as round-0 so
    # the round-1 loop re-estimated every popped candidate — for k == 1
    # that burned extra num_samples-cascade evaluations beyond the pool
    res = run_celf_greedy(tiny_graph, 1, num_samples=40, rng=6)
    assert res.evaluations == tiny_graph.n


def test_round_one_exactness_with_candidate_pool(tiny_graph):
    pool = [0, 5, 10, 12]
    res = run_celf_greedy(tiny_graph, 1, num_samples=40, rng=7, candidates=pool)
    assert res.evaluations == len(pool)


def test_later_rounds_still_reevaluate(tiny_graph):
    # k > 1 must keep lazy re-evaluation: strictly more evaluations than
    # the initial pass, but far fewer than naive n*k
    res = run_celf_greedy(tiny_graph, 3, num_samples=40, rng=8)
    assert tiny_graph.n < res.evaluations < tiny_graph.n * 3
