import numpy as np
import pytest

from repro.imm import BoundsConfig, IMMOptions, run_imm
from repro.utils.errors import ValidationError

BOUNDS = BoundsConfig(theta_scale=0.05)
OPTS = IMMOptions(bounds=BOUNDS)


def test_validations(small_ic_graph, line_graph):
    with pytest.raises(ValidationError):
        run_imm(line_graph, 1, 0.2)  # unweighted
    with pytest.raises(ValidationError):
        run_imm(small_ic_graph, 0, 0.2)
    with pytest.raises(ValidationError):
        run_imm(small_ic_graph, small_ic_graph.n + 1, 0.2)
    with pytest.raises(ValidationError):
        run_imm(small_ic_graph, 5, 0.0)
    with pytest.raises(ValidationError):
        run_imm(small_ic_graph, 5, 1.5)


def test_result_structure(small_ic_graph):
    res = run_imm(small_ic_graph, 5, 0.3, rng=1, options=OPTS)
    assert res.seeds.size == 5
    assert len(set(res.seeds.tolist())) == 5  # distinct seeds
    assert res.collection.num_sets >= res.theta or res.theta > 0
    assert res.lower_bound >= 1.0
    assert res.phases and res.phases[-1].passed
    assert 0.0 < res.coverage_fraction <= 1.0


def test_theta_grows_as_epsilon_shrinks(small_ic_graph):
    hi = run_imm(small_ic_graph, 5, 0.4, rng=1, options=OPTS)
    lo = run_imm(small_ic_graph, 5, 0.2, rng=1, options=OPTS)
    assert lo.theta > hi.theta


def test_influence_estimate_tracks_monte_carlo(small_ic_graph):
    from repro.diffusion import estimate_spread

    res = run_imm(small_ic_graph, 8, 0.2, rng=2,
                  options=IMMOptions(bounds=BoundsConfig(theta_scale=0.2)))
    mc = estimate_spread(small_ic_graph, res.seeds, "IC", 800, rng=3)
    assert abs(res.influence_estimate() - mc) / mc < 0.2


def test_source_elimination_quality_parity(small_ic_graph):
    from repro.diffusion import estimate_spread

    plain = run_imm(small_ic_graph, 8, 0.25, rng=4, options=OPTS)
    elim = run_imm(small_ic_graph, 8, 0.25, rng=4,
                   options=IMMOptions(eliminate_sources=True, bounds=BOUNDS))
    sp_plain = estimate_spread(small_ic_graph, plain.seeds, "IC", 600, rng=5)
    sp_elim = estimate_spread(small_ic_graph, elim.seeds, "IC", 600, rng=5)
    assert sp_elim > 0.9 * sp_plain


def test_lt_model(small_lt_graph):
    res = run_imm(small_lt_graph, 5, 0.3, rng=6,
                  options=IMMOptions(model="LT", bounds=BOUNDS))
    assert res.model == "LT"
    assert res.seeds.size == 5


def test_max_theta_cap(small_ic_graph):
    res = run_imm(small_ic_graph, 5, 0.3, rng=7,
                  options=IMMOptions(
                      bounds=BoundsConfig(theta_scale=0.05, max_theta=50)))
    assert res.collection.num_sets <= 50


def test_deterministic_given_seed(small_ic_graph):
    a = run_imm(small_ic_graph, 5, 0.3, rng=11, options=OPTS)
    b = run_imm(small_ic_graph, 5, 0.3, rng=11, options=OPTS)
    assert np.array_equal(a.seeds, b.seeds)
    assert a.theta == b.theta


def test_selects_high_degree_hub():
    """On a star graph the hub must be the first seed."""
    from repro.graphs import DirectedGraph, assign_ic_weights

    n = 50
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    g = assign_ic_weights(DirectedGraph.from_edges(src, dst, n=n))
    res = run_imm(g, 1, 0.3, rng=1,
                  options=IMMOptions(bounds=BoundsConfig(theta_scale=0.5)))
    assert res.seeds[0] == 0
