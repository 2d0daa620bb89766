import numpy as np
import pytest

from repro.diffusion import estimate_spread
from repro.imm import BoundsConfig, IMMOptions, run_imm
from repro.imm.oracle import InfluenceOracle
from repro.rrr import RRRCollection, sample_rrr_ic
from repro.utils.errors import ValidationError


def test_spread_matches_coverage_definition():
    coll = RRRCollection.from_sets([[0, 1], [1], [2], [3]], n=4)
    oracle = InfluenceOracle(coll)
    assert oracle.spread([1]) == pytest.approx(4 * 0.5)
    assert oracle.spread([1, 2]) == pytest.approx(4 * 0.75)
    assert oracle.spread([]) == 0.0


def test_covered_mask():
    coll = RRRCollection.from_sets([[0, 1], [1], [2]], n=3)
    oracle = InfluenceOracle(coll)
    assert list(oracle.sets_covered_by([0])) == [True, False, False]
    assert list(oracle.sets_covered_by([1, 2])) == [True, True, True]


def test_marginal_gain_consistency():
    coll = RRRCollection.from_sets([[0, 1], [1], [2], [0]], n=3)
    oracle = InfluenceOracle(coll)
    gain = oracle.marginal_gain([1], 0)
    assert gain == pytest.approx(oracle.spread([0, 1]) - oracle.spread([1]))
    assert gain >= 0


def test_oracle_matches_monte_carlo(small_ic_graph):
    coll, _ = sample_rrr_ic(small_ic_graph, 30_000, rng=1)
    oracle = InfluenceOracle(coll)
    rng = np.random.default_rng(2)
    seeds = rng.choice(small_ic_graph.n, size=5, replace=False)
    mc = estimate_spread(small_ic_graph, seeds, "IC", 1000, rng=3)
    est = oracle.spread(seeds)
    err = oracle.spread_stderr(seeds)
    assert abs(est - mc) < max(6 * err, 0.15 * mc)


def test_from_imm_result_with_elimination(small_ic_graph):
    result = run_imm(small_ic_graph, 8, 0.2, rng=4,
                     options=IMMOptions(eliminate_sources=True,
                                        bounds=BoundsConfig(theta_scale=0.3)))
    oracle = InfluenceOracle.from_imm_result(result)
    assert oracle.spread(result.seeds) == pytest.approx(
        result.influence_estimate(), rel=1e-9
    )
    mc = estimate_spread(small_ic_graph, result.seeds, "IC", 800, rng=5)
    assert abs(oracle.spread(result.seeds) - mc) / mc < 0.2


def test_validation():
    empty = RRRCollection(np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64), 3)
    with pytest.raises(ValidationError):
        InfluenceOracle(empty)
    coll = RRRCollection.from_sets([[0]], n=2)
    with pytest.raises(ValidationError):
        InfluenceOracle(coll, keep_rate=0.0)
    oracle = InfluenceOracle(coll)
    with pytest.raises(ValidationError):
        oracle.spread([5])


def test_stderr_shrinks_with_sample_size(small_ic_graph):
    small, _ = sample_rrr_ic(small_ic_graph, 2000, rng=6)
    large, _ = sample_rrr_ic(small_ic_graph, 32_000, rng=6)
    seeds = [0, 1, 2]
    assert (InfluenceOracle(large).spread_stderr(seeds)
            < InfluenceOracle(small).spread_stderr(seeds))
