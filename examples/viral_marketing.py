"""Viral marketing: choose campaign ambassadors under a budget sweep.

The paper's motivating application (§1): a brand can activate k
individuals; word of mouth then cascades through the network.  This
example sweeps the budget k, showing the submodular diminishing returns
of influence, and compares IMM's seeds against the two heuristics
practitioners reach for first (highest degree, random).

Usage::

    python examples/viral_marketing.py
"""

import numpy as np

from repro import (
    BoundsConfig,
    IMMOptions,
    assign_ic_weights,
    estimate_spread,
    load_dataset,
    run_imm,
)


def main() -> None:
    graph = assign_ic_weights(load_dataset("SE", scale="tiny", rng=7))
    print(f"soc-Epinions stand-in: {graph.n} vertices, {graph.m} edges\n")
    rng = np.random.default_rng(1)
    bounds = BoundsConfig(theta_scale=0.3)

    print(f"{'budget k':>8}  {'IMM spread':>10}  {'top-degree':>10}  {'random':>8}  {'IMM gain/seed':>13}")
    previous = 0.0
    for k in (1, 2, 5, 10, 20, 40):
        imm = run_imm(graph, k, epsilon=0.15, rng=2,
                      options=IMMOptions(bounds=bounds, eliminate_sources=True))
        sp_imm = estimate_spread(graph, imm.seeds, "IC", 800, rng=rng)
        degree_seeds = np.argsort(graph.out_degrees())[-k:]
        sp_degree = estimate_spread(graph, degree_seeds, "IC", 800, rng=rng)
        random_seeds = rng.choice(graph.n, size=k, replace=False)
        sp_random = estimate_spread(graph, random_seeds, "IC", 800, rng=rng)
        gain = (sp_imm - previous) / max(k, 1)
        previous = sp_imm
        print(f"{k:>8}  {sp_imm:>10.1f}  {sp_degree:>10.1f}  {sp_random:>8.1f}  {gain:>13.2f}")

    print("\nDiminishing returns per added seed are the submodularity the")
    print("greedy (1 - 1/e - eps) guarantee rests on; IMM consistently")
    print("matches or beats the degree heuristic and crushes random picks.")


if __name__ == "__main__":
    main()
