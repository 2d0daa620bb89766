"""Quickstart: find influential vertices in a synthetic social network.

Runs the full IMM pipeline on the wiki-Vote stand-in and checks the
selected seed set's expected influence with forward Monte-Carlo
simulation.

Usage::

    python examples/quickstart.py
"""

from repro import (
    BoundsConfig,
    IMMOptions,
    assign_ic_weights,
    estimate_spread,
    load_dataset,
    run_imm,
)


def main() -> None:
    # 1. load a network (synthetic stand-in for SNAP wiki-Vote; scale
    #    "tiny" is ~1/1000 of the paper's size, "paper" is full size)
    graph = load_dataset("WV", scale="tiny", rng=0)
    print(f"network: {graph.n} vertices, {graph.m} edges")

    # 2. assign IC weights the paper's way: p_uv = 1 / in-degree(v)
    graph = assign_ic_weights(graph)

    # 3. run IMM: a (1 - 1/e - eps)-approximate seed set of size k
    result = run_imm(
        graph,
        k=10,
        epsilon=0.1,
        rng=0,
        options=IMMOptions(
            model="IC",
            eliminate_sources=True,  # eIM's §3.4 heuristic
            bounds=BoundsConfig(theta_scale=0.5),  # lighter bounds for a demo
        ),
    )
    print(f"sampled theta = {result.theta} RRR sets "
          f"(lower bound on OPT: {result.lower_bound:.1f})")
    print(f"seeds: {sorted(result.seeds.tolist())}")
    print(f"RIS influence estimate: {result.influence_estimate():.1f} vertices")

    # 4. validate with ground-truth forward simulation
    spread = estimate_spread(graph, result.seeds, model="IC",
                             num_samples=2000, rng=1)
    print(f"Monte-Carlo spread:     {spread:.1f} vertices "
          f"({100 * spread / graph.n:.1f}% of the network)")


if __name__ == "__main__":
    main()
