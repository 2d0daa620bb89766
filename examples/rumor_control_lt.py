"""Rumor control under the Linear Threshold model.

The paper's §1 cites rumor control as an IM application: to pre-empt a
rumor, seed the truth with the individuals who maximize spread under
*social reinforcement* (LT: people act when enough of their contacts
have).  Compares IMM under LT with IMM under IC on the same network to
show how the model changes both the seeds and the reach, and
cross-checks the RRR-walk sampler against forward LT simulation.

Usage::

    python examples/rumor_control_lt.py
"""

import numpy as np

from repro import (
    BoundsConfig,
    IMMOptions,
    assign_ic_weights,
    assign_lt_weights,
    estimate_spread,
    load_dataset,
    run_imm,
)


def main() -> None:
    base = load_dataset("SD", scale="tiny", rng=11)
    print(f"soc-Slashdot stand-in: {base.n} vertices, {base.m} edges\n")
    lt_graph = assign_lt_weights(base)
    ic_graph = assign_ic_weights(base)
    bounds = BoundsConfig(theta_scale=0.3)

    lt = run_imm(lt_graph, k=15, epsilon=0.15, rng=1,
                 options=IMMOptions(model="LT", bounds=bounds,
                                    eliminate_sources=True))
    ic = run_imm(ic_graph, k=15, epsilon=0.15, rng=1,
                 options=IMMOptions(model="IC", bounds=bounds,
                                    eliminate_sources=True))

    sp_lt = estimate_spread(lt_graph, lt.seeds, "LT", 800, rng=2)
    sp_ic = estimate_spread(ic_graph, ic.seeds, "IC", 800, rng=2)
    overlap = len(set(lt.seeds.tolist()) & set(ic.seeds.tolist()))

    print(f"LT seeds ({lt.theta} RRR walks sampled): {sorted(lt.seeds.tolist())}")
    print(f"IC seeds ({ic.theta} RRR sets sampled):  {sorted(ic.seeds.tolist())}")
    print(f"seed overlap between models: {overlap}/15\n")
    print(f"LT spread of LT seeds: {sp_lt:7.1f} vertices "
          f"({100 * sp_lt / base.n:.1f}% of the network)")
    print(f"IC spread of IC seeds: {sp_ic:7.1f} vertices "
          f"({100 * sp_ic / base.n:.1f}%)")

    # using the wrong model's seeds costs real reach
    sp_cross = estimate_spread(lt_graph, ic.seeds, "LT", 800, rng=3)
    print(f"LT spread of IC seeds: {sp_cross:7.1f} vertices "
          f"-> choosing seeds under the wrong diffusion model "
          f"{'loses' if sp_cross < sp_lt else 'gains'} "
          f"{abs(sp_lt - sp_cross):.1f}")


if __name__ == "__main__":
    main()
