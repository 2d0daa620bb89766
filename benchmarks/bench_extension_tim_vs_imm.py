"""Extension — TIM vs IMM sample counts (the §2.2 lineage, quantified).

IMM's contribution over its predecessor TIM is a tighter lower bound on
the required number of RRR sets; this bench measures the theta ratio on
real workloads at identical (k, epsilon, guarantee) settings.
"""

from repro.experiments.rendering import Series, format_series
from repro.imm import IMMOptions, run_imm
from repro.imm.tim import run_tim


def test_extension_tim_vs_imm(benchmark, config, report_writer):
    codes = config.datasets[:6]

    def run():
        rows = []
        for code in codes:
            graph = config.graph(code, "IC")
            bounds = config.bounds(sweep=True)
            tim = run_tim(graph, 20, 0.2, rng=config.seed, bounds=bounds)
            imm = run_imm(graph, 20, 0.2, rng=config.seed,
                          options=IMMOptions(bounds=bounds))
            rows.append((code, tim, imm))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    tim_theta = Series("TIM theta")
    imm_theta = Series("IMM theta")
    ratio = Series("TIM/IMM")
    for code, tim, imm in rows:
        tim_theta.add(code, tim.theta)
        imm_theta.add(code, imm.theta)
        ratio.add(code, tim.theta / imm.theta)
    report_writer(
        "extension_tim_vs_imm",
        format_series([tim_theta, imm_theta, ratio],
                      "[extension] TIM vs IMM required sample counts (IC, k=20, eps=0.2)",
                      "dataset", "RRR sets"),
    )
    assert all(r > 1.0 for r in ratio.y)  # IMM's bound is strictly tighter here
