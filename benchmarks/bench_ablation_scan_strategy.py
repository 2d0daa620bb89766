"""Ablation — thread-based vs warp-based selection scan inside eIM.

The engine-level companion to Fig. 3: with the paper's default workload
the thread-based scan must win on datasets that generate many RRR sets.
"""

from repro.engines import EIMEngine
from repro.experiments.rendering import Series, format_series
from repro.imm import IMMOptions


def test_ablation_scan_strategy(benchmark, config, report_writer):
    codes = config.datasets[:6]

    def run_all():
        rows = []
        for code in codes:
            graph = config.graph(code, "IC")
            common = dict(rng=config.seed, device_spec=config.device(),
                          options=IMMOptions(model="IC",
                                             bounds=config.bounds(sweep=True)))
            thread = EIMEngine(thread_scan=True).run(
                graph, 100, config.default_epsilon, **common)
            warp = EIMEngine(thread_scan=False).run(
                graph, 100, config.default_epsilon, **common)
            rows.append((code, thread, warp))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ratio = Series("selection cycles (thread/warp)")
    for code, thread, warp in rows:
        ratio.add(code, thread.breakdown["selection_scan"]
                  / warp.breakdown["selection_scan"])
    report_writer(
        "ablation_scan_strategy",
        format_series([ratio], "[ablation] thread vs warp scan (eIM, IC, k=100)",
                      "dataset", "thread / warp"),
    )
    # at k=100/eps=0.05 theta is large: thread-based must win on most
    wins = sum(r < 1.0 for r in ratio.y)
    assert wins >= len(ratio.y) // 2
