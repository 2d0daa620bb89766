"""Ablation — LT activating-neighbor selection: prefix scan vs atomics.

§3.3 tried both and rejected the atomic-accumulation variant because it
serializes the warp; the shfl_up prefix scan reduces the per-step cost
from O(d) to O(log d).
"""

from repro.engines import EIMEngine
from repro.experiments.rendering import Series, format_series
from repro.imm import IMMOptions


def test_ablation_lt_selection(benchmark, config, report_writer):
    codes = config.datasets[:6]

    def run_all():
        rows = []
        for code in codes:
            graph = config.graph(code, "LT")
            common = dict(rng=config.seed, device_spec=config.device(),
                          options=IMMOptions(model="LT",
                                             bounds=config.bounds(sweep=True)))
            scan = EIMEngine(lt_prefix_scan=True).run(
                graph, config.default_k, config.default_epsilon, **common)
            atomic = EIMEngine(lt_prefix_scan=False).run(
                graph, config.default_k, config.default_epsilon, **common)
            rows.append((code, scan, atomic))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ratio = Series("sampling cycles (scan/atomic)")
    for code, scan, atomic in rows:
        ratio.add(code, scan.breakdown["sampling"] / atomic.breakdown["sampling"])
    report_writer(
        "ablation_lt_selection",
        format_series([ratio], "[ablation] LT prefix scan vs atomic accumulation",
                      "dataset", "scan / atomic"),
    )
    assert all(r < 1.0 for r in ratio.y)  # the scan variant always wins
