"""Extension — the full engine lineage: CPU Ripples -> cuRipples -> gIM -> eIM.

The paper's §2.3 narrative as one chart: each generation's design change
(host-only -> host-offloaded GPU -> device-resident GPU -> eIM's memory
and scan optimizations) buys a speedup.  Reported as cycles normalized
to the CPU baseline.
"""

from repro.engines import CuRipplesEngine, EIMEngine, GIMEngine, RipplesCPUEngine
from repro.experiments.rendering import Series, format_series
from repro.imm import IMMOptions, run_imm


def test_extension_cpu_lineage(benchmark, config, report_writer):
    codes = config.datasets[:6]

    def run():
        rows = []
        for code in codes:
            graph = config.graph(code, "IC")
            options = IMMOptions(model="IC", bounds=config.bounds(sweep=True))
            vanilla = run_imm(graph, config.default_k, config.default_epsilon,
                              rng=config.seed, options=options)
            shared = dict(device_spec=config.device(), imm_result=vanilla,
                          options=options)
            cpu = RipplesCPUEngine().run(graph, config.default_k,
                                         config.default_epsilon, **shared)
            cur = CuRipplesEngine().run(graph, config.default_k,
                                        config.default_epsilon, **shared)
            gim = GIMEngine().run(graph, config.default_k,
                                  config.default_epsilon, **shared)
            eim = EIMEngine().run(graph, config.default_k,
                                  config.default_epsilon, rng=config.seed,
                                  device_spec=config.device(), options=options)
            rows.append((code, cpu, cur, gim, eim))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {name: Series(f"speedup vs CPU [{name}]")
              for name in ("cuRipples", "gIM", "eIM")}
    for code, cpu, cur, gim, eim in rows:
        series["cuRipples"].add(code, cpu.total_cycles / cur.total_cycles)
        series["gIM"].add(code, cpu.total_cycles / gim.total_cycles)
        series["eIM"].add(code, cpu.total_cycles / eim.total_cycles)
    report_writer(
        "extension_cpu_lineage",
        format_series(list(series.values()),
                      "[extension] engine lineage speedups over CPU Ripples (IC)",
                      "dataset", "speedup (x)"),
    )
    for code, cpu, cur, gim, eim in rows:
        # each generation at least matches its predecessor's order
        assert gim.total_cycles < cpu.total_cycles
        assert eim.total_cycles <= gim.total_cycles * 1.2
