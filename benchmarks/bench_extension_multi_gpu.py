"""Extension — multi-GPU eIM scaling (the paper's future-work item).

Stripes theta across 1..16 simulated devices and reports the speedup
curve: near-linear for the sampling-dominated regime, saturating as the
per-iteration count all-reduce grows with device count.
"""

from repro.experiments.rendering import Series, format_series
from repro.gpu.multi import run_multi_device_eim
from repro.imm import IMMOptions, run_imm


def test_extension_multi_gpu_scaling(benchmark, config, report_writer):
    graph = config.graph("CY", "IC")
    spec = config.device()

    def run():
        imm = run_imm(graph, config.default_k, config.default_epsilon,
                      rng=config.seed,
                      options=IMMOptions(model="IC", eliminate_sources=True,
                                         bounds=config.bounds(sweep=True)))
        return {d: run_multi_device_eim(imm, graph, spec, d)
                for d in (1, 2, 4, 8, 16)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results[1].total_cycles
    speedup = Series("speedup vs 1 GPU")
    efficiency = Series("parallel efficiency")
    for d, res in results.items():
        speedup.add(d, base / res.total_cycles)
        efficiency.add(d, base / res.total_cycles / d)
    report_writer(
        "extension_multi_gpu",
        format_series([speedup, efficiency],
                      "[extension] multi-GPU eIM scaling (CY, IC)",
                      "devices", "speedup"),
    )
    assert speedup.y[1] > 1.2  # 2 GPUs clearly help
    assert efficiency.y[-1] < efficiency.y[0]  # collectives erode efficiency
