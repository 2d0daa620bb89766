"""Ablation — log encoding on/off inside eIM.

DESIGN.md §5: packing must cut the RRR+graph footprint substantially
(Fig. 4) while leaving running time nearly unchanged (§3.1 claims
"minimal impact on the running time" thanks to cheap decompression).
"""

from repro.engines import EIMEngine
from repro.experiments.rendering import Series, format_series
from repro.imm import IMMOptions


def _run(config, code, log_encoding):
    graph = config.graph(code, "IC")
    return EIMEngine(log_encoding=log_encoding).run(
        graph, config.default_k, config.default_epsilon,
        rng=config.seed, device_spec=config.device(),
        options=IMMOptions(model="IC", bounds=config.bounds(sweep=True)),
    )


def test_ablation_log_encoding(benchmark, config, report_writer):
    codes = config.datasets[:6]

    def run_all():
        rows = []
        for code in codes:
            packed = _run(config, code, True)
            raw = _run(config, code, False)
            rows.append((code, packed, raw))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    mem = Series("memory ratio (packed/raw)")
    time = Series("cycle ratio (packed/raw)")
    for code, packed, raw in rows:
        mem.add(code, packed.rrr_store_bytes / raw.rrr_store_bytes)
        time.add(code, packed.total_cycles / raw.total_cycles)
    report_writer(
        "ablation_log_encoding",
        format_series([mem, time], "[ablation] log encoding on/off (eIM, IC)",
                      "dataset", "packed / raw"),
    )
    assert all(m < 0.8 for m in mem.y)  # clear memory win
    assert all(t < 1.15 for t in time.y)  # near-neutral runtime
