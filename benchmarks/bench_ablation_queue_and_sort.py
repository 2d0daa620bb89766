"""Ablation — queue placement and the sorted-insertion trade-off.

Two DESIGN.md §5 questions answered with the cost model on real traces:

1. global pre-allocated queues (eIM) vs shared queues with dynamic spill
   (gIM) as traversals deepen — shared wins on shallow sets, loses once
   sets overflow the block's shared memory;
2. the paper's §3.2 observation that paying an in-warp sort at store time
   is repaid by binary-search selection ("the benefit ... outweighs the
   overhead of sorting").
"""

import numpy as np

from repro.gpu.cost_model import CostModel
from repro.imm.imm import run_imm
from repro.imm.options import IMMOptions
from repro.experiments.rendering import Series, format_series


def test_ablation_queue_and_sort(benchmark, config, report_writer):
    graph = config.graph("CA", "IC")  # deep-cascade network
    device = config.device()
    cost = CostModel(device)

    def run():
        return run_imm(graph, 100, config.default_epsilon, rng=config.seed,
                       options=IMMOptions(model="IC",
                                          bounds=config.bounds(sweep=True)))

    imm = benchmark.pedantic(run, rounds=1, iterations=1)
    trace = imm.trace

    # queue placement sweep: shared capacity shrinks relative to sets
    queue = Series("shared/global queue cycle ratio")
    for cap in (16, 64, 256, 4096):
        shared, _ = cost.queue_ops_cycles(trace.sizes, "shared",
                                          shared_capacity_elems=cap)
        glob, _ = cost.queue_ops_cycles(trace.sizes, "global")
        queue.add(f"cap={cap}", float(shared.sum() / glob.sum()))

    # sort trade-off: (sort + thread/binary-search scan) vs (no sort +
    # warp/linear scan), both on the identical selection workload
    stats = imm.selection.stats
    sort_cost = float(cost.sort_cycles(trace.sizes).sum()) / device.resident_blocks
    sorted_total = sort_cost + cost.thread_scan_cycles(stats, encoded=True, element_bits=12)
    unsorted_total = cost.warp_scan_cycles(stats, encoded=False)
    tradeoff = Series("cycles")
    tradeoff.add("sort+binary-search", sorted_total)
    tradeoff.add("no-sort+linear-scan", unsorted_total)

    report_writer(
        "ablation_queue_and_sort",
        format_series([queue], "[ablation] shared vs global queue", "capacity", "ratio")
        + "\n\n"
        + format_series([tradeoff], "[ablation] sorted-insertion trade-off (CA, k=100)",
                        "strategy", "cycles"),
    )
    # shared memory wins with big capacity, loses when sets overflow it
    assert queue.y[-1] < 1.0
    assert queue.y[0] > queue.y[-1]
    # the paper's claim: sorting pays for itself at large theta
    assert sorted_total < unsorted_total
