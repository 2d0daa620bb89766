"""The eIM engine: all four optimizations of §3 enabled.

* log-encoded CSC graph and RRR store (§3.1);
* one-warp-per-block traversal with a pre-allocated *global-memory*
  queue pool — no dynamic allocation, the queue doubles as the RRR set
  and is sorted then copied straight into R (§3.2, Fig. 2);
* LT neighbor choice via the shfl_up prefix scan (§3.3);
* source-vertex elimination (§3.4);
* thread-based selection scan with binary search (§3.5, Alg. 3).

Constructor flags turn each optimization off individually for the
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitpack import required_bits
from repro.encoding.csc_encoded import encode_graph
from repro.engines.base import Engine
from repro.gpu.cost_model import CostModel
from repro.gpu.device import SimulatedDevice
from repro.gpu.scheduler import makespan
from repro.graphs.csc import DirectedGraph
from repro.imm.imm import IMMResult


class EIMEngine(Engine):
    """eIM with per-optimization toggles (all on by default).

    The paper's engine: log encoding of graph and RRR store,
    global-memory BFS queues, source-vertex elimination, and
    thread-based selection scanning — each independently toggleable
    (``EIMEngine(log_encoding=False, ...)``), which is the ablation
    axis of the evaluation.  ``run(graph, k, epsilon,
    options=IMMOptions(...))`` like every engine.
    """

    name = "eim"

    def __init__(
        self,
        log_encoding: bool = True,
        eliminate_sources: bool = True,
        thread_scan: bool = True,
        lt_prefix_scan: bool = True,
    ):
        self.log_encoding = bool(log_encoding)
        self.eliminate_sources = bool(eliminate_sources)
        self.thread_scan = bool(thread_scan)
        self.lt_prefix_scan = bool(lt_prefix_scan)

    # -- helpers ------------------------------------------------------------
    def _element_bits(self, n: int) -> int:
        return required_bits(max(n - 1, 1))

    def _load_graph(self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph) -> None:
        if self.log_encoding:
            encoded = encode_graph(graph)
            nbytes = encoded.nbytes_packed()
        else:
            nbytes = graph.nbytes_csc()
        device.memory.allocate(nbytes, "graph")
        device.charge("graph_upload", device.spec.transfer_cycles(nbytes))
        # pre-allocated per-block BFS queue pool (§3.2): one n-element
        # queue per resident block, sized for the worst-case RRR set
        pool = device.spec.resident_blocks * graph.n * 4
        device.memory.allocate(pool, "queue_pool")

    def _charge_sampling(
        self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph, imm: IMMResult
    ) -> None:
        trace = imm.trace
        bits = self._element_bits(graph.n)
        if imm.model == "IC":
            expand = cost.ic_expansion_cycles(
                trace.edges_examined, self.log_encoding, bits
            )
        else:
            expand = cost.lt_expansion_cycles(
                trace.edges_examined,
                trace.rounds,
                self.log_encoding,
                bits,
                use_prefix_scan=self.lt_prefix_scan,
            )
        queue, _ = cost.queue_ops_cycles(trace.sizes, queue="global")
        sort = cost.sort_cycles(trace.sizes)
        # only kept sets are stored; discarded (emptied singleton) sets
        # still paid their traversal above
        store = np.where(
            trace.kept_mask,
            cost.store_cycles(trace.sizes, self.log_encoding, bits, copies=1),
            0.0,
        )
        per_set = expand + queue + sort + store + cost.per_set_fixed_cycles(trace.attempted)
        device.charge("sampling", makespan(per_set, device.spec.resident_blocks))
        device.charge("kernel_launches", device.spec.kernel_launch_cycles * max(len(imm.phases), 1))

        # RRR storage: packed R and O, raw counts C (mutated by atomics)
        collection = imm.collection
        if self.log_encoding:
            rrr_bytes = collection.nbytes_packed()
        else:
            rrr_bytes = collection.nbytes_raw()
        device.memory.allocate(rrr_bytes, "rrr_store")

    def _charge_selection(
        self, device: SimulatedDevice, cost: CostModel, graph: DirectedGraph, imm: IMMResult
    ) -> None:
        stats = imm.selection.stats
        bits = self._element_bits(graph.n)
        if self.thread_scan:
            scan = cost.thread_scan_cycles(stats, self.log_encoding, bits)
        else:
            scan = cost.warp_scan_cycles(stats, self.log_encoding, bits)
        device.charge("selection_scan", scan)
        device.charge("selection_argmax", cost.argmax_cycles(graph.n, imm.k))

    def _rrr_store_bytes(self, imm: IMMResult) -> int:
        if self.log_encoding:
            return imm.collection.nbytes_packed()
        return imm.collection.nbytes_raw()
