"""Cycle-cost model for the three engines' kernels.

Every method converts *operation counts that the real algorithms
produced* (sampler traces, greedy-selection statistics) into device
cycles using the :class:`DeviceSpec` throughput table.  The engines
differ only in which methods they call — global vs shared queues,
single vs double store copies, thread vs warp scanning, packed vs raw
accesses, device-resident vs host-offloaded RRR sets — which is exactly
the design axis the paper evaluates.

All per-set methods are vectorized over NumPy arrays (one entry per RRR
set); selection methods are vectorized over greedy iterations.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.imm.seed_selection import SelectionStats
from repro.utils.errors import ValidationError


def _pack_factor(encoded: bool, element_bits: int) -> float:
    """Bandwidth scale of packed accesses: bits moved / 32."""
    if not encoded:
        return 1.0
    return max(element_bits, 1) / 32.0


class CostModel:
    """Charges cycles for the kernel operations of §3.2-§3.5."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    # ------------------------------------------------------------------
    # sampling-phase building blocks (per attempted RRR set)
    # ------------------------------------------------------------------
    def ic_expansion_cycles(
        self, edges_examined: np.ndarray, encoded: bool, element_bits: int = 32
    ) -> np.ndarray:
        """Warp-parallel in-neighbor probing (Alg. 2 lines 15-20).

        Per examined edge: one coalesced CSC read (scaled by the packing
        factor when the graph is log-encoded, plus a 2-ALU decode), one
        RNG draw, compare, and an amortized visited-bitmask check.
        """
        s = self.spec
        per_edge = (
            s.global_coalesced_per_elem * _pack_factor(encoded, element_bits)
            + (s.alu_cycles if encoded else 0.0)  # field extract
            + s.rng_cycles
            + 2.0 * s.alu_cycles
            + s.global_random_per_elem / 8.0  # M bitmask probe, mostly cached
        )
        return np.asarray(edges_examined, dtype=np.float64) * per_edge / s.warp_size

    def lt_expansion_cycles(
        self,
        edges_examined: np.ndarray,
        steps: np.ndarray,
        encoded: bool,
        element_bits: int = 32,
        use_prefix_scan: bool = True,
    ) -> np.ndarray:
        """LT walk advancement (§3.3).

        Each step reads the current vertex's whole in-edge segment and
        picks the activating neighbor either with the shfl_up prefix scan
        (``log2(warp)`` shuffles per 32-edge chunk) or with the serialized
        atomic-accumulation variant the paper rejects (one shared-atomic
        round trip per edge).
        """
        s = self.spec
        edges = np.asarray(edges_examined, dtype=np.float64)
        steps = np.asarray(steps, dtype=np.float64)
        read = edges * (
            s.global_coalesced_per_elem * _pack_factor(encoded, element_bits)
            + (s.alu_cycles if encoded else 0.0)
        ) / s.warp_size
        if use_prefix_scan:
            chunks = np.ceil(np.maximum(edges, 1.0) / s.warp_size)
            select = chunks * 5.0 * s.shfl_cycles + steps * s.rng_cycles
        else:
            select = edges * s.atomic_shared_cycles + steps * s.rng_cycles
        return read + select

    def queue_ops_cycles(
        self,
        sizes: np.ndarray,
        queue: str,
        shared_capacity_elems: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Enqueue/dequeue traffic for the BFS queue.

        ``queue="global"`` is eIM's pre-allocated global pool (§3.2):
        every enqueue is one coalesced global write plus the tail atomic.
        ``queue="shared"`` is gIM's design: cheap shared-memory ops until
        the queue overflows the block's shared capacity, after which each
        overflow chunk costs a device ``malloc`` plus a bulk copy.

        Returns ``(cycles_per_set, spill_allocations_per_set)``.
        """
        s = self.spec
        sizes = np.asarray(sizes, dtype=np.float64)
        if queue == "global":
            cycles = sizes * (s.global_coalesced_per_elem + s.atomic_global_cycles / s.warp_size)
            return cycles, np.zeros_like(sizes)
        if queue != "shared":
            raise ValidationError(f"unknown queue kind {queue!r}")
        if shared_capacity_elems is None or shared_capacity_elems < 1:
            raise ValidationError("shared queue needs a positive capacity")
        in_shared = np.minimum(sizes, shared_capacity_elems)
        overflow = np.maximum(sizes - shared_capacity_elems, 0.0)
        spills = np.ceil(overflow / shared_capacity_elems)
        cycles = (
            in_shared * (s.shared_per_elem + s.atomic_shared_cycles / s.warp_size)
            + overflow * (s.global_coalesced_per_elem + s.atomic_global_cycles / s.warp_size)
            + spills * (s.malloc_cycles + shared_capacity_elems * s.global_coalesced_per_elem / s.warp_size)
        )
        return cycles, spills

    def sort_cycles(self, sizes: np.ndarray) -> np.ndarray:
        """In-warp bitonic sort of each finished queue (§3.2's ascending
        insertion): ``size * log2(size)^2`` comparator passes across the
        warp."""
        s = self.spec
        sizes = np.asarray(sizes, dtype=np.float64)
        logs = np.log2(np.maximum(sizes, 2.0))
        return s.sort_pass_cycles * sizes * logs * logs

    def store_cycles(
        self,
        sizes: np.ndarray,
        encoded: bool,
        element_bits: int,
        copies: int = 1,
    ) -> np.ndarray:
        """Copy a finished queue into R and bump C (Alg. 2 lines 21-28).

        ``copies=2`` models gIM's temporary-then-final double write.
        Packed stores move fewer bytes but pay a 2-ALU field insert per
        element; the per-vertex ``atomicAdd(C[v])`` is address-scattered,
        so contention is charged at 1/4 the serialized atomic rate.
        """
        s = self.spec
        sizes = np.asarray(sizes, dtype=np.float64)
        write = (
            s.global_coalesced_per_elem * _pack_factor(encoded, element_bits)
            + (s.alu_cycles if encoded else 0.0)  # field insert
        )
        per_set = (
            sizes * copies * write / s.warp_size  # all 32 lanes cooperate
            + sizes * (s.atomic_global_cycles / 4.0) / s.warp_size
            + s.atomic_global_cycles  # the offset atomic, once per set
        )
        return per_set

    def per_set_fixed_cycles(self, num_sets: int) -> float:
        """Source draw + init per set (Alg. 2 lines 5-10)."""
        return self.spec.rng_cycles + 4.0 * self.spec.alu_cycles

    # ------------------------------------------------------------------
    # seed-selection building blocks (per greedy iteration)
    # ------------------------------------------------------------------
    def argmax_cycles(self, n: int, iterations: int) -> float:
        """Grid-wide argmax over the count array C, once per iteration."""
        s = self.spec
        # runs inside the selection kernel (atomicMax reduction), so no
        # per-iteration launch overhead
        per_iter = (
            np.ceil(n / s.launchable_threads) * s.global_coalesced_per_elem * s.warp_size
            + np.log2(max(n, 2)) * s.alu_cycles
        )
        return float(per_iter * iterations)

    def thread_scan_cycles(
        self, stats: SelectionStats, encoded: bool, element_bits: int = 32
    ) -> float:
        """eIM's selection scan (Alg. 3): one *thread* per RRR set, binary
        search for the selected vertex, then count decrements for found
        sets."""
        s = self.spec
        depth = np.ceil(np.log2(stats.avg_set_size + 2.0))
        probe = s.global_random_per_elem + (2.0 * s.alu_cycles if encoded else 0.0)
        c_t = depth * probe + 2.0 * s.alu_cycles
        iters = np.ceil(stats.sets_scanned / s.launchable_threads)
        scan = iters * (c_t + s.scan_iteration_overhead_cycles)
        update = self._update_cycles(stats, encoded, element_bits)
        return float(scan.sum() + update)

    def warp_scan_cycles(
        self, stats: SelectionStats, encoded: bool = False, element_bits: int = 32
    ) -> float:
        """gIM's selection scan: one *warp* per RRR set, coalesced linear
        sweep with a ballot."""
        s = self.spec
        chunks = np.ceil(max(stats.avg_set_size, 1.0) / s.warp_size)
        c_w = chunks * (
            s.global_coalesced_per_elem * _pack_factor(encoded, element_bits)
            + s.alu_cycles
            + s.shfl_cycles
        )
        iters = np.ceil(stats.sets_scanned / s.launchable_warps)
        scan = iters * (c_w + s.scan_iteration_overhead_cycles)
        update = self._update_cycles(stats, encoded, element_bits)
        return float(scan.sum() + update)

    def _update_cycles(
        self, stats: SelectionStats, encoded: bool, element_bits: int
    ) -> float:
        """Decrementing counts of covered sets' members (Alg. 3 lines 10-12)."""
        s = self.spec
        found = np.maximum(stats.sets_found, 1)
        per_elem = (
            s.global_coalesced_per_elem * _pack_factor(encoded, element_bits)
            + (2.0 * s.alu_cycles if encoded else 0.0)
            + s.atomic_global_cycles / 4.0
        )
        # found sets are processed concurrently by their finder threads;
        # the iteration waits on the average per-thread share
        per_iter = (stats.elements_decremented / found) * per_elem
        return float(per_iter.sum())

    def cpu_scan_cycles(self, stats: SelectionStats, set_fraction: float) -> float:
        """cuRipples' host-side share of selection: the CPU linearly scans
        its ``set_fraction`` of the RRR sets every greedy iteration."""
        if not 0.0 <= set_fraction <= 1.0:
            raise ValidationError("set_fraction must be in [0, 1]")
        s = self.spec
        per_set = max(stats.avg_set_size, 1.0) * s.cpu_cycles_per_element
        scans = stats.sets_scanned.astype(np.float64) * set_fraction
        cores = 16.0  # the paper's 16-core host
        return float((scans * per_set / cores).sum())
