"""Run eIM against gIM and cuRipples on one network (a mini Figure 7).

Shows the simulated-device comparison: per-kernel cycle breakdowns,
RRR-store footprints, and the speedups the paper reports — plus the OOM
behaviour when the same workload meets a tighter memory budget.

Usage::

    python examples/engine_comparison.py
"""

from repro import (
    BoundsConfig,
    CuRipplesEngine,
    EIMEngine,
    GIMEngine,
    IMMOptions,
    assign_ic_weights,
    load_dataset,
)
from repro.gpu import RTX_A6000


def show(result) -> None:
    print(f"\n== {result.engine} ==")
    if result.oom:
        print(f"   OUT OF MEMORY: {result.oom_detail}")
        return
    print(f"   simulated time: {result.seconds * 1e3:.3f} ms "
          f"({result.total_cycles:.3e} cycles)")
    print(f"   theta = {result.theta} RRR sets, coverage {result.coverage:.2f}")
    print(f"   RRR store: {result.rrr_store_bytes:,} B, "
          f"device peak: {result.peak_device_bytes:,} B")
    for label, cycles in sorted(result.breakdown.items(), key=lambda t: -t[1]):
        print(f"     {label:<22s} {cycles:>12.3e} cycles")


def main() -> None:
    graph = assign_ic_weights(load_dataset("EE", scale="tiny", rng=2))
    print(f"email-EuAll stand-in: {graph.n} vertices, {graph.m} edges")
    device = RTX_A6000.scaled(1000)  # a proportionally scaled-down A6000
    bounds = BoundsConfig(theta_scale=0.5)
    kwargs = dict(k=50, epsilon=0.1, rng=0, device_spec=device,
                  options=IMMOptions(model="IC", bounds=bounds))

    eim = EIMEngine().run(graph, **kwargs)
    gim = GIMEngine().run(graph, **kwargs)
    cur = CuRipplesEngine().run(graph, **kwargs)
    for result in (eim, gim, cur):
        show(result)

    print(f"\nspeedup of eIM: {eim.speedup_over(gim):.2f}x over gIM, "
          f"{eim.speedup_over(cur):.2f}x over cuRipples")

    # same workload on a budget sitting between the two engines' peak
    # footprints: gIM's raw store plus per-block temporaries stop fitting
    # while eIM's packed store still does — the paper's OOM mechanism
    budget = (eim.peak_device_bytes + gim.peak_device_bytes) // 2
    tight = device.scaled(device.global_mem_bytes / budget)
    print(f"\n-- retry on a device with {tight.global_mem_bytes:,} B --")
    gim_tight = GIMEngine().run(graph, **{**kwargs, "device_spec": tight})
    eim_tight = EIMEngine().run(graph, **{**kwargs, "device_spec": tight})
    print(f"gIM: {'OOM' if gim_tight.oom else 'ok'}   "
          f"eIM: {'OOM' if eim_tight.oom else 'ok'} "
          f"(packed store = {eim_tight.rrr_store_bytes:,} B, "
          f"gIM needed > {gim.peak_device_bytes:,} B)")


if __name__ == "__main__":
    main()
