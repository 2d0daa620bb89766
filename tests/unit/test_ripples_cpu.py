import numpy as np
import pytest

from repro.engines import EIMEngine, GIMEngine, RipplesCPUEngine
from repro.gpu import RTX_A6000
from repro.imm import BoundsConfig, IMMOptions, run_imm

SPEC = RTX_A6000.scaled(1000)
BOUNDS = BoundsConfig(theta_scale=0.5)
OPTS = IMMOptions(bounds=BOUNDS)


@pytest.fixture(scope="module")
def workload():
    import repro.graphs as graphs

    g = graphs.assign_ic_weights(graphs.powerlaw_configuration(500, 3000, rng=41))
    vanilla = run_imm(g, 20, 0.15, rng=5, options=OPTS)
    return g, vanilla


def test_produces_same_seeds_as_gim(workload):
    g, vanilla = workload
    cpu = RipplesCPUEngine().run(g, 20, 0.15, device_spec=SPEC, imm_result=vanilla,
                                 options=OPTS)
    gim = GIMEngine().run(g, 20, 0.15, device_spec=SPEC, imm_result=vanilla,
                          options=OPTS)
    assert not cpu.oom
    assert np.array_equal(cpu.seeds, gim.seeds)


def test_cpu_slower_than_gpu_engines(workload):
    """The whole point of the GPU lineage: the CPU baseline loses."""
    g, vanilla = workload
    cpu = RipplesCPUEngine().run(g, 20, 0.15, device_spec=SPEC, imm_result=vanilla,
                                 options=OPTS)
    gim = GIMEngine().run(g, 20, 0.15, device_spec=SPEC, imm_result=vanilla,
                          options=OPTS)
    eim = EIMEngine().run(g, 20, 0.15, rng=5, device_spec=SPEC,
                          options=OPTS)
    assert cpu.total_cycles > gim.total_cycles
    assert cpu.total_cycles > eim.total_cycles


def test_host_memory_survives_gpu_oom_workload(workload):
    """Host RAM (96 GB scaled) absorbs stores that kill the GPU engines."""
    g, vanilla = workload
    # capacity below the raw RRR store: kills gIM, but the host's 2x
    # capacity (96 GB vs 48 GB, proportionally scaled) still fits it
    tiny_gpu = RTX_A6000.scaled(200_000)
    gim = GIMEngine().run(g, 20, 0.15, device_spec=tiny_gpu, imm_result=vanilla,
                          options=OPTS)
    cpu = RipplesCPUEngine().run(g, 20, 0.15, device_spec=tiny_gpu, imm_result=vanilla,
                                 options=OPTS)
    assert gim.oom
    assert not cpu.oom


def test_more_cores_help(workload):
    g, vanilla = workload
    slow = RipplesCPUEngine(cores=2).run(g, 20, 0.15, device_spec=SPEC,
                                         imm_result=vanilla,
                                         options=OPTS)
    fast = RipplesCPUEngine(cores=32).run(g, 20, 0.15, device_spec=SPEC,
                                          imm_result=vanilla,
                                          options=OPTS)
    assert fast.total_cycles < slow.total_cycles


def test_no_transfer_costs(workload):
    g, vanilla = workload
    cpu = RipplesCPUEngine().run(g, 20, 0.15, device_spec=SPEC, imm_result=vanilla,
                                 options=OPTS)
    assert "offload_to_host" not in cpu.breakdown
    assert "graph_upload" not in cpu.breakdown
