import pytest

from repro.gpu import RTX_A6000
from repro.gpu.multi import MultiDeviceResult, allreduce_cycles, run_multi_device_eim
from repro.imm import BoundsConfig, IMMOptions, run_imm
from repro.utils.errors import ValidationError

SPEC = RTX_A6000.scaled(1000)


@pytest.fixture(scope="module")
def workload():
    """A sampling-heavy workload (deep cascades, many sets) — the regime
    multi-GPU striping targets."""
    import repro.graphs as graphs

    g = graphs.assign_ic_weights(
        graphs.powerlaw_configuration(1200, 2900, 2.1, 2.1, rng=13)
    )
    imm = run_imm(g, 50, 0.05, rng=1,
                  options=IMMOptions(eliminate_sources=True,
                                     bounds=BoundsConfig(theta_scale=0.25)))
    return g, imm


def test_allreduce_cost_properties():
    assert allreduce_cycles(SPEC, 10_000, 1) == 0.0
    two = allreduce_cycles(SPEC, 10_000, 2)
    four = allreduce_cycles(SPEC, 10_000, 4)
    assert two > 0 and four > two  # more devices move more relative volume
    assert allreduce_cycles(SPEC, 0, 4) > 0  # latency floor
    with pytest.raises(ValidationError):
        allreduce_cycles(SPEC, 10, 0)


def test_single_device_matches_structure(workload):
    g, imm = workload
    res = run_multi_device_eim(imm, g, SPEC, 1)
    assert isinstance(res, MultiDeviceResult)
    assert res.collective_cycles == 0.0
    assert res.total_cycles > 0 and not res.oom


def test_sampling_scales_down_with_devices(workload):
    g, imm = workload
    one = run_multi_device_eim(imm, g, SPEC, 1)
    four = run_multi_device_eim(imm, g, SPEC, 4)
    assert four.sampling_cycles < one.sampling_cycles
    assert four.selection_cycles < one.selection_cycles
    assert four.collective_cycles > 0


def test_speedup_saturates(workload):
    """Amdahl shape: 2 devices help on a sampling-heavy workload; at very
    high device counts the all-reduce term stops the scaling."""
    g, imm = workload
    totals = [run_multi_device_eim(imm, g, SPEC, d).total_cycles
              for d in (1, 2, 64)]
    assert totals[1] < totals[0]
    speedup_64 = totals[0] / totals[2]
    assert speedup_64 < 64 * 0.9  # nowhere near linear at 64


def test_per_device_memory_shrinks(workload):
    g, imm = workload
    one = run_multi_device_eim(imm, g, SPEC, 1)
    eight = run_multi_device_eim(imm, g, SPEC, 8)
    assert eight.per_device_peak_bytes < one.per_device_peak_bytes


def test_validation(workload):
    g, imm = workload
    with pytest.raises(ValidationError):
        run_multi_device_eim(imm, g, SPEC, 0)
