import numpy as np
import pytest

from repro.experiments import ExperimentConfig
from repro.utils.errors import ValidationError


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.scale == "tiny"
    assert len(cfg.datasets) == 16
    assert cfg.default_k == 50 and cfg.default_epsilon == 0.05


def test_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(scale="mega")
    with pytest.raises(ValidationError):
        ExperimentConfig(datasets=("XX",))
    with pytest.raises(ValidationError):
        ExperimentConfig(repeats=0)


def test_device_scaling():
    cfg = ExperimentConfig()
    dev = cfg.device()
    assert dev.global_mem_bytes == 48 * 2**30 // 1000
    pressured = cfg.device(pressure=True)
    assert pressured.global_mem_bytes < dev.global_mem_bytes
    assert pressured.num_sms == dev.num_sms  # compute geometry unchanged


def test_bounds_modes():
    cfg = ExperimentConfig(theta_scale=0.8, sweep_theta_scale=0.2)
    assert cfg.bounds().theta_scale == 0.8
    assert cfg.bounds(sweep=True).theta_scale == 0.2


def test_graph_cached_and_weighted():
    cfg = ExperimentConfig(datasets=("WV",))
    a = cfg.graph("WV", "IC")
    b = cfg.graph("WV", "IC")
    assert a is b  # cached
    lt = cfg.graph("WV", "LT")
    assert lt is not a
    assert np.array_equal(lt.indices, a.indices)  # same topology
    assert a.has_weights() and lt.has_weights()


def test_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    monkeypatch.setenv("REPRO_REPEATS", "2")
    monkeypatch.setenv("REPRO_DATASETS", "wv, ee")
    monkeypatch.setenv("REPRO_THETA_SCALE", "0.5")
    cfg = ExperimentConfig.from_env()
    assert cfg.repeats == 2
    assert cfg.datasets == ("WV", "EE")
    assert cfg.theta_scale == 0.5 and cfg.sweep_theta_scale == 0.5


def test_from_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_REPEATS", "5")
    cfg = ExperimentConfig.from_env(repeats=1)
    assert cfg.repeats == 1
