"""The process memory governor: ledger, budget precedence, pressure."""

import pytest

from repro.memory.budget import (
    ENV_MEMORY_BUDGET_MB,
    MemoryBudget,
    budget_scope,
    env_budget_bytes,
    governor,
)
from repro.utils.errors import ValidationError

MB = 1024 * 1024


@pytest.fixture()
def gov():
    return MemoryBudget()


def test_ledger_accounts_and_credits(gov):
    gov.account("a", "resident", 100)
    gov.account("b", "compressed", 50)
    gov.account("b", "spilled", 25)
    assert gov.charged_bytes == 150  # resident + compressed, not spilled
    assert gov.tier_bytes("spilled") == 25
    gov.account("a", "resident", -100)
    assert gov.charged_bytes == 50
    # credits floor at zero — a double-release cannot go negative
    gov.account("b", "compressed", -500)
    assert gov.charged_bytes == 0


def test_peak_tracks_high_water_mark(gov):
    gov.account("a", "resident", 300)
    gov.account("a", "resident", -200)
    gov.account("a", "resident", 50)
    assert gov.charged_bytes == 150
    assert gov.peak_charged_bytes == 300


def test_unknown_tier_rejected(gov):
    with pytest.raises(ValidationError):
        gov.account("a", "warm", 1)


def test_budget_precedence(gov, monkeypatch):
    # unbounded by default
    monkeypatch.delenv(ENV_MEMORY_BUDGET_MB, raising=False)
    assert gov.budget_bytes is None
    # the retired kernel-only variable is not read
    monkeypatch.setenv("REPRO_KERNEL_BUDGET_MB", "2")
    assert gov.budget_bytes is None
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "8")
    assert gov.budget_bytes == 8 * MB
    # an explicit set wins over both; None pins explicitly-unbounded
    gov.set_budget(MB)
    assert gov.budget_bytes == MB
    gov.set_budget(None)
    assert gov.budget_bytes is None
    # clearing hands resolution back to the environment
    gov.clear_budget()
    assert gov.budget_bytes == 8 * MB


def test_env_budget_rejects_garbage(monkeypatch):
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "lots")
    with pytest.raises(ValidationError):
        env_budget_bytes()
    monkeypatch.setenv(ENV_MEMORY_BUDGET_MB, "-3")
    with pytest.raises(ValidationError):
        env_budget_bytes()


def test_would_fit_and_overcommitted(gov):
    assert gov.would_fit(10**12)  # unbounded
    gov.set_budget(MB)
    gov.account("a", "resident", MB // 2)
    assert gov.would_fit(MB // 2)
    assert not gov.would_fit(MB)
    assert not gov.overcommitted()
    gov.account("a", "resident", MB)
    assert gov.overcommitted()
    assert gov.headroom() < 0


def test_request_walks_handlers_in_priority_order(gov):
    calls = []

    def shed_a(deficit):
        calls.append(("a", deficit))
        gov.account("x", "resident", -MB)
        return MB

    def shed_b(deficit):
        calls.append(("b", deficit))
        return 0

    gov.add_pressure_handler(shed_b, priority=20)
    gov.add_pressure_handler(shed_a, priority=10)
    gov.set_budget(MB)
    gov.account("x", "resident", 2 * MB)
    assert gov.request(0) is True
    # priority 10 ran first and freed enough: priority 20 never ran
    assert [name for name, _ in calls] == ["a"]
    assert calls[0][1] == MB  # the deficit it was asked to clear


def test_request_overcommits_gracefully(gov):
    gov.set_budget(MB)
    gov.account("x", "resident", 4 * MB)
    assert gov.request(0) is False  # nothing registered to shed
    assert gov.snapshot()["overcommits"] == 1


def test_request_survives_raising_handler(gov):
    def bad(deficit):
        raise RuntimeError("boom")

    def good(deficit):
        gov.account("x", "resident", -2 * MB)
        return 2 * MB

    gov.add_pressure_handler(bad, priority=0)
    gov.add_pressure_handler(good, priority=1)
    gov.set_budget(MB)
    gov.account("x", "resident", 2 * MB)
    assert gov.request(0) is True


def test_remove_pressure_handler(gov):
    calls = []
    handle = gov.add_pressure_handler(lambda d: calls.append(d) or 0)
    gov.remove_pressure_handler(handle)
    gov.set_budget(MB)
    gov.account("x", "resident", 2 * MB)
    gov.request(0)
    assert calls == []


def test_budget_scope_restores_prior_state(monkeypatch):
    monkeypatch.delenv(ENV_MEMORY_BUDGET_MB, raising=False)
    gov = governor()
    before = gov.budget_bytes
    with budget_scope(3 * MB) as scoped:
        assert scoped is gov
        assert gov.budget_bytes == 3 * MB
        with budget_scope(MB):
            assert gov.budget_bytes == MB
        assert gov.budget_bytes == 3 * MB
    assert gov.budget_bytes == before


def test_snapshot_shape(gov):
    gov.account("rrr.chunks", "resident", 10)
    snap = gov.snapshot()
    assert snap["resident_bytes"] == 10
    assert snap["accounts"]["rrr.chunks"]["resident"] == 10
    for key in ("budget_bytes", "compressed_bytes", "spilled_bytes",
                "peak_charged_bytes", "demotions", "promotions",
                "overcommits"):
        assert key in snap


def test_exhausted_tier_forensics(gov):
    assert gov.exhausted_tier() == "host"  # no budget: the host was the wall
    gov.set_budget(MB)
    assert gov.exhausted_tier() == "resident"
    gov.account("a", "resident", 10)
    assert gov.exhausted_tier() == "resident"
    gov.account("a", "compressed", 10)
    assert gov.exhausted_tier() == "compressed"
    gov.account("a", "spilled", 10)
    assert gov.exhausted_tier() == "spilled"
