"""docs/configuration.md must cover the entire configuration surface.

The reference page is generated-by-hand but *checked* by machine: this
test enumerates every ``IMMOptions`` / ``ServiceOptions`` field, every
``REPRO_*`` environment variable the source tree reads, and every CLI
flag ``repro.cli`` defines, and fails if any is missing from the docs —
so adding a knob without documenting it breaks CI.  It also checks the
reverse direction: every variable and flag the page names must still
exist in the source, so removing a knob without its row breaks CI too.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.imm.options import IMMOptions
from repro.service.options import ServiceOptions

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "configuration.md"
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def doc_text():
    assert DOC.exists(), "docs/configuration.md is missing"
    return DOC.read_text()


_ENV_VAR = r"REPRO_[A-Z_]+[A-Z]"
_FLAG = r"--[a-z][a-z-]*"


def _source_env_vars():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(_ENV_VAR, path.read_text()))
    return names


def _source_flags():
    flags = set()
    for path in SRC.rglob("*.py"):
        flags.update(re.findall(f'"({_FLAG})"', path.read_text()))
    return flags


def _cli_flags():
    text = (SRC / "cli.py").read_text()
    return set(re.findall(r'"(--[a-z][a-z-]*)"', text))


def test_every_imm_option_documented(doc_text):
    missing = [
        f.name for f in dataclasses.fields(IMMOptions)
        if f"`{f.name}`" not in doc_text
    ]
    assert not missing, f"IMMOptions fields missing from {DOC}: {missing}"


def test_every_service_option_documented(doc_text):
    missing = [
        f.name for f in dataclasses.fields(ServiceOptions)
        if f"`{f.name}`" not in doc_text
    ]
    assert not missing, f"ServiceOptions fields missing from {DOC}: {missing}"


def test_every_env_var_documented(doc_text):
    env_vars = _source_env_vars()
    assert env_vars, "no REPRO_* variables found in src — test is broken"
    missing = sorted(v for v in env_vars if f"`{v}`" not in doc_text)
    assert not missing, f"env vars missing from {DOC}: {missing}"


def test_every_cli_flag_documented(doc_text):
    flags = _cli_flags()
    assert flags, "no CLI flags found in repro.cli — test is broken"
    missing = sorted(f for f in flags if f"`{f}`" not in doc_text)
    assert not missing, f"CLI flags missing from {DOC}: {missing}"


def test_every_documented_env_var_exists(doc_text):
    documented = set(re.findall(f"`({_ENV_VAR})`", doc_text))
    assert documented, "no REPRO_* variables found in the docs — test is broken"
    stale = sorted(documented - _source_env_vars())
    assert not stale, f"{DOC} documents env vars src no longer reads: {stale}"


def test_every_documented_flag_exists(doc_text):
    documented = set(re.findall(f"`({_FLAG})`", doc_text))
    assert documented, "no CLI flags found in the docs — test is broken"
    stale = sorted(documented - _source_flags())
    assert not stale, f"{DOC} documents CLI flags src no longer defines: {stale}"
