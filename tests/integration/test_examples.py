"""The example scripts run clean: exit 0 with DeprecationWarning as an error.

Each example runs in its own interpreter, the way a reader would run
it.  ``full_reproduction.py`` (the whole four-dataset pipeline, ~16 s)
runs as its own CI step instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted(
    p.name for p in (ROOT / "examples").glob("*.py")
    if p.name != "full_reproduction.py"
)


def test_examples_found():
    # an empty glob would parametrize nothing and pass silently
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_without_deprecations(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(ROOT / "examples" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
