"""Run every example script that starts no server, as a user would.

Examples call the public API end to end, so retiring or renaming a
public name can break one without any unit test noticing.  Each script
runs in a subprocess from the repository root with ``PYTHONPATH=src``
and must exit 0 within the timeout.  The examples that bind sockets are
excluded by name, so a new example is covered unless it is listed here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Examples that start servers and bind sockets; they are not run here.
SERVER_EXAMPLES = {"serving_demo.py", "cluster_demo.py"}

#: Per-example wall-clock limit (each finishes in about a second).
TIMEOUT_S = 120

EXAMPLES = sorted(
    path.name for path in (REPO_ROOT / "examples").glob("*.py")
    if path.name not in SERVER_EXAMPLES
)


def test_examples_are_found():
    assert {"quickstart.py", "figure7_walkthrough.py"} <= set(EXAMPLES)
    assert SERVER_EXAMPLES <= {p.name for p in (REPO_ROOT / "examples").glob("*.py")}


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}\n--- stdout ---\n{result.stdout[-2000:]}"
        f"\n--- stderr ---\n{result.stderr[-2000:]}"
    )
