"""Every example script runs to completion.

The examples are documentation that executes: each one drives the
public API end to end, so an API change that breaks an example fails
here.  Each runs as its own process from an empty working directory,
the way a reader runs it (``python examples/<name>.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.strip(), f"{script.name} printed nothing"
