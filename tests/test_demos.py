"""Every demo runs as a script, exits 0 and prints exactly its frozen report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    stdout = result.stdout.decode()
    assert stdout.strip()
    if demo.name.startswith("03_"):
        # three checks for each of the three families, every one of them true
        reports = [line for line in stdout.splitlines() if line.endswith((": True", ": False"))]
        assert len(reports) == 9 and all(line.endswith(": True") for line in reports), reports
    # the demo's whole stdout, byte for byte
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
