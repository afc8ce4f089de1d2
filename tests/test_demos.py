"""Each demo script runs to completion against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlskit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    env = {**os.environ, "PYTHONPATH": str(Path(nlskit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
