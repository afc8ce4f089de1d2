"""Each demo script, and the README's library tour, runs to completion
against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlskit

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    _run(tmp_path, [str(script)])


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "ScalarField(" in tour and "interaction_report" in tour
    _run(tmp_path, ["-c", tour])


def _run(cwd, args):
    env = {**os.environ, "PYTHONPATH": str(Path(nlskit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
