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


def test_readme_module_table_names_exist():
    """Every backticked bare identifier in a row of the README module table is
    an attribute of that row's nlskit module(s)."""
    import importlib
    import re

    readme = (ROOT / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `nlskit")]
    assert len(rows) >= 8
    for row in rows:
        # "\|" is a literal bar inside a cell (the morawetz row's \|x\|)
        modules_cell, contents = re.split(r"(?<!\\)\|", row)[1:3]
        modules = [importlib.import_module(m)
                   for m in re.findall(r"`(nlskit(?:\.\w+)?)`", modules_cell)]
        assert modules, row
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            assert any(hasattr(m, name) for m in modules), (modules_cell.strip(), name)


def test_readme_cli_commands_parse(tmp_path):
    """Every nlskit command of the README's command-line block parses and
    passes configuration validation (no run starts)."""
    from nlskit.cli import build_parser
    from nlskit.config import parse_config

    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("nlskit ")]
    assert len(commands) == 5
    for argv in commands:
        ns = build_parser().parse_args([*argv, "--out-dir", str(tmp_path)])
        overrides = {k: v for k, v in vars(ns).items()
                     if k not in ("config", "experiment") and v is not None}
        assert parse_config(ns.config, {**overrides, "experiment": ns.experiment})
