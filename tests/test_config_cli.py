import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import nlskit.cli
import nlskit.config
import nlskit.grid
import nlskit.verify
from nlskit import (ConfigError, CouplingSpec, GridSpec, MorawetzWeight, RadialKernel,
                    RunConfig, build_initial_state, interaction_report, parse_config,
                    read_fields, virial_V, write_fields)
from nlskit.cli import build_parser, main
from nlskit.config import CHOICES, ENV_OUT_DIR, SCHEMA
from nlskit.evolve import StepParams, evolve
from nlskit.grid import forward_transform
from nlskit.verify import calibrate_fd_constants, check_identities, collect_series

from conftest import gaussian, on_another_thread


def test_defaults_applied():
    cfg = parse_config(None, {"experiment": "simulate"})
    assert cfg.d == 1 and cfg.grid_m == 256 and cfg.dt == 1e-3
    assert cfg.weight == "quadratic"


def test_config_file_and_flag_precedence(tmp_path):
    doc = {"experiment": "simulate", "d": 1, "grid_m": 128, "dt": 0.002,
           "amplitude": 0.4}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = parse_config(path, {"dt": 0.005})
    assert cfg.dt == 0.005          # flag wins
    assert cfg.grid_m == 128        # file value kept
    assert cfg.amplitude == 0.4


def test_config_aggregates_all_problems(tmp_path):
    doc = {"experiment": "simulate", "dt": -0.1, "grid_m": 7, "d": 5,
           "mystery_key": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    text = str(err.value)
    assert "dt must be > 0" in text
    assert "grid_m" in text
    assert "d must be" in text
    assert "mystery_key" in text


def test_config_type_mismatch_reported():
    with pytest.raises(ConfigError, match="expected"):
        parse_config(None, {"experiment": "simulate", "grid_m": "many"})


def test_config_beta_cross_checks():
    with pytest.raises(ConfigError, match="symmetric"):
        parse_config(None, {"experiment": "simulate", "n_components": 2,
                            "beta": [1.0, 0.2, 0.3, 1.0]})
    with pytest.raises(ConfigError, match="p >= 1"):
        parse_config(None, {"experiment": "simulate", "n_components": 2,
                            "beta": [1.0, 0.5, 0.5, 1.0], "p": 0.5})
    cfg = parse_config(None, {"experiment": "simulate", "n_components": 2,
                              "beta": [1.0, 2.0]})
    assert np.array_equal(cfg.beta_matrix(), np.diag([1.0, 2.0]))


def test_config_unit_cube_required_for_gn():
    with pytest.raises(ConfigError, match="unit cube"):
        parse_config(None, {"experiment": "gn-check", "d": 1,
                            "grid_m": 10, "box_l": 3.5})


def test_every_config_key_has_one_flag_through_the_override_path(tmp_path, monkeypatch):
    subcommands = next(a for a in nlskit.cli.build_parser()._actions
                       if a.dest == "experiment").choices
    assert tuple(subcommands) == CHOICES["experiment"]
    flagged = [k for k, (types, _) in SCHEMA.items()
               if k != "experiment" and types != (list,)]
    assert len(flagged) == 33  # 38 keys less experiment and the four bump_* lists
    for sp in subcommands.values():
        assert sorted(a.dest for a in sp._actions) == sorted(["help", "config", *flagged])
        for key in flagged:
            (action,) = [a for a in sp._actions if a.dest == key]
            assert action.choices == CHOICES.get(key), key

    seen = []

    def record(cfg, out):
        seen.append(cfg)
        return {}, ""
    monkeypatch.setitem(nlskit.cli._RUNNERS, "simulate", record)
    for key in flagged:
        types, default = SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if types == (bool,):
            argv, value = [flag], True
        elif key in CHOICES:
            value = next(v for v in CHOICES[key] if v != default)
            argv = [flag, value]
        elif types == (str,):
            value = str(tmp_path / key)
            argv = [flag, value]
        elif key == "dt":  # small enough for simulate's 2 snapshots at the default t_final
            value = 2.0 * default
            argv = [flag, repr(value)]
        else:
            value = default + 2 if types == (int,) else 2.0 * default + 0.5
            argv = [flag, repr(value)]
        out = [] if key == "out_dir" else ["--out-dir", str(tmp_path)]
        assert main(["simulate", *argv, *out]) == 0, key
        assert getattr(seen[-1], key) == value, key
    assert main(["simulate", "--no-dealias", "--out-dir", str(tmp_path)]) == 0
    assert seen[-1].dealias is False


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "envout"))
    cfg = parse_config(None, {"experiment": "simulate"})
    assert cfg.out_dir == str(tmp_path / "envout")


# ---------------------------------------------------------------------------
# Field files
# ---------------------------------------------------------------------------

def test_field_file_round_trip(tmp_path, grid1d):
    rng = np.random.default_rng(1)
    f1 = gaussian(grid1d, amp=0.5, velocity=[0.3])
    f2 = gaussian(grid1d, amp=0.2, center=[2.0])
    path = tmp_path / "state.nlsf"
    write_fields(path, grid1d, [f1, f2])
    grid_back, fields = read_fields(path)
    assert grid_back == grid1d
    assert np.array_equal(fields[0].values, f1.values)
    assert np.array_equal(fields[1].values, f2.values)
    # byte-identical on rewrite
    path2 = tmp_path / "again.nlsf"
    write_fields(path2, grid_back, fields)
    assert path.read_bytes() == path2.read_bytes()


def test_field_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.nlsf"
    path.write_bytes(b"not a field file")
    from nlskit import FieldFileError
    with pytest.raises(FieldFileError):
        read_fields(path)


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

SIM_ARGS = ["simulate", "--d", "1", "--grid-m", "128", "--box-l", "16",
            "--p", "1", "--beta", "1", "--dt", "0.002", "--t-final", "0.2",
            "--snapshot-stride", "10", "--amplitude", "0.5"]


def test_cli_simulate_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(SIM_ARGS + ["--out-dir", str(out1)]) == 0
    assert main(SIM_ARGS + ["--out-dir", str(out2)]) == 0
    csv1 = (out1 / "diagnostics.csv").read_bytes()
    csv2 = (out2 / "diagnostics.csv").read_bytes()
    assert csv1 == csv2  # byte-identical reruns
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    for s in (s1, s2):  # wall time and output paths are run-specific
        s.pop("wall_time_s")
        s["config"].pop("out_dir")
    assert s1 == s2
    rows = csv1.decode().strip().split("\n")
    assert len(rows) - 1 == StepParams(dt=0.002, t_final=0.2, snapshot_stride=10).n_snapshots
    assert all(c["pass"] for c in s1["checks"].values())


_D3_RUN = ["--d", "3", "--n-components", "2", "--beta", "1,0.5,0.5,1",
           "--grid-m", "16", "--box-l", "6", "--p", "1", "--dt", "0.01",
           "--t-final", "0.04", "--snapshot-stride", "2", "--amplitude", "0.5,0.4"]


# subcommand -> (arguments, artifacts compared across reruns)
_RERUNS = {
    "simulate": (_D3_RUN, ["diagnostics.csv"]),
    # 6 steps at stride 2: the 4 snapshots of the shortest calibration window
    "verify-identities": (_D3_RUN + ["--t-final", "0.06"], ["diagnostics.csv"]),
    "scatter": (_D3_RUN + ["--scatter-window", "3"], ["diagnostics.csv", "profile.nlsf"]),
    "gn-check": (["--d", "3", "--grid-m", "16", "--box-l", "4", "--gn-count", "3",
                  "--seed", "5"], ["gn_report.json"]),
}


@pytest.mark.parametrize("experiment", list(_RERUNS))
def test_cli_d3_reruns_byte_identical(tmp_path, experiment):
    # the d = 3 interaction and accumulator columns use per-axis padded
    # transforms, and every column reads one shared Snapshot per state
    args, artifacts = _RERUNS[experiment]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code = main([experiment, *args, "--out-dir", str(out1)])
    assert main([experiment, *args, "--out-dir", str(out2)]) == code
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    if experiment == "simulate":
        assert code == 0
        header = (out1 / "diagnostics.csv").read_text().splitlines()[0].split(",")
        assert header == ["t", "mass_1", "mass_2", "kinetic", "potential", "energy_total",
                          "l4_total", "V", "Vdot", "I", "Idot", "N_term",
                          "rhs_lower", "acc_l4", "acc_recip_self", "strichartz",
                          "boundary_mass_fraction"]
    if experiment == "verify-identities":
        header = (out1 / "diagnostics.csv").read_text().splitlines()[0].split(",")
        assert header == ["t", "mass_1", "mass_2", "kinetic", "potential", "energy_total",
                          "V", "Vdot", "Vddot", "I", "Idot", "N_term", "rhs_lower",
                          "boundary_mass_fraction"]


_D3_POOLED = ["simulate", "--d", "3", "--n-components", "2", "--beta", "1,0.5,0.5,1",
              "--grid-m", "48", "--box-l", "12", "--p", "1", "--dt", "0.005",
              "--t-final", "0.02", "--snapshot-stride", "2", "--amplitude", "0.5,0.4",
              "--width", "1.5"]


def test_cli_d3_outputs_do_not_depend_on_the_thread(tmp_path, two_cpu_pool):
    # a d = 3, M = 48, N = 2 run splits its stack transforms, phase rotations
    # and padded passes over the pool on the main thread, and runs all of it
    # inline on another thread: the same files, byte for byte
    inline, split = tmp_path / "inline", tmp_path / "split"
    assert on_another_thread(lambda: main([*_D3_POOLED, "--out-dir", str(inline)])) == 0
    assert nlskit.grid._pool is None
    assert main([*_D3_POOLED, "--out-dir", str(split)]) == 0
    assert nlskit.grid._pool is not None
    assert sorted(p.name for p in inline.iterdir()) == sorted(p.name for p in split.iterdir())
    assert (inline / "diagnostics.csv").read_bytes() == (split / "diagnostics.csv").read_bytes()
    s1, s2 = (json.loads((out / "summary.json").read_text()) for out in (inline, split))
    for s in (s1, s2):  # wall time and output paths are run-specific
        s.pop("wall_time_s")
        s["config"].pop("out_dir")
    assert json.dumps(s1) == json.dumps(s2)


_POOLED_PROCESS = """
import os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
import nlskit.grid
from nlskit.cli import main
code = main(sys.argv[1:])
print(nlskit.grid._pool is not None, sorted(t.name.split("_")[0] for t in threading.enumerate()))
sys.exit(code)
"""


def test_cli_d3_process_with_the_pool_exits_and_leaves_nothing_behind(tmp_path):
    # the pool's threads are idle when the run ends and end with the process;
    # its stdout reaches EOF, so no thread or child process holds it open
    proc = subprocess.run([sys.executable, "-c", _POOLED_PROCESS, *_D3_POOLED,
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    made, threads = proc.stdout.split(" ", 1)
    assert made == "True" and "nlskit" in threads


def test_cli_flag_override_echoed_in_summary(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"dt": 0.002, "grid_m": 128, "t_final": 0.1,
                                   "amplitude": 0.3}))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfgfile), "--dt", "0.004",
                 "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["dt"] == 0.004


def test_cli_bad_config_exit_one(tmp_path, capsys):
    code = main(["simulate", "--dt", "-0.1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "dt must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["simulate", "verify-identities", "scatter"])
def test_cli_nan_abort_exit_two(tmp_path, capsys, experiment):
    # the overflowing initial state is the named abort, not a warning first;
    # stride 5 gives the 4 snapshots verify-identities needs to pass validation
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([experiment, "--d", "1", "--grid-m", "64", "--box-l", "8",
                     "--p", "2", "--amplitude", "1e200", "--dt", "0.01",
                     "--t-final", "0.15", "--snapshot-stride", "5",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    assert "NaN" in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"].startswith("non-finite values at t = ")


def test_config_rejects_unknown_family():
    with pytest.raises(ConfigError, match="family must be one of"):
        parse_config(None, {"experiment": "simulate", "family": "foo"})


def test_cli_reports_config_errors_without_traceback(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"family": "foo"}))
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    assert "nlskit: invalid configuration" in capsys.readouterr().err
    # accepted by the config schema, rejected while building the initial state
    assert main(["simulate", "--d", "1", "--center", "1,2",
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "nlskit: invalid configuration" in err and "center" in err


def test_cli_verify_identities_passes(tmp_path):
    code = main(["verify-identities", "--d", "1", "--grid-m", "256",
                 "--box-l", "16", "--p", "1", "--beta", "1",
                 "--amplitude", "0.6", "--width", "1.5",
                 "--dt", "0.002", "--t-final", "0.4", "--snapshot-stride", "10",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = summary["checks"]
    assert checks["virial_first_identity"]["pass"]
    assert checks["interaction_inequality"]["pass"]


_VERIFY_D1 = ["--d", "1", "--grid-m", "128", "--box-l", "16", "--p", "1",
              "--amplitude", "0.6", "--dt", "0.01", "--t-final", "0.2",
              "--snapshot-stride", "5"]


def _recording_evolve(monkeypatch):
    """Route the evolve calls of the CLI and the verify layer through a
    recorder; returns the list of StepParams they were given."""
    calls = []

    def recorder(state, params, sink=None):
        calls.append(params)
        return evolve(state, params, sink)

    monkeypatch.setattr(nlskit.cli, "evolve", recorder)
    monkeypatch.setattr(nlskit.verify, "evolve", recorder)
    return calls


@pytest.mark.parametrize("window", [0.15, 0.2, 0.3])
def test_cli_verify_identities_runs_two_trajectories(tmp_path, monkeypatch, window):
    """One dt run over max(window, t_final) and one dt/2 run over the window
    give the outputs of the three separate runs (dt and dt/2 over the
    window, dt over t_final) bit for bit."""
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"fd_calibration_t": window}))
    calls = _recording_evolve(monkeypatch)
    out = tmp_path / "vi"
    assert main(["verify-identities", "--config", str(cfgfile), *_VERIFY_D1,
                 "--out-dir", str(out)]) in (0, 1)
    assert len(calls) == 2
    assert max(c.t_final for c in calls) == max(window, 0.2)
    monkeypatch.undo()

    cfg = parse_config(cfgfile, {"experiment": "verify-identities", "d": 1,
                                 "grid_m": 128, "box_l": 16.0, "p": 1.0,
                                 "amplitude": 0.6, "dt": 0.01, "t_final": 0.2,
                                 "snapshot_stride": 5})
    _, _, state0 = nlskit.cli._setup(cfg)
    smooth, inter = MorawetzWeight.quadratic(), MorawetzWeight.abs_distance()
    win = StepParams(dt=0.01, t_final=window, snapshot_stride=5)
    coarse = collect_series(state0, win, smooth, inter)
    constants = calibrate_fd_constants(coarse, state0, win, smooth, inter)  # runs dt/2
    series = collect_series(state0, StepParams(dt=0.01, t_final=0.2, snapshot_stride=5),
                            smooth, inter)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["fd_constants"] == constants
    assert summary["checks"] == check_identities(series, 5, constants)

    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = {col: series.series(col) for col in ("t", "V", "Vdot", "Vddot")}
    expected.update({"I": [r.I for r in series.reports],
                     "Idot": [r.Idot for r in series.reports],
                     "N_term": [r.N_term for r in series.reports],
                     "rhs_lower": [r.rhs_lower for r in series.reports]})
    assert len(rows) == len(series.records) == 5
    for col, values in expected.items():
        assert [float(r[col]) for r in rows] == [float(v) for v in values], col


def test_calibration_rejects_a_series_of_other_snapshot_times():
    cfg = parse_config(None, {"experiment": "verify-identities", "d": 1, "grid_m": 64,
                              "box_l": 16.0, "p": 1.0, "amplitude": 0.6})
    _, _, state0 = nlskit.cli._setup(cfg)
    smooth = MorawetzWeight.quadratic()
    params = StepParams(dt=0.01, t_final=0.2, snapshot_stride=5)
    coarse = collect_series(state0, params, smooth, None)
    for longer in (0.25, 0.3):  # 6 and 7 snapshots, of which coarse has 5
        with pytest.raises(ValueError, match="does not sample"):
            calibrate_fd_constants(coarse, state0, replace(params, t_final=longer), smooth, None)
    other_dt = StepParams(dt=0.02, t_final=0.4, snapshot_stride=5)  # also 5 snapshots
    with pytest.raises(ValueError, match="does not sample"):
        calibrate_fd_constants(coarse, state0, other_dt, smooth, None)


@pytest.mark.parametrize("t_final", ["0.2", "0.05"])
def test_cli_verify_identities_rejects_fewer_than_three_snapshots(tmp_path, capsys, t_final):
    # 0.05 is 5 steps of 0.01 at stride 5: two snapshots, no interior one
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"fd_calibration_t": 0.05}))
    out = tmp_path / "out"
    assert main(["verify-identities", "--config", str(cfgfile), *_VERIFY_D1,
                 "--t-final", t_final, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "nlskit: invalid configuration" in err and "gives 2 at dt = 0.01" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("window,t_final", [(0.1, "0.2"), (0, "0.1")])
def test_cli_verify_identities_rejects_a_three_snapshot_calibration_window(
        tmp_path, capsys, window, t_final):
    # with fd_calibration_t = 0.1 this run used to exit 1, its virial and
    # interaction gaps above their calibrated tolerances; t_final is the
    # window when fd_calibration_t is 0
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"fd_calibration_t": window}))
    out = tmp_path / "out"
    assert main(["verify-identities", "--config", str(cfgfile), *_VERIFY_D1,
                 "--t-final", t_final, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    key = "fd_calibration_t = 0.1" if window else "t_final = 0.1"
    assert f"at least 4 snapshots in its calibration window: {key} gives 3" in err
    assert not (out / "summary.json").exists()
    cfgfile.write_text(json.dumps({"fd_calibration_t": 0.15}))  # 4 snapshots
    assert main(["verify-identities", "--config", str(cfgfile), *_VERIFY_D1,
                 "--out-dir", str(out)]) == 0


@pytest.mark.parametrize("experiment", ["verify-identities", "scatter"])
def test_cli_passes_dealias_to_every_evolve_call(tmp_path, monkeypatch, experiment):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"dealias": True, "fd_calibration_t": 0.15}))
    calls = _recording_evolve(monkeypatch)
    main([experiment, "--config", str(cfgfile), *_VERIFY_D1,
          "--out-dir", str(tmp_path / "out")])
    assert len(calls) == (2 if experiment == "verify-identities" else 1)
    assert all(c.dealias for c in calls)


def test_cli_wave_op_writes_profile_and_diverges_for_large_data(tmp_path):
    okdir = tmp_path / "ok"
    code = main(["wave-op", "--d", "1", "--grid-m", "256", "--box-l", "32",
                 "--p", "2", "--amplitude", "0.2", "--wave-t", "4",
                 "--wave-dt", "0.05", "--tol", "1e-8", "--out-dir", str(okdir)])
    assert code == 0
    grid, fields = read_fields(okdir / "initial_data.nlsf")
    assert grid.m == 256 and len(fields) == 1

    baddir = tmp_path / "bad"
    code = main(["wave-op", "--d", "1", "--grid-m", "256", "--box-l", "32",
                 "--p", "2", "--amplitude", "3.0", "--wave-t", "4",
                 "--wave-dt", "0.05", "--tol", "1e-8", "--out-dir", str(baddir)])
    assert code == 1
    summary = json.loads((baddir / "summary.json").read_text())
    assert summary["converged"] is False


def test_cli_wave_op_overflow_is_a_named_divergence(tmp_path, capsys):
    # the iterate overflows before the residuals have grown three times
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["wave-op", "--d", "1", "--grid-m", "256", "--box-l", "16",
                     "--p", "3", "--amplitude", "3", "--wave-t", "5",
                     "--wave-dt", "0.05", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "wave-operator iteration diverged (non-finite" in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is False
    assert all(math.isfinite(r) for r in summary["residuals"])


def test_cli_scatter_free_run(tmp_path):
    out = tmp_path / "scat"
    code = main(["scatter", "--d", "1", "--grid-m", "256", "--box-l", "32",
                 "--p", "2", "--beta", "0", "--amplitude", "0.5",
                 "--dt", "0.005", "--t-final", "2.0", "--snapshot-stride", "50",
                 "--tol", "1e-8", "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    grid, prof = read_fields(out / "profile.nlsf")
    # free flow scatters to its own initial datum
    x = grid.axis_coordinates
    assert np.abs(prof[0].values - 0.5 * np.exp(-x ** 2 / 2)).max() < 1e-9


_SMALL_D1 = ["--d", "1", "--grid-m", "64", "--box-l", "8"]


@pytest.mark.parametrize("flags, message", [
    (["--wave-t", "0.01", "--wave-dt", "0.05"],
     "wave-op needs at least 2 time nodes: wave_t = 0.01 gives 1 at wave_dt = 0.05"),
    (["--wave-max-iter", "0"], "wave_max_iter must be >= 1, got 0"),
], ids=["one-node", "no-iteration"])
def test_cli_wave_op_refuses_an_empty_iteration(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["wave-op", *_SMALL_D1, *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration") and message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--t-final", "0.05", "--scatter-window", "1"], "scatter_window must be >= 2, got 1"),
    (["--t-final", "0.05", "--scatter-window", "-1"], "scatter_window must be >= 2, got -1"),
    (["--t-final", "0"], "scatter needs at least 2 snapshots: t_final = 0.0 gives 1"),
], ids=["window-1", "window-negative", "one-snapshot"])
def test_cli_scatter_refuses_fewer_than_two_snapshots(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["scatter", *_SMALL_D1, "--dt", "0.01", "--snapshot-stride", "1",
                 *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration") and message in err
    assert not out.exists()


def test_config_refuses_a_simulate_of_one_snapshot():
    # its drift and boundary checks would compare t = 0 with itself
    one = {"experiment": "simulate", "grid_m": 64, "box_l": 8.0, "t_final": 0.5,
           "dt": 1e-2, "snapshot_stride": 100}
    with pytest.raises(ConfigError, match="simulate needs at least 2 snapshots: t_final = 0.5 "
                       "gives 1 at dt = 0.01, snapshot_stride = 100"):
        parse_config(None, one)
    assert parse_config(None, {**one, "snapshot_stride": 50}).snapshot_stride == 50


@pytest.mark.parametrize("experiment, flags, message", [
    ("wave-op", ["--wave-t", "0.5", "--tol", "-1"], "tol must be > 0, got -1.0"),
    ("simulate", ["--t-final", "0.01", "--mass-drift-tol", "-1"],
     "mass_drift_tol must be >= 0, got -1.0"),
    ("simulate", ["--t-final", "0.01", "--energy-drift-tol", "nan"],
     "energy_drift_tol must be >= 0, got nan"),
], ids=["tol", "mass_drift_tol", "energy_drift_tol"])
def test_cli_refuses_a_tolerance_out_of_range(tmp_path, capsys, experiment, flags, message):
    # refused before the run, not reported as a failed check after it
    out = tmp_path / "out"
    assert main([experiment, *_SMALL_D1, *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration") and message in err
    assert not out.exists()


def test_cli_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["simulate", *_SMALL_D1, "--t-final", "0.01", "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration") and "out_dir: cannot create" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("experiment, flags, message", [
    ("simulate", ["--t-final", "inf"], "t_final must be >= 0 and finite, got inf"),
    ("simulate", ["--dt", "1e-320"], "t_final must be finite in steps of dt = 1e-320, got 1.0"),
    ("wave-op", ["--wave-t", "inf"], "wave_t must be > 0 and finite, got inf"),
    ("wave-op", ["--wave-dt", "1e-320"],
     "wave_t must be finite in steps of wave_dt = 1e-320, got 20.0"),
    ("verify-identities", ["--fd-calibration-t", "inf"],
     "fd_calibration_t must be >= 0 and finite, got inf"),
], ids=["t_final", "dt", "wave_t", "wave_dt", "fd_calibration_t"])
def test_cli_refuses_a_non_finite_time_horizon(tmp_path, capsys, experiment, flags, message):
    # each used to end in an OverflowError traceback (int of an infinite float)
    out = tmp_path / "out"
    assert main([experiment, *_SMALL_D1, *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration")
    assert [line for line in err.splitlines() if line.startswith("  - ")] == [f"  - {message}"]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("t_final, dt, message", [
    (math.inf, 0.01, "t_final must be >= 0 and finite"),
    (math.nan, 0.01, "t_final must be >= 0 and finite"),
    (1.0, 1e-320, "t_final / dt must be finite"),
], ids=["inf", "nan", "tiny-dt"])
def test_step_params_refuse_a_non_finite_step_count(t_final, dt, message):
    with pytest.raises(ValueError, match=message):
        StepParams(dt=dt, t_final=t_final)


@pytest.mark.parametrize("d", [2, 3])
def test_cli_refuses_the_erf_interaction_weight_outside_d1(tmp_path, capsys, d):
    # it used to pair |x - y| while summary.json echoed "erf"
    out = tmp_path / "out"
    assert main(["simulate", "--d", str(d), "--grid-m", "16", "--box-l", "4",
                 "--interaction-weight", "erf", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration")
    assert ("interaction_weight must be one of ('none', 'absdistance', 'constant') "
            f"in d = {d}, got 'erf'") in err
    assert not out.exists()
    assert parse_config(None, {"interaction_weight": "erf"}).interaction_weight == "erf"


@pytest.mark.parametrize("flags", [
    ["simulate", "--interaction-weight", "erf"],
    ["simulate", "--weight", "erf", "--interaction-weight", "none"],
    ["verify-identities", "--weight", "erf"],
], ids=["simulate-interaction", "simulate-virial", "verify-identities"])
def test_cli_refuses_an_infinite_weight_eps(tmp_path, capsys, flags):
    # these used to end in a traceback, a run writing V = inf on every row,
    # and RuntimeWarnings
    out = tmp_path / "out"
    assert main([flags[0], *_SMALL_D1, *flags[1:], "--weight-eps", "inf",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration")
    assert "weight_eps must be > 0 and finite, got inf" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_erf_weight_and_delta_kernel_refuse_a_width_that_is_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="smoothing width must be positive and finite"):
        MorawetzWeight.erf_smoothed(eps)
    with pytest.raises(ValueError, match="mollifier width must be positive and finite"):
        RadialKernel.gaussian_delta(eps)


def _cli_config(args):
    """parse_config of a command line, the way main builds it."""
    ns = build_parser().parse_args(args)
    overrides = {k: v for k, v in vars(ns).items()
                 if k not in ("config", "experiment") and v is not None}
    return parse_config(ns.config, {**overrides, "experiment": ns.experiment})


def test_config_refuses_a_run_whose_records_exceed_memory(monkeypatch):
    """parse_config alone: no run starts."""
    for experiment, key in (("simulate", "t_final"), ("scatter", "t_final"),
                            ("verify-identities", "t_final"),
                            ("verify-identities", "fd_calibration_t")):
        with pytest.raises(ConfigError, match=f"{experiment} needs at least .* MiB of "
                           f"diagnostics records .* shorten {key},"):
            parse_config(None, {"experiment": experiment, key: 1e300})
    # every benchmark workload is accepted
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import N_SETS, WORKLOADS
    for workload in WORKLOADS.values():
        for k in range(N_SETS):
            assert _cli_config(workload.cli_args(k)).experiment == workload.experiment


# One run per row of config._validate's memory table: the row's size in bytes,
# the text the refusal gives for it, and a run far above any physical memory
# that is refused by the same row.  Every other row of each run is smaller.
_D1 = {"d": 1, "grid_m": 64, "box_l": 16.0}
_GN = {"experiment": "gn-check", "d": 1, "grid_m": 64, "box_l": 4.0}
_SHORT = {"dt": 0.01, "t_final": 0.1}
_MEMORY_ROWS = {
    "coupling matrix": (
        {"n_components": 32, "grid_m": 8, **_SHORT}, 32 * 32 * 8,
        "0.00781 MiB of coupling matrix (1.02e+03 entries x 8 bytes)",
        {"n_components": 10 ** 6}),
    # three components: the padded half-spectra of two (2 x 65 x 16 bytes) are smaller
    "fields": (
        {**_D1, "n_components": 3, **_SHORT}, 3 * 64 * 16,
        "0.00293 MiB of fields (192 complex values x 16 bytes)",
        {"d": 3, "grid_m": 100_000}),
    # the d = 3 sink's rho_hat and one m_mu half-spectrum, (2M)^2 (M + 1) each
    "padded half-spectra": (
        {"d": 3, "grid_m": 8, "box_l": 4.0, **_SHORT}, 2 * 16 * 16 * 9 * 16,
        "0.0703 MiB of padded half-spectra (4.61e+03 complex values x 16 bytes)",
        {"d": 3, "grid_m": 100_000}),
    # 100 steps at stride 1 give 101 snapshots
    "diagnostics records": (
        {"dt": 0.01, "t_final": 1.0, "snapshot_stride": 1}, 101 * 512,
        "0.0493 MiB of diagnostics records (101 snapshots x 512 bytes)",
        {"t_final": 1e300}),
    # 81 nodes of 2 components x 64 points
    "node buffer": (
        {"experiment": "wave-op", **_D1, "n_components": 2, "wave_t": 4.0, "wave_dt": 0.05},
        81 * 2 * 64 * 16, "0.158 MiB of node buffer (81 nodes x 2048 bytes)",
        {"experiment": "wave-op", "d": 3, "grid_m": 512, "wave_t": 1e6}),
    "per-sample records": (
        {**_GN, "gn_count": 101}, 101 * 192,
        "0.0185 MiB of per-sample records (101 samples x 192 bytes)",
        {**_GN, "gn_count": 10 ** 12}),
    "sample fields": (
        {**_GN, "gn_alpha": 100}, 100 * 64 * 16,
        "0.0977 MiB of sample fields (6.4e+03 complex values x 16 bytes)",
        {**_GN, "gn_alpha": 10 ** 11}),
}


@pytest.mark.parametrize("row", list(_MEMORY_ROWS))
def test_memory_table_refuses_one_byte_over_memory(tmp_path, capsys, monkeypatch, row):
    """parse_config and a refused command line: no run starts."""
    run, size, text, huge = _MEMORY_ROWS[row]
    experiment = run.get("experiment", "simulate")
    with pytest.raises(ConfigError, match=re.escape(f"MiB of {row} (")):
        parse_config(None, huge)
    monkeypatch.setattr(nlskit.config, "_physical_memory", lambda: size)
    assert parse_config(None, run).experiment == experiment
    monkeypatch.setattr(nlskit.config, "_physical_memory", lambda: size - 1)
    with pytest.raises(ConfigError) as refused:
        parse_config(None, run)
    [problem] = refused.value.problems
    assert problem.startswith(f"{experiment} needs at least {text}, more than the "
                              f"{(size - 1) / 2 ** 20:.1f} MiB of physical memory: ")
    out = tmp_path / "out"
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in run.items() if k != "experiment"]
    assert main([experiment, *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlskit: invalid configuration") and text in err
    assert "Traceback" not in err
    assert not out.exists()


def test_memory_table_refuses_a_grid_past_the_float_range(tmp_path, capsys):
    # 10^103 points per axis give a fields row of 1.6e310 bytes, past the
    # float range: its refusal is still a ConfigError naming grid_m, and so
    # is that of the sink's padded half-spectra, 8 times as large
    with pytest.raises(ConfigError) as refused:
        parse_config(None, {"d": 3, "grid_m": 10 ** 103})
    [problem, padded] = refused.value.problems
    assert problem.startswith("simulate needs at least 1.53e+304 MiB of fields "
                              "(1e+309 complex values x 16 bytes), more than the ")
    assert problem.endswith(": lower n_components or grid_m")
    assert padded.startswith("simulate needs at least 1.22e+305 MiB of padded half-spectra "
                             "(8e+309 complex values x 16 bytes), more than the ")
    assert padded.endswith(": lower grid_m")
    assert main(["simulate", "--d", "3", "--grid-m", str(10 ** 103),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "grid_m" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_WEIGHT_RUN = ["--d", "1", "--grid-m", "64", "--box-l", "16", "--p", "1",
               "--amplitude", "0.3", "--dt", "0.01", "--t-final", "0.1",
               "--snapshot-stride", "5"]
_WEIGHTS = {"quadratic": MorawetzWeight.quadratic(), "absdistance": MorawetzWeight.abs_distance(),
            "erf": MorawetzWeight.erf_smoothed(0.5), "constant": MorawetzWeight.constant()}


@pytest.mark.parametrize("interaction", CHOICES["interaction_weight"])
@pytest.mark.parametrize("weight", CHOICES["weight"])
def test_cli_simulate_with_every_weight_pair(tmp_path, weight, interaction):
    """Each weight name writes its columns, from the weight it names."""
    out = tmp_path / "out"
    args = ["simulate", *_WEIGHT_RUN, "--weight", weight,
            "--interaction-weight", interaction, "--out-dir", str(out)]
    assert main(args) == 0
    with open(out / "diagnostics.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    expected = (["V", "Vdot"] if weight != "none" else []) + (
        ["I", "Idot", "N_term", "rhs_lower"] if interaction != "none" else [])
    assert [c for c in first if c in ("V", "Vdot", "Vddot", "I", "Idot", "N_term",
                                      "rhs_lower")] == expected
    _, _, state0 = nlskit.cli._setup(_cli_config(args))
    if weight != "none":
        assert float(first["V"]) == virial_V(state0, _WEIGHTS[weight])
    if interaction != "none":
        assert float(first["I"]) == interaction_report(state0, _WEIGHTS[interaction]).I


def _verify_outputs(out):
    summary = json.loads((out / "summary.json").read_text())
    return (out / "diagnostics.csv").read_bytes(), summary["fd_constants"], summary["checks"]


@pytest.mark.parametrize("weight", ["none", "absdistance"])
def test_cli_verify_identities_checks_a_non_smooth_weight_with_the_quadratic(tmp_path, weight):
    for name in (weight, "quadratic"):
        assert main(["verify-identities", *_VERIFY_D1, "--weight", name,
                     "--out-dir", str(tmp_path / name)]) == 0
    assert _verify_outputs(tmp_path / weight) == _verify_outputs(tmp_path / "quadratic")


def test_cli_verify_identities_without_an_interaction_weight(tmp_path):
    assert main(["verify-identities", *_VERIFY_D1, "--interaction-weight", "none",
                 "--out-dir", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["virial_first_identity"]["pass"] is True
    assert checks["virial_second_identity"]["pass"] is True
    assert checks["interaction_first_identity"] == {"gap": None, "tol": None, "pass": None}
    assert checks["interaction_inequality"] == {"pass": None}
    assert checks["interaction_integrated"] == {"pass": None}


def test_cli_gn_check_deterministic(tmp_path):
    args = ["gn-check", "--d", "1", "--grid-m", "128", "--box-l", "8",
            "--gn-count", "25", "--gn-variant", "cubic",
            "--gn-generator", "bumps", "--seed", "77"]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "gn_report.json").read_bytes() == (out2 / "gn_report.json").read_bytes()


# one small run of each subcommand, simulate in every dimension; each must
# make no scipy.fft call, as numpy.fft is the one FFT library (the two tests
# below keep their numpy_fft names so that their ids stay stable)
_NO_NUMPY_FFT_RUNS = {
    "simulate-d1": ["simulate", "--d", "1", "--grid-m", "64", "--box-l", "8",
                    "--dt", "0.01", "--t-final", "0.04", "--snapshot-stride", "2"],
    "simulate-d2": ["simulate", "--d", "2", "--grid-m", "16", "--box-l", "6",
                    "--dt", "0.01", "--t-final", "0.04", "--snapshot-stride", "2"],
    "simulate-d3": ["simulate", *_D3_RUN],
    "verify-identities": ["verify-identities", *_VERIFY_D1],
    "scatter": ["scatter", "--d", "1", "--grid-m", "64", "--box-l", "16", "--beta", "0",
                "--dt", "0.01", "--t-final", "0.2", "--snapshot-stride", "5"],
    "wave-op": ["wave-op", "--d", "1", "--grid-m", "64", "--box-l", "16",
                "--wave-t", "1", "--wave-dt", "0.05"],
    "gn-check": ["gn-check", "--d", "2", "--grid-m", "16", "--box-l", "4",
                 "--gn-count", "3", "--gn-generator", "band-limited"],
}


@pytest.fixture
def no_scipy_fft(monkeypatch):
    """Make every scipy.fft entry point raise: numpy.fft is the only library."""
    def refuse(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"scipy.fft.{name} called")
        return raiser

    for name in scipy.fft.__all__:
        monkeypatch.setattr(scipy.fft, name, refuse(name))


@pytest.mark.parametrize("run", list(_NO_NUMPY_FFT_RUNS))
def test_no_subcommand_calls_numpy_fft(tmp_path, no_scipy_fft, run):
    assert main([*_NO_NUMPY_FFT_RUNS[run], "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("d, m", [(1, 64), (2, 16), (3, 8)])
def test_random_band_limited_data_does_not_call_numpy_fft(no_scipy_fft, d, m):
    state = build_initial_state(GridSpec(d, m, 4.0), CouplingSpec(2, np.eye(2), 1.0, d),
                                RunConfig(family="random-band-limited", seed=3))
    assert state.is_finite()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_multi_bump_is_the_gaussian_of_the_same_amplitudes(d):
    # one bump of amplitude 1 and width 1 at the origin, at rest: the
    # one-element bump_centers and bump_velocities broadcast like scalars
    grid, coupling = GridSpec(d, 16, 8.0), CouplingSpec(2, np.eye(2), 1.0, d)
    bumps = build_initial_state(grid, coupling, RunConfig(family="multi-bump",
                                                          amplitude=[0.5, 0.8]))
    gauss = build_initial_state(grid, coupling, RunConfig(amplitude=[0.5, 0.8]))
    for b, g in zip(bumps.fields, gauss.fields):
        assert b.values.tobytes() == g.values.tobytes()


@pytest.mark.parametrize("d, velocity, modes", [
    (1, [1.7, -2.4], [(2,), (-3,)]),
    (2, [[1.7, -0.3], [-2.4, 3.1]], [(2, 0), (-3, 4)]),
    # past Nyquist: j is clipped to [-M/2, M/2 - 1]
    (1, [100.0, -100.0], [(7,), (-8,)]),
    (2, [[100.0, 1.7], [-100.0, 100.0]], [(7, 2), (-8, 7)])])
def test_plane_modulated_data_is_one_grid_mode_per_component(d, velocity, modes):
    # each component is A exp(i k.x) with k = (pi / L) j, j = round(v L / pi)
    grid, amps = GridSpec(d, 16, 4.0), [0.5, 0.8]
    state = build_initial_state(grid, CouplingSpec(2, np.eye(2), 1.0, d),
                                RunConfig(family="plane-modulated", amplitude=amps,
                                          velocity=velocity))
    for f, amp, j in zip(state.fields, amps, modes):
        assert np.abs(np.abs(f.values) - amp).max() <= 4 * np.finfo(float).eps * amp
        expected = np.zeros(grid.shape, dtype=complex)
        expected[tuple(np.mod(j, grid.m))] = amp
        assert np.abs(forward_transform(f) - expected).max() <= 1e-14


_LIST_KEYS = ("beta", "amplitude", "width", "center", "velocity", "chirp",
              "bump_amplitudes", "bump_centers", "bump_widths", "bump_velocities")


@pytest.mark.parametrize("entry", ["a", None, True, [0.0, "a"]],
                         ids=["string", "null", "true", "nested"])
@pytest.mark.parametrize("key", _LIST_KEYS)
def test_cli_refuses_a_non_numeric_list_entry(tmp_path, capsys, key, entry):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"n_components": 2, key: [1.0, entry]}))
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "nlskit: invalid configuration" in err
    assert f"{key}: expected a list of numbers" in err


_FLOAT_KEYS = ("dt", "t_final", "box_l", "p", "weight_eps", "tol")
_PAST_FLOATS = {"int": 10 ** 400, "negative": -(10 ** 400), "list": [0.5, 10 ** 400],
                "nested": [[0.0, 10 ** 400]]}


@pytest.mark.parametrize("key, kind", [(key, "int") for key in _FLOAT_KEYS]
                         + [(key, kind) for key in _LIST_KEYS for kind in _PAST_FLOATS
                            # the bump_* keys take lists only
                            if kind in ("list", "nested") or not key.startswith("bump_")])
def test_cli_refuses_an_integer_past_the_float_range(tmp_path, capsys, key, kind):
    # an int keeps its digits through json and parse_config; one with no
    # finite float is a named problem, not an OverflowError later
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"n_components": 2, key: _PAST_FLOATS[kind]}))
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "nlskit: invalid configuration" in err
    sign = "-" if kind == "negative" else ""
    assert f"{key}: expected numbers within the float range, got the integer {sign}1e+400" in err


def test_cli_refuses_an_integer_of_too_many_digits_to_read(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"amplitude": 1' + "0" * 5000 + "}")
    assert main(["simulate", "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 1
    assert "config file is not valid JSON" in capsys.readouterr().err


# Run in a fresh interpreter: prints, as its last line, whether scipy was
# loaded after each stage, with the exit code of each run and the checks of
# the erf-smoothed weight and the d = 2 analytic kernel, the two places that
# need a special function.
_NO_SCIPY_SCRIPT = """
import json, math, sys
import nlskit.cli
from nlskit import GridSpec, MorawetzWeight, RadialKernel
from nlskit.grid import _kernel_hat

runs, out = json.loads(sys.argv[1]), sys.argv[2]
seen = {"import": "scipy" in sys.modules}
for name, args in runs.items():
    seen[name] = [nlskit.cli.main([*args, "--out-dir", f"{out}/{name}"]), "scipy" in sys.modules]
weight = MorawetzWeight.erf_smoothed(0.5)
seen["erf"] = [math.isclose(weight.d1(1.0), math.erf(2.0), rel_tol=1e-14),
               "scipy" in sys.modules]
grid = GridSpec(2, 16, 4.0)
hat = _kernel_hat(grid, RadialKernel.reciprocal("analytic"))
seen["analytic"] = [bool(math.isclose(hat[0, 0], 2.0 * math.pi * 8.0 / grid.cell_volume))
                    and bool((hat > 0.0).all()), "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_never_loads(tmp_path):
    runs = {"simulate-d3": ["simulate", "--d", "3", "--grid-m", "16", "--box-l", "6",
                            "--t-final", "0.02"],
            "wave-op-d2": ["wave-op", "--d", "2", "--grid-m", "16", "--box-l", "8",
                           "--wave-t", "1", "--wave-dt", "0.05"],
            "verify-d2": ["verify-identities", "--d", "2", "--grid-m", "16", "--box-l", "6",
                          "--dt", "0.01", "--t-final", "0.1", "--snapshot-stride", "2"]}
    env = {**os.environ, "PYTHONPATH": str(Path(nlskit.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs),
                           str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False, "simulate-d3": [0, False], "wave-op-d2": [0, False],
                    "verify-d2": [0, False], "erf": [True, False], "analytic": [True, False]}
