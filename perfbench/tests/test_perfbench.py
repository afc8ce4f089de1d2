"""Tests of the benchmark's own arithmetic, hooks and output checks.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import (MIN_PROBES, Proc, child_env, end_to_end, median_of, per_layer,
                 run_workload, tally)
from tracing import Span, Tracer, covered, fft_work, outermost, resolve, self_times
from workloads import WORKLOADS, check_outputs, compare


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),      # overlaps a: union of a and b is [1, 6]
        Span("c", 2.0, 3.0, 1, "r"),      # grandchild: already inside a
        Span("d", 9.0, 12.0, 0, "r"),     # runs past the parent's end: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_covered_ignores_disjoint_order_and_duplicates():
    assert covered([(5, 6), (1, 2), (1, 2)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0


def test_outermost_counts_same_name_nesting_once():
    spans = [Span("x", 0, 4, None, "r"), Span("y", 1, 3, 0, "r"),
             Span("x", 1.5, 2, 1, "r"), Span("x", 5, 6, None, "r")]
    assert outermost(spans) == [True, True, False, True]


def test_layer_metrics_from_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(run="r", grid_m=8, clock=lambda: float(next(ticks)))

    def leaf():
        return "done"

    def outer():
        tracer.call("morawetz.virial", leaf, [], {})
        return tracer.call("grid.convolve", lambda: tracer.call("grid.convolve", leaf, [], {}), [], {})

    assert tracer.call("morawetz.interaction", outer, [], {}) == "done"
    m = tracer.layer_metrics()
    # interaction 0..7, virial 1..2, convolve 3..6 with a nested convolve 4..5
    assert m["morawetz.interaction.calls"] == 1
    assert m["morawetz.interaction.self_s"] == pytest.approx(7 - 1 - 3)
    assert m["grid.convolve.calls"] == 1
    assert m["grid.convolve.s"] == pytest.approx(3)
    assert m["morawetz.virial.s"] == pytest.approx(1)


def test_median_and_sample_count():
    assert median_of([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_of([4.0, 1.0]) == (2.5, 2)
    value, n = median_of([])
    assert math.isnan(value) and n == 0


def test_end_to_end_reports_medians_of_passing_runs_only():
    procs = [Proc("probe", 0.5, 0.40, 50, 0.4, {}),
             Proc("probe", 0.5, 0.60, 50, 0.4, {}),
             Proc("plain", 10.0, 0.50, 200, 9.0, {}, cal_s=0.2),
             Proc("plain", 12.0, 0.70, 210, 9.5, {}, cal_s=0.3),
             Proc("plain", 99.0, 0.10, 999, 1.0, {}, ["exit code 1"], cal_s=0.1)]
    m = end_to_end(procs)
    assert m["wall_s"] == (11.0, 2)
    assert m["wall_over_cal"] == (45.0, 2)   # median of 10/0.2 and 12/0.3
    assert m["setup_s"] == (0.55, 4)
    assert m["peak_rss_mb"] == (205, 2)


def test_per_layer_overhead_is_traced_minus_untraced_wall():
    layers = {"fft.calls": 3.0}
    procs = [Proc("plain", 10.0, 0.5, 200, 9.0, {}),
             Proc("trace", 10.4, 0.5, 210, 9.6, {"layers": layers, "top_level_s": 9.7})]
    m = per_layer(procs)
    assert m["fft.calls"] == (3.0, 1)
    assert m["run.trace_overhead_s"][0] == pytest.approx(0.4)
    assert m["run.unaccounted_s"][0] == pytest.approx(10.4 - 0.5 - 9.7)
    assert m["run.wall_s"] == (10.0, 1)
    assert m["run.cpu_s"] == (9.0, 1)


def test_fft_work_counts_real_transforms_at_full_length():
    lengths, batch, flops = fft_work((2, 16, 16), (2, 16, 9), [-2, -1], real=True)
    assert lengths == [16, 16] and batch == 2
    assert flops == pytest.approx(2 * 2.5 * 256 * 8)
    lengths, batch, flops = fft_work((64,), (64,), [-1], real=False)
    assert (lengths, batch, flops) == ([64], 1, 5 * 64 * 6)


def test_compare_tolerance_and_residual_scale():
    ref = {"mass": 2.0, "first_residual": 0.1, "last_residual": 1e-11}
    # the last residual is compared on the scale of the first one
    ok = {"mass": 2.0 * (1 + 1e-12), "first_residual": 0.1, "last_residual": 1.001e-11}
    assert compare(ok, ref, 1e-9) == []
    bad = dict(ok, mass=2.0 * (1 + 1e-8), last_residual=1e-11 + 1e-9)
    assert compare(bad, ref, 1e-9) == [
        f"last_residual = {bad['last_residual']!r}, reference 1e-11",
        f"mass = {bad['mass']!r}, reference 2.0"]
    assert compare({}, {"mass": 1.0}, 1e-9) == ["mass missing"]


def _fake_outputs(tmp_path, energy):
    (tmp_path / "summary.json").write_text(json.dumps({
        "checks": {"mass_drift": {"pass": True}},
        "accumulator_totals": {"l4": 0.25}}))
    (tmp_path / "diagnostics.csv").write_text(
        "t,mass_1,mass_2,energy_total,I\n0,1,1,1,1\n0.5,1.5,0.5,%r,7\n" % energy)


def _reference_for(workload, values):
    return {"rtol": 1e-9,
            "workloads": {workload.name: [{"args": workload.cli_args(0), "values": values}]}}


def test_perturbed_reference_makes_the_run_fail(tmp_path):
    w = WORKLOADS["sim-d3-sink"]
    _fake_outputs(tmp_path, 5.5)
    values = {"mass_1": 1.5, "mass_2": 0.5, "energy_total": 5.5, "I": 7.0, "acc_l4": 0.25}
    assert check_outputs(w, 0, tmp_path, _reference_for(w, values)) == []
    perturbed = dict(values, energy_total=5.5 * (1 + 1e-6))
    problems = check_outputs(w, 0, tmp_path, _reference_for(w, perturbed))
    assert len(problems) == 1 and problems[0].startswith("energy_total")


def test_failed_summary_check_and_stale_arguments_fail(tmp_path):
    w = WORKLOADS["sim-d3-sink"]
    _fake_outputs(tmp_path, 5.5)
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["checks"]["mass_drift"]["pass"] = False
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    values = {"mass_1": 1.5, "mass_2": 0.5, "energy_total": 5.5, "I": 7.0, "acc_l4": 0.25}
    assert check_outputs(w, 0, tmp_path, _reference_for(w, values)) == ["check mass_drift failed"]
    stale = _reference_for(w, values)
    stale["workloads"][w.name][0]["args"] = ["simulate"]
    assert "other arguments" in check_outputs(w, 0, tmp_path, stale)[0]


def test_inputs_depend_only_on_the_seed_and_stay_within_ten_percent():
    w = WORKLOADS["sim-d1-stepper"]
    assert w.cli_args(3) == w.cli_args(3)
    assert w.cli_args(3) != w.cli_args(4)
    args = w.cli_args(5)
    amps = [float(v) for v in args[args.index("--amplitude") + 1].split(",")]
    assert all(0.9 * c <= a <= 1.1 * c for a, c in zip(amps, (0.4, 0.3)))


def test_resolve_reports_a_missing_target():
    import nlskit.grid  # noqa: F401
    assert resolve("nlskit.grid", "_renamed_helper") is None
    assert resolve("nlskit.no_such_module", "f") is None
    assert resolve("nlskit.grid", "GridSpec.no_such_method") is None


_HOOK_SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import numpy.fft, scipy.fft, tracing, nlskit.cli, nlskit.verify, nlskit.diagnostics
tracing.SPAN_HOOKS += (("nlskit.grid", "_renamed_helper", "grid.kernel_hat"),)
tracer = tracing.Tracer(run="t", grid_m=128)
tracer.install()
rc = nlskit.cli.main(["verify-identities", "--d", "1", "--grid-m", "128",
                      "--box-l", "16", "--dt", "0.01", "--t-final", "0.2",
                      "--snapshot-stride", "5", "--out-dir", {out!r}])
wrapped = ["Tracer." in f.__qualname__ for f in (
    nlskit.cli.evolve, nlskit.verify.evolve, nlskit.evolve,
    nlskit.diagnostics.interaction_report, nlskit.verify.interaction_report,
    numpy.fft.fftn, scipy.fft.fftn, scipy.fft.irfftn)]
print(json.dumps({{"rc": rc, "absent": tracer.absent, "wrapped": wrapped,
                  "layers": tracer.layer_metrics()}}))
"""


def test_hooks_wrap_every_binding_and_skip_missing_targets(tmp_path):
    script = _HOOK_SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"),
                                 out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["rc"] in (0, 1)
    assert doc["absent"] == ["nlskit.grid._renamed_helper"]
    assert all(doc["wrapped"])
    m = doc["layers"]
    # calibration at (dt, dt/2) plus the series run, which repeats the first
    assert m["verify.trajectories"] == 3
    assert m["verify.trajectory_reuse_ratio"] == pytest.approx(2 / 3)
    assert m["evolve.steps"] == 20 + 40 + 20
    assert m["evolve.nonlinear.calls"] == 80
    assert m["diagnostics.sink.calls"] == 3 * 5
    assert m["fft.calls"] > 0 and m["fft.gflop_computed"] > 0


def test_run_counts_a_reference_mismatch_as_failed():
    """One real waveop-d2 run against a perturbed reference."""
    w = WORKLOADS["waveop-d2"]
    from workloads import load_reference
    reference = load_reference()
    entry = reference["workloads"][w.name][0]
    entry["values"]["initial_mass_1"] *= 1 + 1e-6
    procs = run_workload(ROOT, w, 0, 0.0, False, reference, child_env(ROOT))
    full = [p for p in procs if p.mode == "plain"]
    assert len(full) == 1 and len(procs) == 1 + MIN_PROBES   # probes after the full run
    assert full[0].problems[0].startswith("initial_mass_1")
    assert full[0].cal_s > 0                        # kernel timed around the run
    # probes pass (they stop before any output) but do not dilute failed_frac
    assert tally(procs) == (1, 1, [])
    assert end_to_end(procs)["wall_s"][1] == 0
    assert end_to_end(procs)["setup_s"][1] == MIN_PROBES


def test_tally_counts_full_runs_and_reports_failed_probes():
    procs = [Proc("probe", 0.5, None, 50, 0.4, {}, ["exit code 1"]),
             Proc("probe", 0.5, 0.4, 50, 0.4, {}),
             Proc("plain", 10.0, 0.5, 200, 9.0, {}, ["mass_1 = 2.0, reference 1.0"]),
             Proc("plain", 10.0, 0.5, 200, 9.0, {}, ["exit code 1"]),
             Proc("trace", 11.0, 0.5, 210, 9.5, {})]
    attempted, failed, problems = tally(procs)
    assert (attempted, failed) == (3, 2)
    assert problems == ["set-up probe failed: exit code 1"]
    assert tally(procs[2:4])[:2] == (2, 2)         # every full run failed: failed_frac 1
