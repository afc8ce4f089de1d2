"""Benchmark runner for nlskit: fixed CLI workloads, checked, one at a time.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/nlskit``
and ``BENCHMARK.json``).  Each workload is a closed loop with one client: a
fresh ``nlskit.cli.main`` process starts only after the previous one exited,
and full runs are started while the next one would still end within
``--seconds`` (always at least one).  Every full run is checked: exit code 0,
every ``summary.json`` check passing, and key numbers within the reference
tolerance (``reference.json``).  ``attempted`` and ``failed`` count full runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  On a shared
host (measured on a 2-vCPU cloud VM) the speed of this program drifted by up
to 1.5x for a minute or more with the load of other tenants, so raw wall time
is not steady from one window to the next.  Before the first full run and
after each one, this process times a fixed FFT kernel (``calibrate``, numpy
only, never nlskit code, and never while a child runs); ``wall_over_cal`` is
the median over full runs of the run's wall time over the mean of the two
kernel timings around it.  The raw ``wall_s`` median is printed beside it and
reported by ``--trace 1`` as ``run.wall_s``.  After the full runs, the rest of
the window is filled with probe processes that stop at the first call into
``evolve``, ``collect_series`` or ``wave_operator`` (at least ``MIN_PROBES``),
so the median of ``setup_s`` has several samples even where one full run fills
``--seconds``; a failed probe makes the result incorrect.  ``--trace 1``
alternates untraced and traced full runs (at least one pair) and reports the
per-layer metrics; the gap between their median wall times is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import N_SETS, WORKLOADS, Workload, check_outputs, load_reference

MIN_PROBES = 2            # set-up-only processes per untraced run, at least
CAL_SHAPE = (96, 96, 96)  # complex128, 14 MB: the padded grid of sim-d3-sink
CAL_PAIRS = 6             # forward+inverse transforms per kernel timing, ~0.5 s
HARD_LIMIT_S = 170.0      # a run never outlasts this, whatever --seconds says
RUNS_DIR = ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env(root: Path) -> dict[str, str]:
    """The environment of every nlskit process: ``src`` first on the path
    and BLAS/OpenMP thread counts capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    n = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, n))
        except ValueError:
            current = n
        env[var] = str(max(1, min(current, n)))
    return env


def machine_facts(env: dict[str, str]) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "threads": {v: env[v] for v in THREAD_VARS}}


def median_of(values: list[float]) -> tuple[float, int]:
    """Median and sample count; NaN and 0 for no samples."""
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def calibrate() -> float:
    """Seconds this process takes for a fixed amount of FFT work right now.

    The kernel is the benchmark's own (numpy.fft on a fixed array), so a
    change to nlskit cannot change it; only the host's current speed can.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal(CAL_SHAPE) + 0j
    t0 = time.perf_counter()
    for _ in range(CAL_PAIRS):
        np.fft.ifftn(np.fft.fftn(a))
    return time.perf_counter() - t0


@dataclass
class Proc:
    """One finished process and what it measured."""

    mode: str
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    doc: dict
    problems: list[str] = field(default_factory=list)
    cal_s: float | None = None   # kernel timing around an untraced full run


def spawn(root: Path, env: dict, mode: str, cli_args: list[str],
          out_dir: Path, limit_s: float) -> Proc:
    """Run one child process to completion and collect its measurements."""
    out_dir.mkdir(parents=True)
    result = out_dir / "perfbench-result.json"
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
           "--mode", mode, "--result", str(result), "--run-id", out_dir.name, "--", *cli_args, "--out-dir", str(out_dir)]
    with open(out_dir / "output.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        doc = json.loads(result.read_text())
    except (OSError, ValueError):
        doc = {}
    first = doc.get("first_entry")
    p = Proc(mode, wall, None if first is None else first - t0,
             usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, doc)
    if proc.returncode != 0:
        p.problems.append(f"exit code {proc.returncode}")
    if first is None:
        p.problems.append("no call into an entry point")
    if mode == "trace" and "layers" not in doc and not p.problems:
        p.problems.append("no trace written")
    return p


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool, reference: dict, env: dict) -> list[Proc]:
    """Run one workload for ``seconds``; a process with problems failed."""
    index = seed % N_SETS
    cli_args = workload.cli_args(index)
    print(f"perfbench {workload.name} input set {index}: {' '.join(cli_args)}", flush=True)
    runs_dir = root / RUNS_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(runs_dir, ignore_errors=True)
    if not trace:
        calibrate()               # warm-up before the window: numpy import, FFT plan
    start = time.monotonic()
    procs: list[Proc] = []
    cals = [] if trace else [calibrate()]

    def one(mode: str) -> None:
        out_dir = runs_dir / f"{len(procs):03d}-{mode}"
        p = spawn(root, env, mode, cli_args, out_dir,
                  start + HARD_LIMIT_S - time.monotonic())
        if mode != "probe" and not p.problems:
            p.problems += check_outputs(workload, index, out_dir, reference)
        if mode == "plain" and not trace:
            cals.append(calibrate())
            p.cal_s = (cals[-2] + cals[-1]) / 2
        setup = "none" if p.setup_s is None else f"{p.setup_s:.4f} s"
        cal = "" if p.cal_s is None else f", kernel {p.cal_s:.4f} s"
        print(f"perfbench {workload.name} {out_dir.name}: wall {p.wall_s:.4f} s, "
              f"setup {setup}, rss {p.peak_rss_mb:.1f} MB{cal}"
              f"{', FAILED' if p.problems else ''}", flush=True)
        if p.problems:
            tail = (out_dir / "output.txt").read_text(errors="replace")[-2000:]
            print(f"perfbench {workload.name} FAILED {out_dir.name}: "
                  f"{'; '.join(p.problems)}\n{tail}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        procs.append(p)

    def fill(modes: tuple[str, ...], at_least: int) -> None:
        """Run cycles of ``modes`` while the next would end within the window."""
        done = 0
        while True:
            for mode in modes:
                one(mode)
            done += 1
            cycle = sum(median_of([p.wall_s for p in procs if p.mode == m])[0] for m in modes)
            if done >= at_least and time.monotonic() + cycle - start > min(seconds, HARD_LIMIT_S):
                return

    try:
        fill(("plain", "trace") if trace else ("plain",), 1)
        if not trace:
            fill(("probe",), MIN_PROBES)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        try:
            (root / RUNS_DIR).rmdir()
        except OSError:
            pass
    return procs


def tally(procs: list[Proc]) -> tuple[int, int, list[str]]:
    """Full runs attempted and failed, and the problems of failed probes."""
    full = [p for p in procs if p.mode != "probe"]
    probes = [p for p in procs if p.mode == "probe" and p.problems]
    return (len(full), sum(1 for p in full if p.problems),
            [f"set-up probe failed: {'; '.join(p.problems)}" for p in probes])


def end_to_end(procs: list[Proc]) -> dict[str, tuple[float, int]]:
    plain = [p for p in procs if p.mode == "plain" and not p.problems]
    setups = [p.setup_s for p in procs
              if p.mode in ("plain", "probe") and not p.problems and p.setup_s is not None]
    return {"wall_s": median_of([p.wall_s for p in plain]),
            "wall_over_cal": median_of([p.wall_s / p.cal_s for p in plain]),
            "setup_s": median_of(setups),
            "peak_rss_mb": median_of([p.peak_rss_mb for p in plain])}


def per_layer(procs: list[Proc]) -> dict[str, tuple[float, int]]:
    plain = [p for p in procs if p.mode == "plain" and not p.problems]
    traced = [p for p in procs if p.mode == "trace" and not p.problems]
    out: dict[str, tuple[float, int]] = {}
    for key in (traced[0].doc["layers"] if traced else {}):
        out[key] = median_of([p.doc["layers"][key] for p in traced])
    wall_plain = median_of([p.wall_s for p in plain])
    wall_traced = median_of([p.wall_s for p in traced])
    out["run.wall_s"] = wall_plain
    out["run.cpu_s"] = median_of([p.cpu_s for p in plain])
    out["run.trace_overhead_s"] = (wall_traced[0] - wall_plain[0],
                                   min(wall_traced[1], wall_plain[1]))
    out["run.unaccounted_s"] = median_of(
        [p.wall_s - p.setup_s - p.doc["top_level_s"] for p in traced])
    return out


def report(name: str, measured: dict[str, tuple[float, int]], wanted: list[dict],
           attempted: int, failed: int, absent: list[str]) -> tuple[dict, list[str]]:
    """Metrics in the result format, plus the problems that make it incorrect."""
    metrics, problems = {}, []
    for m in wanted:
        value, n = measured.get(m["name"], (float("nan"), 0))
        note = ", computed from array shapes, not measured" if "_computed" in m["name"] else ""
        print(f"perfbench {name} {m['name']} = {value:.6g} {m['unit']} (median of {n}{note})")
        if n == 0:
            problems.append(f"{name}: no sample of {m['name']}")
        metrics[m["name"]] = {"value": value if n else None, "unit": m["unit"]}
    frac = failed / attempted if attempted else float("nan")
    print(f"perfbench {name} failed_frac = {frac:.6g} ({failed} failed of {attempted} attempted)")
    if absent:
        print(f"perfbench {name} absent hook targets: {', '.join(sorted(set(absent)))}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlskit" / "cli.py").is_file():
        print("perfbench: no src/nlskit/cli.py here; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    reference = load_reference()
    env = child_env(root)
    print("perfbench machine " + json.dumps(machine_facts(env), sort_keys=True), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, problems, attempted, failed = {}, [], 0, 0
    for name in names:
        procs = run_workload(root, WORKLOADS[name], args.seed, seconds, bool(args.trace),
                             reference, env)
        measured = per_layer(procs) if args.trace else end_to_end(procs)
        if not args.trace:
            wall, n = measured["wall_s"]
            print(f"perfbench {name} wall_s = {wall:.6g} s (median of {n})")
        absent = [a for p in procs for a in p.doc.get("absent", [])]
        w_attempted, w_failed, probe_problems = tally(procs)
        got, missing = report(name, measured, wanted, w_attempted, w_failed, absent)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        problems += [f"{name}: {p}" for p in probe_problems] + missing
        attempted += w_attempted
        failed += w_failed
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
