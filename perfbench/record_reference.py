"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout.  For every workload and each of its
``N_SETS`` input sets it runs the CLI once, requires exit code 0 and every
summary check passing, and stores the CLI arguments with the key numbers in
perfbench/reference.json.  Re-record only when a change is meant to alter the
numerical results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HARD_LIMIT_S, RUNS_DIR, child_env, spawn
from workloads import N_SETS, REFERENCE, WORKLOADS, key_numbers, summary_problems

RTOL = 1e-9


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    doc = {"rtol": RTOL, "workloads": {}}
    for name, w in WORKLOADS.items():
        sets = []
        for index in range(N_SETS):
            out_dir = root / RUNS_DIR / f"reference-{name}-{index}"
            shutil.rmtree(out_dir, ignore_errors=True)
            cli_args = w.cli_args(index)
            p = spawn(root, env, "plain", cli_args, out_dir, HARD_LIMIT_S)
            if not p.problems:
                summary = json.loads((out_dir / "summary.json").read_text())
                p.problems += summary_problems(w.experiment, summary)
            if p.problems:
                print(f"{name} set {index}: {'; '.join(p.problems)}", file=sys.stderr)
                return 1
            values = key_numbers(w.experiment, out_dir)
            shutil.rmtree(out_dir)
            sets.append({"args": cli_args, "values": values})
            print(f"{name} set {index}: {p.wall_s:.2f} s {values}", flush=True)
        doc["workloads"][name] = sets
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
