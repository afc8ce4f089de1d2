"""One benchmark process: hook nlskit from outside, then run ``nlskit.cli.main``.

    python3 perfbench/child.py --mode plain|trace|probe --result FILE \
        --run-id ID -- <nlskit cli arguments>

Every mode stamps the first call into an entry point (``evolve``,
``collect_series`` or ``wave_operator``), which ends set-up.  ``probe`` exits
at that stamp; ``plain`` runs to the end with no other hook; ``trace`` also
records spans and counters and writes the per-layer metrics.  The result file
is JSON; the process exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("plain", "trace", "probe"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import tracing
    import nlskit.cli

    doc: dict = {"mode": args.mode}

    def on_first(t: float) -> None:
        doc["first_entry"] = t
        if args.mode == "probe":
            write(args.result, doc)
            os._exit(0)

    doc["absent"] = tracing.install_entry_stamp(on_first)
    tracer = None
    if args.mode == "trace":
        grid_m = int(cli_args[cli_args.index("--grid-m") + 1])
        tracer = tracing.Tracer(run=args.run_id, grid_m=grid_m)
        tracer.install()
    rc = nlskit.cli.main(cli_args)
    doc["returncode"] = rc
    if tracer is not None:
        doc["absent"] += tracer.absent
        doc["layers"] = tracer.layer_metrics()
        doc["spans"] = len(tracer.spans)
        doc["top_level_s"] = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    write(args.result, doc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
