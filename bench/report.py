"""Run every workload and print its metrics with their units.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

For each workload in ``BENCHMARK.json`` this runs ``run.py`` (timed
repetitions, output checks and the replay), and with ``--trace`` also the
traced run.  It prints
``trials_per_s``, ``setup_s``, ``peak_rss_mb`` and ``failed_ratio`` (and the
per-layer split) for each, and exits non-zero when any output check
failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also run the traced per-layer split")
    args = parser.parse_args()
    status = 0
    for workload in config["workloads"]:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload["name"], "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if proc.returncode in (0, 1)
                  else proc.stdout + proc.stderr)
            status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
