"""Minor page faults per CLI call on the benchmark workloads.

    python3 tools/pagefaults.py [--src DIR] [--calls N] [WORKLOAD ...]

Each workload runs in a fresh interpreter that imports ``cloudmimo.cli``
from ``DIR`` (default: ``src/`` of this checkout) and makes ``N + 1`` calls
of the workload's command line at master seed 31.  Per call it reads
``resource.getrusage(RUSAGE_SELF).ru_minflt`` before and after.  Prints one
JSON line per workload with the per-call counts, the first call's (the one
call a benchmark repetition makes) and the median of the later ones.  The
workloads and their command lines are those of ``bench/workloads.py``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, master_seed  # noqa: E402

SEED = 31


def _measure(src: str, name: str, calls: int) -> dict:
    sys.path.insert(0, src)
    from cloudmimo import cli
    workload = WORKLOADS[name]
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(calls + 1):
            argv = workload.argv(master_seed(SEED), Path(tmp) / str(i),
                                 workload.threads)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if cli.main(argv) != 0:
                raise SystemExit(f"{name}: the CLI call failed")
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
    return {"workload": name, "src": src, "minflt_per_call": faults,
            "first": faults[0], "median_later": statistics.median(faults[1:])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_measure(args.src, args.workloads[0], args.calls)))
        return 0
    for name in args.workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--src", args.src,
             "--calls", str(args.calls), name],
            capture_output=True, text=True, check=True)
        print(proc.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
