"""Record the reference summaries the benchmark checks its outputs against.

    python3 bench/record_reference.py

Runs every workload once per master seed (``0 .. REFERENCE_SEEDS - 1``) on
one thread and writes the mode summaries to ``bench/reference.json``.  Run
it only on a commit whose numerics are the intended reference; it replaces
the file.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import SRC, WORK, run_child
from workloads import (REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS,
                       check_output, summarize)


def main() -> int:
    work = WORK / "reference"
    reference: dict = {}
    try:
        for workload in WORKLOADS.values():
            table = reference[workload.name] = {}
            for seed in range(REFERENCE_SEEDS):
                out = work / f"{workload.name}-{seed}"
                job = {"src": str(SRC), "setup": None, "run": True,
                       "trace": None, "argv": workload.argv(seed, out, 1)}
                result, error = run_child(job, work)
                problems = [error] if result is None else check_output(
                    workload, out, seed, None)
                if problems:
                    print(f"{workload.name} seed {seed}: {problems}",
                          file=sys.stderr)
                    return 1
                table[str(seed)] = summarize(workload, out)
                print(f"{workload.name} seed {seed}: {table[str(seed)]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
