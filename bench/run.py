"""cloudmimo benchmark: Monte Carlo trials per second, set-up time and peak
memory of one CLI workload, or its per-layer split when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it benchmarks the package under ``src/``.
Every repetition is a fresh interpreter (``child.py``) that imports
``cloudmimo.cli``, times ``assemble_config`` + ``spec_from_flat`` (set-up)
and then ``cloudmimo.cli.main`` on the workload.  Repetitions run until
``--seconds`` have passed (at least three), and each metric is the median
over them.  Every repetition's output is checked (``workloads.py``), and
once per run the first repetition is replayed from its ``manifest.json``
with one thread and must give a byte-identical ``results.csv``.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones wrap the layers (``layertrace.py``) and the per-layer metrics are
their medians, plus the tracing overhead as traced / untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every operation passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import METRIC_UNITS
from workloads import WORKLOADS, check_output, load_reference, master_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchrun"
# A run must end within 180 s: no child outlives this budget.
RUN_BUDGET_S = 170
MIN_REPS = 3

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    # Byte code is cached as for an installed package, whatever the caller's
    # PYTHONDONTWRITEBYTECODE says.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CLOUDMIMO_")
           and k != "PYTHONDONTWRITEBYTECODE"}
    # The CLI's --threads is the only parallelism: at most 2 threads.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(job: dict, cwd: Path,
              timeout: float = RUN_BUDGET_S) -> tuple[dict | None, str]:
    """Run ``child.py`` on ``job``; its JSON result (None on a crash)."""
    cwd.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=cwd, env=_child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or proc.returncode != 0 or result.get("rc") != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return result, ""


class Session:
    """The checked operations of one benchmark run."""

    def __init__(self, workload, seed: int, work: Path, reference):
        self.workload = workload
        self.seed = master_seed(seed)
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.budget_end = time.perf_counter() + RUN_BUDGET_S

    def _run(self, argv: list[str], out: Path, setup: bool, trace,
             extra_check=None) -> dict | None:
        self.attempted += 1
        job = {"src": str(SRC), "argv": argv, "run": True, "trace": trace,
               "setup": self.workload.setup_job(self.seed) if setup
               else None}
        result, error = run_child(
            job, self.work, max(1.0, self.budget_end - time.perf_counter()))
        if result is None:
            problems = [error]
        else:
            problems = check_output(self.workload, out, self.seed,
                                    self.reference)
            if not problems and extra_check is not None:
                problems = extra_check()
        if problems:
            self.failed += 1
            self.problems += [f"operation {self.attempted}: {p}"
                              for p in problems]
            return None
        return result

    def operation(self, trace: dict | None = None,
                  keep: bool = False) -> tuple[dict | None, Path]:
        """One checked CLI call in a fresh child; its result and output."""
        out = self.work / f"op{self.attempted + 1}"
        argv = self.workload.argv(self.seed, out, self.workload.threads)
        result = self._run(argv, out, True, trace)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return result, out

    def replay(self, first: Path) -> None:
        """Rerun from ``first``'s manifest on one thread; compare bytes."""
        out = self.work / "replay"
        argv = [self.workload.mode, "--config", str(first / "manifest.json"),
                "--threads", "1", "--out", str(out)]

        def identical() -> list[str]:
            same = (out / "results.csv").read_bytes() \
                == (first / "results.csv").read_bytes()
            return [] if same else [
                "replayed results.csv is not byte-identical"]
        self._run(argv, out, False, None, identical)


def measure(session: Session, seconds: float, trace: bool,
            spans_path: Path) -> tuple[list[dict], list[dict]]:
    """Timed and, with ``trace``, traced repetitions that passed."""
    workload = session.workload
    # Untimed warm-up: compiles byte code and fills the file cache.
    run_child({"src": str(SRC), "argv": [], "run": False, "trace": None,
               "setup": workload.setup_job(session.seed)}, session.work)
    plain, traced = [], []
    first = None
    deadline = time.perf_counter() + seconds
    # Past the deadline, go on only to reach MIN_REPS, and only while
    # nothing has failed.
    while (time.perf_counter() < deadline
           or (len(plain) < MIN_REPS and session.failed == 0)) \
            and time.perf_counter() < session.budget_end:
        result, out = session.operation(keep=first is None)
        if first is None:
            first = out
        if result is not None:
            plain.append(result)
        if trace:
            result, _ = session.operation(trace={
                "trials": workload.trials_executed, "spans": str(spans_path)})
            if result is not None:
                traced.append(result)
    session.replay(first)
    return plain, traced


def _end_to_end(workload, plain: list[dict]) -> dict:
    if not plain:
        return {}
    return {
        "trials_per_s": statistics.median(
            workload.trials_executed / r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        return {}
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cloudmimo" / "cli.py").is_file():
        print(f"error: no cloudmimo package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    session = Session(workload, args.seed, WORK / f"run-{os.getpid()}",
                      load_reference()[workload.name])
    spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
    if args.trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced = measure(session, args.seconds, bool(args.trace),
                                spans_path)
    finally:
        shutil.rmtree(session.work, ignore_errors=True)

    print(f"workload {workload.name}: master seed {session.seed}, "
          f"{workload.trials_executed} trials per call, "
          f"{session.attempted} operations")
    for problem in session.problems:
        print(f"FAILED {problem}")
    if args.trace:
        absent = sorted(set().union(*(r["absent"] for r in traced)))
        if absent:
            print(f"absent layers (not found or never called): "
                  f"{', '.join(absent)}")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        units = METRIC_UNITS
        metrics = _per_layer(plain, traced)
    else:
        units = END_TO_END_UNITS
        metrics = _end_to_end(workload, plain)
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items() if name in metrics}
    for name, item in report.items():
        print(f"  {name} = {item['value']:.6g} {item['unit']}")
    print(f"  failed_ratio = {session.failed}/{session.attempted} "
          f"= {session.failed / session.attempted:.6g} ratio")
    correct = session.failed == 0 and len(report) == len(units)
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
