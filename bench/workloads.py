"""The benchmark's workloads and the checks on their outputs.

Every workload is one ``cloudmimo`` CLI call.  Its output directory is
checked for the expected ``results.csv`` shape with finite values, for
agreement between ``results.csv`` and the manifest summary, and for
agreement of that summary with reference values recorded from the seed
commit (``reference.json``, made by ``record_reference.py``).
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The benchmark seed selects one of this many CLI master seeds, each with
# recorded reference summaries.
REFERENCE_SEEDS = 32

# Relative tolerance of the reference comparison: tight, but it admits the
# ~4e-14 floating-point reorder noise a batched trial kernel is expected to
# introduce.
RTOL = 1e-9

RWC = (0.0, 0.4, 0.8)
CORRELATION_GRID = tuple(float(d) for d in range(2000, 30001, 2000))
PHASE_BINS = 101


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    profile: str
    trials: int            # --trials
    threads: int           # --threads of the timed runs
    sweep_points: int      # points of the sweep that each run ``trials``
    flags: tuple = ()      # further CLI flags
    overrides: tuple = ()  # the same flags as (config key, value) pairs

    @property
    def trials_executed(self) -> int:
        """Monte Carlo trials one CLI call executes."""
        return self.trials * self.sweep_points

    def argv(self, master_seed: int, out: Path, threads: int) -> list[str]:
        return [self.mode, "--profile", self.profile,
                "--seed", str(master_seed), "--trials", str(self.trials),
                *self.flags, "--threads", str(threads), "--out", str(out)]

    def setup_job(self, master_seed: int) -> list:
        """``[mode, profile, flag_overrides, threads]`` for the set-up timer."""
        overrides = {"run.master_seed": master_seed,
                     "run.trials": self.trials, **dict(self.overrides)}
        return [self.mode, self.profile, overrides, self.threads]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="capacity_table3", mode="capacity-cdf", profile="table3",
        trials=2000, threads=1, sweep_points=len(RWC),
        flags=("--rwc", "0,0.4,0.8"),
        overrides=(("run.sweep_rwc", "0,0.4,0.8"),)),
    Workload(
        name="correlation_table4", mode="correlation", profile="table4",
        trials=400, threads=2, sweep_points=12),
    Workload(
        name="phase_compare_table1", mode="phase-compare", profile="table1",
        trials=16000, threads=1, sweep_points=1),
)}


def master_seed(seed: int) -> int:
    """CLI master seed for a benchmark seed."""
    return seed % REFERENCE_SEEDS


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


def _floats(row: list[str], problems: list[str]) -> list[float]:
    try:
        values = [float(v) for v in row]
    except ValueError:
        problems.append(f"non-numeric row {row}")
        return []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite value in row {row}")
    return values


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def summarize(workload: Workload, outdir: Path) -> dict:
    """Mode summary of a finished run, read from its manifest."""
    report = json.loads((outdir / "manifest.json").read_text())["report"]
    if workload.mode == "capacity-cdf":
        return {"median_bps_hz": [p["median_bps_hz"]
                                  for p in report["points"]]}
    if workload.mode == "correlation":
        return {key: report[key]
                for key in ("with_cloud", "without_cloud", "engaged")}
    return {"ks_distance": report["ks_distance"],
            "mean_rad": report["empirical"]["mean_rad"],
            "variance_rad2": report["empirical"]["variance_rad2"]}


def _check_capacity(workload, header, rows, summary, problems) -> None:
    if header != ["sweep", "sweep_value", "capacity_bps_hz"]:
        problems.append(f"unexpected header {header}")
        return
    samples: dict[float, list[float]] = {v: [] for v in RWC}
    for row in rows:
        values = _floats(row[1:], problems) if len(row) == 3 else []
        if not values or row[0] != "rwc" or values[0] not in samples:
            problems.append(f"unexpected row {row}")
            return
        samples[values[0]].append(values[1])
    medians = []
    for value, caps in samples.items():
        if len(caps) != workload.trials or caps != sorted(caps):
            problems.append(f"rwc={value}: {len(caps)} samples, sorted "
                            f"{caps == sorted(caps)}")
            return
        # nearest-rank lower median, the manifest's convention
        medians.append(caps[math.ceil(0.5 * len(caps)) - 1])
    if medians != summary["median_bps_hz"]:
        problems.append(f"results.csv medians {medians} differ from the "
                        f"manifest's {summary['median_bps_hz']}")


def _check_correlation(workload, header, rows, summary, problems) -> None:
    if header != ["distance_m", "corr_cloud", "corr_clear"]:
        problems.append(f"unexpected header {header}")
        return
    table = [_floats(row, problems) for row in rows]
    if any(len(r) != 3 for r in table):
        problems.append("rows without three values")
        return
    if tuple(r[0] for r in table) != CORRELATION_GRID:
        problems.append(f"distances {[r[0] for r in table]}")
    if any(not 0.0 <= v <= 1.0 + 1e-12 for r in table for v in r[1:]):
        problems.append("correlation outside [0, 1]")
    if [r[1] for r in table] != summary["with_cloud"] \
            or [r[2] for r in table] != summary["without_cloud"]:
        problems.append("results.csv differs from the manifest summary")
    if sum(summary["engaged"]) != workload.sweep_points:
        problems.append(f"{sum(summary['engaged'])} engaged grid points, "
                        f"expected {workload.sweep_points}")


def _check_phase(workload, header, rows, summary, problems) -> None:
    if header != ["phi_rad", "empirical_density", "analytic_density"]:
        problems.append(f"unexpected header {header}")
        return
    table = [_floats(row, problems) for row in rows]
    if len(table) != PHASE_BINS or any(len(r) != 3 for r in table):
        problems.append("histogram rows malformed")
        return
    width = (table[-1][0] - table[0][0]) / (PHASE_BINS - 1)
    mass = sum(r[1] for r in table) * width
    if not abs(mass - 1.0) < 1e-6:
        problems.append(f"empirical density integrates to {mass}")
    if not 0.0 <= summary["ks_distance"] <= 1.0:
        problems.append(f"KS distance {summary['ks_distance']}")


_CHECKS = {"capacity-cdf": _check_capacity, "correlation": _check_correlation,
           "phase-compare": _check_phase}

_ROWS = {"capacity-cdf": lambda w: w.trials * len(RWC),
         "correlation": lambda w: len(CORRELATION_GRID),
         "phase-compare": lambda w: PHASE_BINS}


def check_output(workload: Workload, outdir: Path, seed: int | None,
                 reference: dict | None) -> list[str]:
    """Problems found in a run's output directory; empty when it is right.

    ``reference`` maps master seeds to recorded summaries; with None (runs
    with other trial counts than the workload's) only the shape, the
    finiteness and the CSV/manifest agreement are checked.
    """
    problems: list[str] = []
    try:
        header, rows = _read_csv(outdir / "results.csv")
        summary = summarize(workload, outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    expected = _ROWS[workload.mode](workload)
    if len(rows) != expected:
        return [f"results.csv has {len(rows)} rows, expected {expected}"]
    _CHECKS[workload.mode](workload, header, rows, summary, problems)
    if reference is not None:
        recorded = reference.get(str(seed))
        if recorded is None:
            problems.append(f"no reference summary for master seed {seed}")
        else:
            for key, want in recorded.items():
                got = summary[key]
                pairs = zip(got, want) if isinstance(want, list) \
                    else [(got, want)]
                if (isinstance(want, list) and len(got) != len(want)) \
                        or not all(_close(g, w) for g, w in pairs):
                    problems.append(f"{key} = {got}, reference {want}")
    return problems
