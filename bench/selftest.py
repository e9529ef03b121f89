"""Self-test of the benchmark's own code: every check must be able to fail.

    python3 bench/selftest.py

Runs in about a minute and exits non-zero on the first failed check.  The
file name keeps it out of the repository's ``pytest`` collection on
purpose: it runs the CLI many times and is not part of the tier-1 suite.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import layertrace
from run import END_TO_END_UNITS, HERE, ROOT, SRC, WORK, Session
from workloads import WORKLOADS, check_output, summarize

TINY_TRIALS = {"capacity_table3": 20, "correlation_table4": 5,
               "phase_compare_table1": 200}


def _tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], trials=TINY_TRIALS[name])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(message)


def smoke_runs(work) -> None:
    """Each workload at a few trials: checked run plus replay pass."""
    for name in WORKLOADS:
        session = Session(_tiny(name), 7, work / name, None)
        result, first = session.operation(keep=True)
        session.replay(first)
        _expect(result is not None and session.failed == 0,
                f"{name}: {session.problems}")
        _expect(result["wall_s"] > 0 and result["setup_s"] > 0
                and result["peak_rss_mb"] > 0, f"{name}: {result}")


def corrupted_outputs_fail(work) -> None:
    """Damaged results.csv or summaries are flagged; reorder noise is not."""
    workload = _tiny("capacity_table3")
    session = Session(workload, 3, work / "corrupt", None)
    _, out = session.operation(keep=True)
    csv_path = out / "results.csv"
    good = csv_path.read_text()
    lines = good.splitlines(keepends=True)
    median_line = 1 + math.ceil(0.5 * workload.trials) - 1
    sweep, value, cap = lines[median_line].strip().split(",")
    damaged = {
        "missing row": "".join(lines[:-1]),
        "non-finite value": "".join(lines[:2]) + "rwc,0.0,nan\n"
                            + "".join(lines[3:]),
        "changed median": "".join(lines[:median_line])
                          + f"{sweep},{value},{float(cap) * (1 + 1e-6)!r}\n"
                          + "".join(lines[median_line + 1:]),
        "wrong header": "a,b,c\n" + "".join(lines[1:]),
    }
    _expect(check_output(workload, out, 3, None) == [], "clean output flagged")
    for label, text in damaged.items():
        csv_path.write_text(text)
        _expect(check_output(workload, out, 3, None) != [],
                f"{label} not flagged")
    csv_path.write_text(good)

    summary = summarize(workload, out)
    medians = summary["median_bps_hz"]
    noisy = [m * (1 + 4e-14) for m in medians]
    off = [medians[0] * (1 + 1e-8)] + medians[1:]
    _expect(check_output(workload, out, 3,
                         {"3": {"median_bps_hz": noisy}}) == [],
            "reorder noise of 4e-14 flagged")
    _expect(check_output(workload, out, 3,
                         {"3": {"median_bps_hz": off}}) != [],
            "a 1e-8 change of a median not flagged")
    _expect(check_output(workload, out, 4, {"3": summary}) != [],
            "a seed without reference not flagged")

    # A corrupted results.csv counts as a failed operation: the replay no
    # longer reproduces it byte for byte.
    csv_path.write_text(good.replace("\n", "\r\n"))
    before = session.failed
    session.replay(out)
    _expect(session.failed == before + 1, "byte mismatch not counted")


def absent_layers_reported(work) -> None:
    """A missing or uncalled layer is reported absent, not a crash."""
    sys.path.insert(0, str(SRC))
    from cloudmimo import cli
    layers = layertrace.LAYERS
    layertrace.LAYERS = layers + (
        ("ghost.function", "cloudmimo.experiment", "no_such_function"),
        ("ghost.module", "cloudmimo.no_such_module", "anything"))
    try:
        tracer = layertrace.Tracer()
        out = work / "absent"
        with tracer.installed("phase-compare"):
            rc = cli.main(_tiny("phase_compare_table1").argv(0, out, 1))
        metrics = tracer.metrics(TINY_TRIALS["phase_compare_table1"], 0)
    finally:
        layertrace.LAYERS = layers
    _expect(rc == 0, f"traced CLI call exited {rc}")
    for layer in ("ghost.function", "ghost.module",
                  "mimochannel.los_channel", "mimochannel.capacity_bits"):
        _expect(layer in tracer.absent, f"{layer} not reported absent")
    _expect(metrics["mimochannel.los_channel.us"] == 0.0
            and metrics["cloudfield.generate_field.us"] > 0.0, str(metrics))
    _expect(not any(hasattr(fn, "__wrapped__") for fn in (
        cli._write_run, cli._RUNNERS["phase-compare"],
        sys.modules["cloudmimo.experiment"].generate_field)),
        "wrappers were not removed")


def metrics_print_with_units() -> None:
    """Every declared metric prints by name with its unit, in both modes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "phase_compare_table1", "--seed", "0", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        _expect(proc.returncode == 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        _expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] and result["failed"] == 0, lines[-1])
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        _expect(got == want, f"trace {trace}: {got} != {want}")
        for name, unit in want.items():
            _expect(any(line.strip().startswith(f"{name} = ")
                        and line.endswith(f" {unit}") for line in lines),
                    f"{name} not printed with {unit}")
        _expect(any(line.strip().startswith("failed_ratio = ")
                    for line in lines), "failed_ratio not printed")
    _expect(set(END_TO_END_UNITS) == {m["name"] for m in
                                      declared["end_to_end"]},
            "end-to-end metrics differ from BENCHMARK.json")


def main() -> int:
    work = WORK / "selftest"
    checks = (("smoke runs", lambda: smoke_runs(work)),
              ("corrupted outputs fail", lambda: corrupted_outputs_fail(work)),
              ("absent layers reported", lambda: absent_layers_reported(work)),
              ("metrics print with units", metrics_print_with_units))
    try:
        for label, check in checks:
            check()
            print(f"PASS {label}")
    except RuntimeError as exc:
        print(f"FAIL {label}: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
