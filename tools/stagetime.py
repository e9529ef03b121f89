"""Split of the trial kernel's time by stage on the benchmark workloads.

    python3 tools/stagetime.py [--src DIR] [--calls N] [WORKLOAD ...]

Each workload runs in a fresh interpreter that imports ``cloudmimo.cli``
from ``DIR`` (default: ``src/`` of this checkout) and makes ``N + 1`` calls
of the workload's command line at master seed 31; the first call is a
warm-up.  Functions are wrapped from outside the package, at the names the
kernel and the modes look them up under.  Each call's time in
``trial_kernel``, and in the metrics the modes apply to its phases, is
split into:

- ``stream_reset``: taking each trial's generator from ``trial_streams``,
  the per-chunk seed arithmetic included;
- ``field_draw``: the rest of ``draw_fields``, which draws each block's
  fields, concatenates them into rows and scales the centre rows to
  metres;
- ``chord_lengths``: ``phasephysics.chord_lengths``;
- ``phase_count_sums``: the rest of ``block_phases``;
- ``scale``: the rest of ``trial_kernel``: its own loop over blocks, and
  the writes ``C * P`` of each content bound C's phases from the
  unit-content phases P that ``block_phases`` returns for all the rays
  of a block at once;
- ``metric``: the channel metrics, ``experiment._capacity`` and
  ``experiment._coherence``, which the modes apply after the kernel to
  its phases (and to clear sky, which includes every zero content bound).

Prints one JSON line per workload with the median over the timed calls of
each stage, in ms per call, and of ``kernel``, the traced
``trial_kernel``, which does not contain ``metric``.  ``untraced_kernel``
is the median of as many calls of the same command line (made first) with
only ``trial_kernel`` itself timed, so the difference is the other
wrappers' own cost within the kernel.  The workloads
and their command lines are those of ``bench/workloads.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, master_seed  # noqa: E402

SEED = 31
STAGES = ("stream_reset", "field_draw", "scale", "chord_lengths",
          "phase_count_sums", "metric")


class _Clock:
    """Nanoseconds spent per stage since the last ``take``."""

    def __init__(self):
        self.spent = defaultdict(int)

    def timed(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter_ns() - start
        return wrapper

    def timed_iter(self, stage: str, iterator):
        step = self.timed(stage, iterator.__next__)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def take(self) -> dict:
        spent, self.spent = self.spent, defaultdict(int)
        return spent


def _install(clock: _Clock) -> None:
    from cloudmimo import experiment, phasephysics
    streams = experiment.trial_streams
    experiment.trial_kernel = clock.timed("kernel", experiment.trial_kernel)
    experiment._capacity = clock.timed("metric", experiment._capacity)
    experiment._coherence = clock.timed("metric", experiment._coherence)
    experiment.trial_streams = lambda *args: clock.timed_iter(
        "stream_reset", streams(*args))
    experiment.draw_fields = clock.timed("draw_fields",
                                         experiment.draw_fields)
    experiment.block_phases = clock.timed(
        "block_phases", experiment.block_phases)
    phasephysics.chord_lengths = clock.timed(
        "chord_lengths", phasephysics.chord_lengths)


def _split(spent: dict) -> dict:
    ms = {stage: ns / 1e6 for stage, ns in spent.items()}
    out = {stage: ms.get(stage, 0.0) for stage in STAGES}
    # draw_fields takes the generators, so it contains the stream resets.
    out["field_draw"] = ms.get("draw_fields", 0.0) - out["stream_reset"]
    out["phase_count_sums"] = (ms.get("block_phases", 0.0)
                               - out["chord_lengths"])
    out["scale"] = ms.get("kernel", 0.0) - sum(
        out[stage] for stage in STAGES if stage not in ("scale", "metric"))
    out["kernel"] = ms.get("kernel", 0.0)
    return out


def _measure(src: str, name: str, calls: int) -> dict:
    sys.path.insert(0, src)
    from cloudmimo import cli, experiment
    workload = WORKLOADS[name]
    untraced, splits = [], []
    clock = _Clock()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        def call(i: int) -> None:
            argv = workload.argv(master_seed(SEED), Path(tmp) / str(i),
                                 workload.threads)
            if cli.main(argv) != 0:
                raise SystemExit(f"{name}: the CLI call failed")

        kernel = experiment.trial_kernel
        experiment.trial_kernel = clock.timed("kernel", kernel)
        for i in range(calls + 1):
            call(i)
            untraced.append(clock.take()["kernel"] / 1e6)
        experiment.trial_kernel = kernel
        _install(clock)
        for i in range(calls + 1):
            call(i)
            splits.append(_split(clock.take()))
    row = {"workload": name, "src": src, "calls": calls,
           "untraced_kernel": statistics.median(untraced[1:])}
    for stage in (*STAGES, "kernel"):
        row[stage] = statistics.median(s[stage] for s in splits[1:])
    return row


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
