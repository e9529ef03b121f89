"""Span tracing of cloudmimo's layers, installed from outside the package.

Each layer is a public function wrapped at the name its caller looks it up
under (``cloudmimo.experiment.generate_field``, not
``cloudmimo.cloudfield.generate_field``), so the program itself carries no
tracing code.  Spans are kept in memory with their parent and written out
when the run ends.

A layer whose function no longer exists, or is never called, is reported
as absent: a refactor such as a batched kernel replacing ``path_phase``
must not make the traced run crash.  Its metrics then read 0.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (layer, module the caller looks the name up in, attribute).  The runner is
# looked up in the CLI's mode table, so its attribute is filled in per mode.
LAYERS = (
    ("experiment.trial_seed", "cloudmimo.experiment", "trial_seed"),
    ("cloudfield.generate_field", "cloudmimo.experiment", "generate_field"),
    ("raygeometry.map_rays_to_field", "cloudmimo.experiment",
     "map_rays_to_field"),
    ("phasephysics.path_phase", "cloudmimo.experiment", "path_phase"),
    ("raygeometry.chord_lengths", "cloudmimo.phasephysics", "chord_lengths"),
    ("mimochannel.los_channel", "cloudmimo.experiment", "los_channel"),
    ("mimochannel.capacity_bits", "cloudmimo.experiment", "capacity_bits"),
    ("mimochannel.subchannel_correlation", "cloudmimo.experiment",
     "subchannel_correlation"),
    ("analyticmodel.stationary_distribution", "cloudmimo.experiment",
     "stationary_distribution"),
    ("experiment.runner", "cloudmimo.cli", "_RUNNERS[{mode}]"),
    ("experiment.results_csv_text", "cloudmimo.cli", "results_csv_text"),
    ("cli.write_run", "cloudmimo.cli", "_write_run"),
)

# Per-layer metrics: name -> unit.  ``.us`` metrics are microseconds per
# Monte Carlo trial, ``.s`` metrics seconds per CLI call.
METRIC_UNITS = {
    "experiment.trial_seed.us": "us/trial",
    "cloudfield.generate_field.us": "us/trial",
    "cloudfield.cloudlets_per_field": "count",
    "cloudfield.field_reuse_ratio": "ratio",
    "raygeometry.chord_lengths.us": "us/trial",
    "raygeometry.chord_lengths.calls": "calls/trial",
    "raygeometry.chord_hit_ratio": "ratio",
    "phasephysics.path_phase.self_us": "us/trial",
    "raygeometry.map_rays_to_field.us": "us/trial",
    "mimochannel.los_channel.us": "us/trial",
    "mimochannel.capacity_bits.us": "us/trial",
    "mimochannel.subchannel_correlation.us": "us/trial",
    "experiment.runner.self_s": "s",
    "experiment.results_csv_text.s": "s",
    "cli.write_run.s": "s",
    "cli.write_run.bytes": "bytes",
    "analyticmodel.stationary_distribution.s": "s",
    "analyticmodel.validity_warnings": "count",
    "trace.overhead_ratio": "ratio",
}


class _Target:
    """A name in a module namespace, or an entry of a dict held there."""

    def __init__(self, module: str, attribute: str):
        self.module = module
        self.attribute, _, key = attribute.partition("[")
        self.key = key.rstrip("]") or None

    def _holder(self):
        try:
            module = importlib.import_module(self.module)
        except ImportError:
            return None, None
        if self.key is None:
            return vars(module), self.attribute
        table = getattr(module, self.attribute, None)
        return (table, self.key) if isinstance(table, dict) else (None, None)

    def get(self):
        holder, name = self._holder()
        return None if holder is None else holder.get(name)

    def set(self, value) -> None:
        holder, name = self._holder()
        holder[name] = value


class Tracer:
    """Collects spans ``(id, parent, layer, thread, start_ns, end_ns)``.

    A span's parent is the innermost span open in the same thread; spans
    opened in a worker thread with none open take the innermost span of the
    thread that installed the tracer, which is the runner waiting on them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.cloudlets = 0
        self.fields: set = set()
        self.chord_pairs = 0
        self.chord_hits = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._originals: list[tuple[_Target, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        observe = {"cloudfield.generate_field": self._observe_field,
                   "raygeometry.chord_lengths": self._observe_chords
                   }.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, layer,
                                   threading.get_ident(), start, end))
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _observe_field(self, args, field) -> None:
        self.cloudlets += int(getattr(field, "count", 0))
        if args:
            try:
                self.fields.add(args[0])
            except TypeError:   # an unhashable config
                self.fields.add(repr(args[0]))

    def _observe_chords(self, args, chords) -> None:
        self.chord_pairs += int(chords.size)
        self.chord_hits += int((chords > 0.0).sum())

    @contextlib.contextmanager
    def installed(self, mode: str):
        """Wrap every layer that exists for ``mode``; restore on exit."""
        self._local.stack = self._main_stack
        for layer, module, attribute in LAYERS:
            target = _Target(module, attribute.format(mode=mode))
            fn = target.get()
            if not callable(fn):
                self.absent.append(layer)
                continue
            self._originals.append((target, fn))
            target.set(self._wrap(layer, fn))
        try:
            yield self
        finally:
            for target, fn in reversed(self._originals):
                target.set(fn)
            self._originals.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["id", "parent", "layer",
                                             "thread", "start_ns",
                                             "end_ns"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def metrics(self, trials: int, warnings_seen: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for ``trials`` trials.

        ``cli.write_run.bytes`` and ``trace.overhead_ratio`` are not span
        measurements and are left to the caller.
        """
        by_layer = defaultdict(list)
        for span in self.spans:
            by_layer[span[2]].append(span)
        for layer, _, _ in LAYERS:
            if not by_layer[layer] and layer not in self.absent:
                self.absent.append(layer)

        def total_s(layer: str) -> float:
            return sum(s[5] - s[4] for s in by_layer[layer]) / 1e9

        def us_per_trial(layer: str) -> float:
            return total_s(layer) / trials * 1e6

        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)

        def self_s(layer: str) -> float:
            # duration minus the part of the interval its children cover
            out = 0.0
            for span in by_layer[layer]:
                covered, reach = 0, span[4]
                for child in sorted(children[span[0]], key=lambda s: s[4]):
                    lo, hi = max(child[4], reach), min(child[5], span[5])
                    if hi > lo:
                        covered += hi - lo
                        reach = hi
                out += (span[5] - span[4] - covered) / 1e9
            return out

        calls = len(by_layer["raygeometry.chord_lengths"])
        fields = len(by_layer["cloudfield.generate_field"])
        return {
            "experiment.trial_seed.us": us_per_trial("experiment.trial_seed"),
            "cloudfield.generate_field.us":
                us_per_trial("cloudfield.generate_field"),
            "cloudfield.cloudlets_per_field":
                self.cloudlets / fields if fields else 0.0,
            "cloudfield.field_reuse_ratio":
                len(self.fields) / fields if fields else 0.0,
            "raygeometry.chord_lengths.us":
                us_per_trial("raygeometry.chord_lengths"),
            "raygeometry.chord_lengths.calls": calls / trials,
            "raygeometry.chord_hit_ratio":
                self.chord_hits / self.chord_pairs if self.chord_pairs
                else 0.0,
            "phasephysics.path_phase.self_us":
                self_s("phasephysics.path_phase") / trials * 1e6,
            "raygeometry.map_rays_to_field.us":
                us_per_trial("raygeometry.map_rays_to_field"),
            "mimochannel.los_channel.us":
                us_per_trial("mimochannel.los_channel"),
            "mimochannel.capacity_bits.us":
                us_per_trial("mimochannel.capacity_bits"),
            "mimochannel.subchannel_correlation.us":
                us_per_trial("mimochannel.subchannel_correlation"),
            "experiment.runner.self_s": self_s("experiment.runner"),
            "experiment.results_csv_text.s":
                total_s("experiment.results_csv_text"),
            "cli.write_run.s": total_s("cli.write_run"),
            "analyticmodel.stationary_distribution.s":
                total_s("analyticmodel.stationary_distribution"),
            "analyticmodel.validity_warnings": float(warnings_seen),
        }
