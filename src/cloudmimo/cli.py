"""Command line interface.

Runs are configured by the flat dotted keys of
:data:`cloudmimo.experiment.CONFIG_SCHEMA` (for example ``cloud.lambda_s``)
coming from, in order of increasing precedence: the profile base, the
mode's defaults, a named profile, a config file, ``CLOUDMIMO_``-prefixed
environment variables, repeated ``--set`` overrides, and dedicated flags,
each read exactly as its ``--set KEY=TEXT`` form: ``parse_config_value`` is
the one parser every source reaches.  A run's ``manifest.json`` is itself a
valid config file, so any run can be reproduced from its manifest alone.

Every mode runs the same way: the CLI builds its subcommands from
:data:`cloudmimo.experiment.MODES`, each with the shared options plus the
dedicated flags its row lists, times the mode's runner, writes the CSV and
``manifest.json`` the runner's output describes, and prints where they
went followed by the runner's summary lines.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .cloudfield import CloudConfig
from .errors import ConfigurationError
from .experiment import (CONFIG_SCHEMA, MODES, NUMERICS_VERSION,
                         ExperimentSpec, RunOutput, build_manifest,
                         parse_config, spec_from_flat, spec_to_flat)
from .mimochannel import MimoScenario
from .phasephysics import PhysicsParams

ENV_PREFIX = "CLOUDMIMO_"

# Keys that must be present after profile/config/override merging; the
# optional sweeps and the mode (set by the subcommand) are excluded.
REQUIRED_KEYS = tuple(key for key, (kind, *_) in CONFIG_SCHEMA.items()
                      if kind != "float_list" and key != "run.mode")

# Every profile extends the all-default spec's flat config.
_PROFILE_BASE = spec_to_flat(ExperimentSpec(MimoScenario(), CloudConfig(),
                                            PhysicsParams()))

PROFILES = {
    # Measured-link configuration: the shallow elevation needs a wider
    # cross-section for the slanted path to fit.
    "table1": {"cloud.width_w": 100.0,
               "link.elevation_deg": 85.14,
               "link.distance_m": 20000.0},
    # Capacity benchmark, the defaults: 20 m cross-section with a vertical
    # link so the in-layer path fits the rectangle.
    "table3": {},
    # Correlation sweep: closer receive spacing, distance grid to 30 km.
    "table4": {"mimo.rx_spacing_m": 5.0,
               "link.distance_m": 30000.0,
               **MODES["correlation"].defaults},
}


# Each dedicated flag: the config key it sets and its help text.  The text
# is passed on unconverted, so a flag reads exactly like its --set form.
_FLAGS = {
    "seed": ("run.master_seed", "master seed"),
    "trials": ("run.trials", "Monte Carlo trials"),
    "distance": ("link.distance_m", "link distance, e.g. 40km or 40000"),
    "rwc": ("run.sweep_rwc", "relative water content sweep, e.g. 0,0.4,0.8"),
    "thickness": ("run.sweep_thickness_m", "layer thickness sweep in m"),
    "grid": ("run.distance_grid_m", "distance grid in m, comma separated"),
    "dt": ("run.dt_s", "drift interval in s"),
}


class _CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the cli's
    # own code instead (1 = configuration problem) and keep the usage text.
    def error(self, message):
        raise _CliUsageError(f"{self.format_usage()}error: {message}")


# ============================================================
# Config assembly
# ============================================================

def _parse_config_text(text: str, source: str, problems: list) -> tuple:
    """Flat ``key = value`` lines, or a manifest/config JSON object, and
    the keys a manifest records as assumed defaults."""
    stripped, assumed = text.lstrip(), ()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.append(f"{source}: invalid JSON ({exc})")
            return {}, ()
        if "config" in data and isinstance(data["config"], dict):
            # Manifests from before numerics was recorded are version 1.
            numerics = data.get("numerics", 1)
            if numerics != NUMERICS_VERSION:
                print(f"note: {source} was recorded under numerics "
                      f"{numerics}; cloudmimo {__version__} runs numerics "
                      f"{NUMERICS_VERSION}, so its results may differ from "
                      f"the recorded ones", file=sys.stderr)
            data, assumed = data["config"], data.get("assumed_defaults", ())
        return dict(data), tuple(assumed)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out, ()


def _env_overrides() -> dict:
    return {name[len(ENV_PREFIX):].lower().replace("__", "."): value
            for name, value in os.environ.items()
            if name.startswith(ENV_PREFIX)}


def assemble_config(mode: str, profile: str | None, config_path: str | None,
                    set_overrides: list[str],
                    flag_overrides: dict) -> tuple[dict, set]:
    """Merge all config sources and validate every key.

    The layers, each over the one before: the profile base, the mode's
    defaults, the profile, the config file, the environment, ``--set`` and
    the flags; without a profile the merge starts from the mode's defaults.
    Returns the fully validated flat mapping plus the set of keys that the
    user pinned explicitly: those a source above the profile sets, but the
    assumed defaults of a replayed manifest that no later source sets.

    Raises
    ------
    ConfigurationError
        Listing every problem found, not just the first.
    """
    problems: list[str] = []
    merged = dict(MODES[mode].defaults)
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigurationError(
                f"unknown profile {profile!r}; available: "
                f"{', '.join(sorted(PROFILES))}")
        merged = {**_PROFILE_BASE, **merged, **PROFILES[profile]}
    explicit: set = set()

    def apply(source: str, mapping: dict) -> None:
        for key, value in mapping.items():
            if key == "run.threads":
                continue   # execution hint, never part of the run identity
            if key not in CONFIG_SCHEMA:
                problems.append(f"{source}: unknown key {key!r}")
                continue
            merged[key] = value
            explicit.add(key)

    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigurationError(f"config file not found: {path}")
        values, assumed = _parse_config_text(path.read_text(), str(path),
                                             problems)
        apply(str(path), values)
        explicit.difference_update(assumed)
    apply("environment", _env_overrides())
    for item in set_overrides:
        if "=" not in item:
            problems.append(f"--set needs key=value, got {item!r}")
            continue
        key, _, value = item.partition("=")
        apply("--set", {key.strip(): value.strip()})
    apply("flags", flag_overrides)

    merged["run.mode"] = mode
    missing = [key for key in REQUIRED_KEYS if key not in merged]
    if missing:
        problems.append(
            "missing required keys (supply a --profile or a config file): "
            + ", ".join(sorted(missing)))
    return parse_config(merged, problems), explicit


# ============================================================
# Subcommand execution
# ============================================================

def _write_run(outdir: Path, spec: ExperimentSpec, run: RunOutput,
               explicit: set, wall_time: float) -> None:
    manifest = build_manifest(spec, run.report, explicit_keys=explicit,
                              wall_time_s=wall_time)
    # Strict JSON: a NaN or infinity raises, before anything is written,
    # instead of writing a literal that RFC 8259 parsers reject.
    text = json.dumps(manifest, indent=2, allow_nan=False) + "\n"
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / run.csv_name).write_text(run.csv_text)
    (outdir / "manifest.json").write_text(text)


# Each mode's runner, looked up at call time so it can be wrapped.
_RUNNERS = {mode: facts.runner for mode, facts in MODES.items()}


def _run(spec: ExperimentSpec, outdir: Path, explicit: set) -> None:
    start = time.perf_counter()
    run = _RUNNERS[spec.mode](spec)
    _write_run(outdir, spec, run, explicit, time.perf_counter() - start)
    print(f"wrote {outdir / run.csv_name} and {outdir / 'manifest.json'}")
    for line in run.summary:
        print(f"  {line}")


# ============================================================
# Entry point
# ============================================================

@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: each parse_args call fills a fresh
    # Namespace, and the append action copies the --set default before
    # appending to it, so no parse leaves state behind for the next.
    parser = _Parser(prog="cloudmimo",
                     description="Cloud-layer LoS MIMO link simulator")
    parser.add_argument("--version", action="version",
                        version=f"cloudmimo {__version__}")
    # The options every mode takes, declared once; each mode adds its own.
    common = _Parser(add_help=False)
    common.add_argument("--profile", choices=sorted(PROFILES),
                        help="named parameter profile")
    common.add_argument("--config", help="config file or manifest.json")
    common.add_argument("--out", default=None,
                        help="output directory (default cloudmimo-runs/MODE)")
    for flag, (_, help_text) in _FLAGS.items():
        if not any(flag in facts.flags for facts in MODES.values()):
            common.add_argument(f"--{flag}", help=help_text)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and changes "
                             "nothing; a long run splits its trials "
                             "across the CPUs it may use either way")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="set_overrides",
                        help="override any config key")
    sub = parser.add_subparsers(dest="mode", metavar="MODE")
    parser.modes = sub.choices      # each mode's parser, for its errors
    for mode, facts in MODES.items():
        own = sub.add_parser(mode, help=facts.help_text,
                             description=facts.help_text, parents=[common])
        for flag in facts.flags:
            own.add_argument(f"--{flag}", help=_FLAGS[flag][1])
    return parser


def _flag_overrides(args) -> dict:
    # A subcommand's namespace holds only the flags it offers.
    return {key: getattr(args, flag) for flag, (key, _) in _FLAGS.items()
            if getattr(args, flag, None) is not None}


def _one_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    """Run one command line; warnings are shown as ``warning: <message>``.

    Only the display changes: a caller that records warnings, as
    ``warnings.catch_warnings(record=True)`` does, still receives them.
    """
    shown = warnings.formatwarning
    warnings.formatwarning = _one_line
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = shown


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.modes.get(args.mode, parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
    except _CliUsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.mode is None:
        print(parser.format_usage() + "error: a MODE is required",
              file=sys.stderr)
        return 1
    outdir = Path(args.out) if args.out else Path("cloudmimo-runs") / args.mode
    try:
        flat, explicit = assemble_config(
            args.mode, args.profile, args.config, args.set_overrides,
            _flag_overrides(args))
        _run(spec_from_flat(flat), outdir, explicit)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
