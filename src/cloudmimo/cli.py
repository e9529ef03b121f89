"""Command line interface.

Runs are configured by the flat dotted keys of
:data:`cloudmimo.experiment.CONFIG_SCHEMA` (for example ``cloud.lambda_s``)
coming from, in order of increasing precedence: a named profile, a config
file, ``CLOUDMIMO_``-prefixed environment variables, repeated ``--set``
overrides, and dedicated flags.  A run's ``manifest.json`` is itself a valid
config file, so any run can be reproduced from its manifest alone.

Every mode runs the same way: the CLI builds its subcommands from
:data:`cloudmimo.experiment.MODES`, times the mode's runner, writes the
CSV and ``manifest.json`` the runner's output describes, and prints where
they went followed by the runner's summary lines.

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
                         parse_config_value, spec_from_flat, spec_to_flat)
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
               "run.distance_grid_m": MODES["correlation"].grid},
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

def _coerce(key: str, value, problems: list[str]):
    try:
        return parse_config_value(key, value)
    except (TypeError, ValueError) as exc:
        problems.append(f"{key}: {exc}")
        return None


def _parse_config_text(text: str, source: str, problems: list[str]) -> dict:
    """Flat ``key = value`` lines, or a manifest/config JSON object."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.append(f"{source}: invalid JSON ({exc})")
            return {}
        if "config" in data and isinstance(data["config"], dict):
            # Manifests from before numerics was recorded are version 1.
            numerics = data.get("numerics", 1)
            if numerics != NUMERICS_VERSION:
                print(f"note: {source} was recorded under numerics "
                      f"{numerics}; cloudmimo {__version__} runs numerics "
                      f"{NUMERICS_VERSION}, so its results may differ from "
                      f"the recorded ones", file=sys.stderr)
            data = data["config"]
        return dict(data)
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
    return out


def _env_overrides(environ) -> dict:
    out = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        out[key] = value
    return out


def parse_distance(text: str) -> float:
    """Distance in metres from a plain number or a km-suffixed string."""
    text = str(text).strip().lower()
    if text.endswith("km"):
        return float(text[:-2]) * 1000.0
    if text.endswith("m"):
        return float(text[:-1])
    return float(text)


def assemble_config(mode: str, profile: str | None, config_path: str | None,
                    set_overrides: list[str], flag_overrides: dict,
                    environ=None) -> tuple[dict, set]:
    """Merge all config sources and validate every key.

    Returns the fully validated flat mapping plus the set of keys that the
    user pinned explicitly (everything beyond the profile defaults).

    Raises
    ------
    ConfigurationError
        Listing every problem found, not just the first.
    """
    problems: list[str] = []
    merged: dict = {}
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigurationError(
                f"unknown profile {profile!r}; available: "
                f"{', '.join(sorted(PROFILES))}")
        merged.update({**_PROFILE_BASE, **PROFILES[profile]})
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
        apply(str(path), _parse_config_text(path.read_text(), str(path),
                                            problems))
    apply("environment", _env_overrides(
        environ if environ is not None else os.environ))
    for item in set_overrides:
        if "=" not in item:
            problems.append(f"--set needs key=value, got {item!r}")
            continue
        key, _, value = item.partition("=")
        apply("--set", {key.strip(): value.strip()})
    apply("flags", flag_overrides)

    merged["run.mode"] = mode
    defaults = MODES[mode]
    if "run.trials" not in explicit and defaults.trials is not None:
        merged["run.trials"] = defaults.trials
    if defaults.grid is not None and merged.get("run.distance_grid_m") \
            is None:
        merged["run.distance_grid_m"] = defaults.grid

    missing = [key for key in REQUIRED_KEYS if key not in merged]
    if missing:
        problems.append(
            "missing required keys (supply a --profile or a config file): "
            + ", ".join(sorted(missing)))
    out = {}
    for key, value in merged.items():
        out[key] = _coerce(key, value, problems)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return out, explicit


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
    # Every mode takes the same options, declared once.
    common = _Parser(add_help=False)
    common.add_argument("--profile", choices=sorted(PROFILES),
                        help="named parameter profile")
    common.add_argument("--config", help="config file or manifest.json")
    common.add_argument("--out", default=None,
                        help="output directory (default cloudmimo-runs/MODE)")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--trials", type=int, help="Monte Carlo trials")
    common.add_argument("--distance",
                        help="link distance, e.g. 40km or 40000")
    common.add_argument("--rwc",
                        help="relative water content sweep, e.g. 0,0.4,0.8")
    common.add_argument("--thickness", help="layer thickness sweep in m")
    common.add_argument("--grid", help="distance grid in m, comma separated")
    common.add_argument("--dt", type=float, help="drift interval in s")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; runs are "
                             "single-threaded and it changes nothing")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="set_overrides",
                        help="override any config key")
    sub = parser.add_subparsers(dest="mode", metavar="MODE")
    for mode, facts in MODES.items():
        sub.add_parser(mode, help=facts.help_text,
                       description=facts.help_text, parents=[common])
    return parser


# Each dedicated flag and the config key it sets.
_FLAG_KEYS = {"seed": "run.master_seed", "trials": "run.trials",
              "distance": "link.distance_m", "rwc": "run.sweep_rwc",
              "thickness": "run.sweep_thickness_m",
              "grid": "run.distance_grid_m", "dt": "run.dt_s"}


def _flag_overrides(args) -> dict:
    out = {key: getattr(args, flag) for flag, key in _FLAG_KEYS.items()
           if getattr(args, flag) is not None}
    if "link.distance_m" in out:
        try:
            out["link.distance_m"] = parse_distance(out["link.distance_m"])
        except ValueError:
            raise ConfigurationError(
                f"--distance: {args.distance!r} is not a distance, e.g. "
                f"40km or 40000") from None
    return out


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
        args = parser.parse_args(argv)
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
