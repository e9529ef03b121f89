"""Command line interface.

Runs are configured by the flat dotted keys of
:data:`cloudmimo.experiment.CONFIG_SCHEMA` (for example ``cloud.lambda_s``)
coming from, in order of increasing precedence: a named profile, a config
file, ``CLOUDMIMO_``-prefixed environment variables, repeated ``--set``
overrides, and dedicated flags.  A run's ``manifest.json`` is itself a valid
config file, so any run can be reproduced from its manifest alone.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analyticmodel import (AnalyticParams, stationary_report,
                            time_varying_distribution, total_phase_pdf,
                            laplace_pdf)
from .cloudfield import CloudConfig, generate_field
from .errors import ConfigurationError
from .experiment import (CONFIG_SCHEMA, NUMERICS_VERSION, ExperimentSpec,
                         build_manifest, format_csv, parse_config_value,
                         results_csv_text, run_capacity_cdf,
                         run_compensated_sweep, run_correlation_sweep,
                         run_mac_count, run_phase_compare, run_report,
                         spec_from_flat, spec_to_flat)
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

_CORRELATION_GRID = tuple(float(d) for d in range(2000, 30001, 2000))

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
               "run.distance_grid_m": _CORRELATION_GRID},
}

_MODE_TRIAL_DEFAULTS = {"phase-compare": 100000, "mac-count": 1000}

_MODE_GRID_DEFAULTS = {
    "correlation": _CORRELATION_GRID,
    "compensated": tuple(float(d) for d in range(20000, 40001, 2000)),
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
                      f"{NUMERICS_VERSION}, so its results may differ in the "
                      f"last digits", file=sys.stderr)
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
    if "run.trials" not in explicit and mode in _MODE_TRIAL_DEFAULTS:
        merged["run.trials"] = _MODE_TRIAL_DEFAULTS[mode]
    if mode in _MODE_GRID_DEFAULTS and merged.get("run.distance_grid_m") \
            is None:
        merged["run.distance_grid_m"] = _MODE_GRID_DEFAULTS[mode]

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

def _write_run(outdir: Path, spec: ExperimentSpec, csv_text: str | None,
               report: dict, explicit: set, wall_time: float) -> None:
    manifest = build_manifest(spec, report, explicit_keys=explicit,
                              wall_time_s=wall_time)
    # Strict JSON: a NaN or infinity raises, before anything is written,
    # instead of writing a literal that RFC 8259 parsers reject.
    text = json.dumps(manifest, indent=2, allow_nan=False) + "\n"
    outdir.mkdir(parents=True, exist_ok=True)
    if csv_text is not None:
        (outdir / "results.csv").write_text(csv_text)
    (outdir / "manifest.json").write_text(text)


def _run_field(spec: ExperimentSpec, outdir: Path, explicit: set) -> None:
    start = time.perf_counter()
    field = generate_field(dataclasses.replace(
        spec.cloud, rng_seed=spec.master_seed))
    rows = [(x, y, field.radius, iwc)
            for (x, y), iwc in zip(field.positions, field.iwc)]
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "field.csv").write_text(
        format_csv("x_m,y_m,radius_m,iwc_g_m3", rows))
    report = {"cloudlet_count": field.count,
              "radius_m": field.radius}
    _write_run(outdir, spec, None, report, explicit,
               time.perf_counter() - start)
    print(f"wrote {field.count} cloudlets to {outdir / 'field.csv'}")


def _run_phase_dist(spec: ExperimentSpec, outdir: Path,
                    explicit: set) -> None:
    start = time.perf_counter()
    params = AnalyticParams(spec.cloud, spec.physics)
    report = stationary_report(params, dt=spec.dt)
    dist = time_varying_distribution(params, spec.dt)
    if dist.total_variance > 0.0:
        span = 8.0 * math.sqrt(dist.total_variance)
        grid = np.linspace(dist.phi0 - span, dist.phi0 + span, 501)
        total = np.asarray(total_phase_pdf(grid, dist))
        if dist.sigma_c2 > 0.0:
            stationary = np.asarray(laplace_pdf(grid, dist))
        else:
            stationary = np.zeros_like(grid)
        rows = [(float(p), float(s), float(t)) for p, s, t in
                zip(grid, stationary, total)]
        csv_text = format_csv("phi_rad,pdf_stationary,pdf_total", rows)
    else:
        report["warnings"] = report.get("warnings", []) + [
            "all variances are zero: the phase is a point mass at phi0 "
            "and no density grid is written"]
        csv_text = "phi_rad,pdf_stationary,pdf_total\n"
    _write_run(outdir, spec, csv_text, report, explicit,
               time.perf_counter() - start)
    phi0 = report["truncated_sum"]["phi0_rad"]
    sig2 = report["truncated_sum"]["sigma_c2_rad2"]
    print(f"phi0 = {phi0:.6e} rad, sigma_c2 = {sig2:.6e} rad^2 "
          f"(truncated sum); see {outdir / 'manifest.json'}")


_RUNNERS = {
    "capacity-cdf": run_capacity_cdf,
    "correlation": run_correlation_sweep,
    "compensated": run_compensated_sweep,
    "phase-compare": run_phase_compare,
    "mac-count": run_mac_count,
}


def _run_experiment(spec: ExperimentSpec, outdir: Path,
                    explicit: set) -> None:
    start = time.perf_counter()
    result = _RUNNERS[spec.mode](spec)
    csv_text = results_csv_text(spec, result)
    report = run_report(spec, result)
    _write_run(outdir, spec, csv_text, report, explicit,
               time.perf_counter() - start)
    print(f"wrote {outdir / 'results.csv'} and {outdir / 'manifest.json'}")
    if spec.mode == "capacity-cdf":
        for item in report["points"]:
            print(f"  {item['parameter']}={item['value']:g}: median "
                  f"{item['median_bps_hz']:.4f} bit/s/Hz")
    elif spec.mode == "mac-count":
        print(f"  average {report['average_mac_per_round']:.1f} MAC/round "
              f"(reference {report['reference_mac_per_round']})")


# ============================================================
# Entry point
# ============================================================

def _build_parser() -> _Parser:
    parser = _Parser(prog="cloudmimo",
                     description="Cloud-layer LoS MIMO link simulator")
    parser.add_argument("--version", action="version",
                        version=f"cloudmimo {__version__}")
    sub = parser.add_subparsers(dest="mode", metavar="MODE")
    descriptions = {
        "field": "generate one cloud field realization",
        "phase-dist": "analytic phase distribution report and density grid",
        "capacity-cdf": "per-trial capacity CDF, optionally swept",
        "correlation": "sub-channel correlation over a distance grid",
        "compensated": "median compensated capacity over a distance grid",
        "phase-compare": "Monte Carlo vs analytic single-ray phase",
        "mac-count": "average per-round operation count",
    }
    for mode, help_text in descriptions.items():
        p = sub.add_parser(mode, help=help_text, description=help_text)
        p.add_argument("--profile", choices=sorted(PROFILES),
                       help="named parameter profile")
        p.add_argument("--config", help="config file or manifest.json")
        p.add_argument("--out", default=None,
                       help="output directory (default cloudmimo-runs/MODE)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--trials", type=int, help="Monte Carlo trials")
        p.add_argument("--distance", help="link distance, e.g. 40km or 40000")
        p.add_argument("--rwc", help="relative water content sweep, e.g. 0,0.4,0.8")
        p.add_argument("--thickness", help="layer thickness sweep in m")
        p.add_argument("--grid", help="distance grid in m, comma separated")
        p.add_argument("--dt", type=float, help="drift interval in s")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; runs are "
                            "single-threaded and it changes nothing")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="set_overrides",
                       help="override any config key")
    return parser


def _flag_overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["run.master_seed"] = args.seed
    if args.trials is not None:
        out["run.trials"] = args.trials
    if args.distance is not None:
        out["link.distance_m"] = parse_distance(args.distance)
    if args.rwc is not None:
        out["run.sweep_rwc"] = args.rwc
    if args.thickness is not None:
        out["run.sweep_thickness_m"] = args.thickness
    if args.grid is not None:
        out["run.distance_grid_m"] = args.grid
    if args.dt is not None:
        out["run.dt_s"] = args.dt
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
    try:
        flat, explicit = assemble_config(
            args.mode, args.profile, args.config, args.set_overrides,
            _flag_overrides(args))
        spec = spec_from_flat(flat)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out) if args.out else Path("cloudmimo-runs") / args.mode
    try:
        if spec.mode == "field":
            _run_field(spec, outdir, explicit)
        elif spec.mode == "phase-dist":
            _run_phase_dist(spec, outdir, explicit)
        else:
            _run_experiment(spec, outdir, explicit)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
