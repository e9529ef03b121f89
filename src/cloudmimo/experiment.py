"""Monte Carlo experiment runner, aggregation, and run artifacts.

Each mode is one function ``spec -> RunOutput`` that returns the mode's
CSV text, manifest report and summary lines; :data:`MODES` lists every
mode once, with its help text, runner, config defaults and the flags
only it reads.  ``field`` draws one cloud field and ``phase-dist``
evaluates the analytic phase model.  The other modes
draw a fresh static cloud field per trial (capacity and correlation
studies are snapshot studies), trace the antenna-pair rays of the
configured link through it, and feed the accumulated cloud phases into the
LoS MIMO channel.  One trial kernel serves them all: it draws each trial's
field once per run, evaluates every sweep point whose field does not
depend on the sweep value on that draw, and works on blocks of trials as
arrays.  Per-trial random streams derive deterministically from the master
seed and the trial index, so results are reproducible and independent of
the block size: one generator is reset to each trial's stream by writing
its state words in place (see :mod:`cloudmimo.streams`, which checks the
generator's layout first).  Each block's fields come from one call of
``draw_fields``, the one field draw, as rows of centres in metres and
unit contents; no draw outlives its block.  The kernel only traces: it
takes one array of ray segments and returns plain arrays of each trial's
cloudlet count and each ray's pierced counts and phases per unit content.
Each mode takes what it needs from them.  capacity-cdf, correlation and
compensated run on one sweep runner, which traces the rays of every sweep
point that reaches the layer, one after another, with one kernel call,
scales each point's unit phases by each content bound, and applies the
mode's channel metric to them in block-sized trial slices.  The sweep
runner also computes each point's clear-sky value once and fills with it
every trial that sees no cloud: all of a point none of whose rays reaches
the layer, and all of a content bound of 0; neither is traced.
phase-compare scales the phases of its one ray by the cloud's content
bound, and mac-count counts operations from the counts.

Runs write two artifacts: ``results.csv`` (``field.csv`` for ``field``)
with plot-ready columns and ``manifest.json`` with the full configuration,
which can be fed back as a config file to reproduce the run byte for byte.
"""
from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import operator
import types
import typing
import warnings

import numpy as np

from . import __version__
from .analyticmodel import (AnalyticParams, laplace_pdf,
                            stationary_distribution, stationary_report,
                            time_varying_distribution, total_phase_pdf)
from .cloudfield import CloudConfig, cloudlet_radius, draw_fields
from .errors import ConfigurationError, ModelValidityWarning
from .mimochannel import (MimoScenario, capacity_bits, ensemble_mean,
                          los_channel, subchannel_coherence)
from .phasephysics import (REFERENCE_IWC, PhysicsParams, block_phases,
                           mixture_coefficient)
from .raygeometry import map_rays_to_field
from .streams import trial_streams

# Cloudlets the trial kernel traces at once.  A block holds as many trials
# as fit this count on average, which bounds the kernel's working memory;
# results never depend on it.
BLOCK_CLOUDLETS = 8192

# Floating-point evaluation order behind results.csv, recorded in the
# manifest.  1: one field, one ray and one channel at a time.  2: per-ray
# phases summed per trial by bincount and channels evaluated as stacks,
# which moves phase-compare and correlation values by ~1e-14 relative.
# 3: per-field pairwise sums (np.add.reduceat), with the constants applied
# per field sum, which moves phase-compare values by ~1e-14 relative.
# 4: rays traced through unit contents, each bound C's phases written as C
# times those, and the capacity from a Cholesky factorization, which moves
# capacity values by ~6e-15 and phase-compare values by ~1e-13 relative.
# 5: the coherence from the capacity's real Gram matrix, segment lengths
# without BLAS, and compensated's median nearest-rank lower, which moves
# correlation values by ~2e-16 relative and compensated's by ~6e-6.
NUMERICS_VERSION = 5

# Reference per-round complexity figures for the operation-count mode: the
# cloudlet model at the 20 m x 1000 m configuration, and a grid-interpolation
# cloud simulator at 500 m^2 coverage for context.
REFERENCE_MAC_PER_ROUND = 10367
GRID_MODEL_REFERENCE_MAC = 5391772


# ============================================================
# Experiment specification
# ============================================================

@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one experiment run."""

    scenario: MimoScenario
    cloud: CloudConfig
    physics: PhysicsParams
    mode: str = "capacity-cdf"
    trials: int = 10000
    master_seed: int = 0
    sweep_rwc: tuple | None = None         # relative water content values
    sweep_thickness: tuple | None = None   # layer thickness values [m]
    distance_grid: tuple | None = None     # link distances [m]
    dt: float = 0.0                        # drift interval for reports [s]
    outage_probability: float = 0.5

    def __post_init__(self) -> None:
        problems = []
        if self.mode not in MODES:
            problems.append(f"unknown mode {self.mode!r}; expected one of "
                            f"{tuple(MODES)}")
        if self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            problems.append(
                f"master_seed must be >= 0, got {self.master_seed}")
        if not (0.0 < self.outage_probability <= 1.0):
            problems.append(
                f"outage_probability must be in (0, 1], got "
                f"{self.outage_probability}")
        if self.dt < 0.0:
            problems.append(f"dt must be >= 0, got {self.dt}")
        if self.sweep_rwc is not None and self.sweep_thickness is not None:
            problems.append("sweep_rwc and sweep_thickness are exclusive")
        for name in ("sweep_rwc", "sweep_thickness", "distance_grid"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(values))
                if len(values) == 0:
                    problems.append(f"{name} must not be empty")
        if any(v < 0.0 for v in self.sweep_rwc or ()):
            problems.append("relative water content values must be >= 0")
        for value in self.sweep_thickness or ():   # each layer it traces
            try:
                dataclasses.replace(self.cloud, thickness_d=value)
            except ConfigurationError as exc:
                problems.append(str(exc))
        if any(v <= 0.0 for v in self.distance_grid or ()):
            problems.append("distance grid values must be > 0")
        if self.mode in MODES and "grid" in MODES[self.mode].flags \
                and self.distance_grid is None:
            problems.append(f"mode {self.mode!r} needs a distance grid")
        if self.mode == "correlation" and self.scenario.num_tx < 2:
            problems.append("sub-channel correlation needs at least two "
                            "transmit columns")
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclasses.dataclass(frozen=True)
class RunOutput:
    """What one run writes and prints: its CSV, report and summary."""

    csv_text: str
    report: dict                    # the manifest's "report"
    summary: tuple = ()             # lines printed after the run
    csv_name: str = "results.csv"


# ============================================================
# Flat config schema
# ============================================================

# Every flat config key, in manifest order: key -> (kind, field), one key
# per field.  A field is "scenario.<name>", "cloud.<name>" or
# "physics.<name>" in that part of the spec, or a bare name in
# ExperimentSpec itself.  The link's carrier and elevation fill the
# scenario, and the layer top the cloud, under their manifests' key names.
# Each kind names its parser in _PARSERS, the only one any source reaches:
# profile, config file, environment, --set and the dedicated flags alike.
CONFIG_SCHEMA = {
    "cloud.width_w": ("float", "cloud.width_w"),
    "cloud.thickness_d": ("float", "cloud.thickness_d"),
    "cloud.max_thickness_dmax": ("float", "cloud.max_thickness_dmax"),
    "cloud.lambda_s": ("float", "cloud.density_lambda_s"),
    "cloud.alpha": ("float", "cloud.smoothness_alpha"),
    "cloud.max_iwc_c": ("float", "cloud.max_iwc_c"),
    "cloud.drift_speed_vb": ("float", "cloud.drift_speed_vb"),
    "physics.sphere_density_n": ("float", "physics.sphere_density_n"),
    "physics.sphere_volume_vice": ("float", "physics.sphere_volume_vice"),
    "physics.ice_permittivity_real": ("float",
                                      "physics.ice_permittivity_real"),
    "physics.carrier_frequency_hz": ("float", "scenario.carrier_frequency"),
    "mimo.num_tx": ("int", "scenario.num_tx"),
    "mimo.num_rx": ("int", "scenario.num_rx"),
    "mimo.tx_spacing_m": ("float", "scenario.tx_spacing"),
    "mimo.rx_spacing_m": ("float", "scenario.rx_spacing"),
    "mimo.snr_db": ("float", "scenario.snr_db"),
    "mimo.compensated": ("bool", "scenario.compensated"),
    "link.distance_m": ("distance", "scenario.link_distance"),
    "link.elevation_deg": ("float", "scenario.elevation_deg"),
    "link.cloud_upper_altitude_m": ("float", "cloud.upper_altitude"),
    "run.mode": ("str", "mode"),
    "run.trials": ("int", "trials"),
    "run.master_seed": ("int", "master_seed"),
    "run.sweep_rwc": ("float_list", "sweep_rwc"),
    "run.sweep_thickness_m": ("float_list", "sweep_thickness"),
    "run.distance_grid_m": ("float_list", "distance_grid"),
    "run.dt_s": ("float", "dt"),
    "run.outage_probability": ("float", "outage_probability"),
}

_PARTS = {"scenario": MimoScenario, "cloud": CloudConfig,
          "physics": PhysicsParams}


def _finite(value) -> float:
    if isinstance(value, (bool, np.bool_)):   # JSON's true is no number
        raise ValueError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _distance(value) -> float:
    """Metres, from a number or a text with a km or m suffix."""
    if not isinstance(value, str):
        return _finite(value)
    text = value.strip().lower()
    km = text.endswith("km")
    try:
        number = float(text[:-2] if km else text.removesuffix("m"))
    except ValueError:
        raise ValueError(f"{value!r} is not a distance, e.g. 40km or "
                         f"40000") from None
    return _finite(number * 1000.0 if km else number)


def _integer(value) -> int:
    if isinstance(value, str):
        # Base 0 reads 0x10; plain int() reads 007, which base 0 rejects.
        try:
            return int(value, 0)
        except ValueError:
            return int(value)
    try:
        whole = int(value)
        if _finite(value) != whole:     # a boolean is no integer either
            raise ValueError(f"{value} is not an integer")
    except OverflowError:   # an infinite float, or an int no float holds
        raise ValueError(f"{value} is out of range") from None
    return whole


def _boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean")


def _finite_list(value) -> list | None:
    if isinstance(value, str):
        if value.strip().lower() in ("", "none"):
            return None
        value = value.split(",")
    return [_finite(v) for v in value]


_PARSERS = {"float": _finite, "distance": _distance, "int": _integer,
            "bool": _boolean, "str": str, "float_list": _finite_list}


def parse_config_value(key: str, value):
    """A config value, from text, JSON or Python, as its key's kind.

    Numbers must be finite.  Only a list kind may be None (or "none").

    Raises
    ------
    ValueError, TypeError
        For a value that is not of the key's kind.
    """
    kind = CONFIG_SCHEMA[key][0]
    if value is None:
        if kind == "float_list":
            return None
        raise ValueError("missing value")
    return _PARSERS[kind](value)


def parse_config(flat: dict, problems=()) -> dict:
    """Every value of a flat mapping, parsed as its key's kind; raises one
    :class:`ConfigurationError` listing ``problems`` (the caller's), then
    ``key: message`` for each value that does not parse."""
    problems, values = list(problems), {}
    for key, value in flat.items():
        try:
            values[key] = parse_config_value(key, value)
        except (TypeError, ValueError) as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return values


def spec_to_flat(spec: ExperimentSpec) -> dict:
    """Flatten a spec to the dotted-key config mapping used everywhere."""
    flat = {}
    for key, (kind, field) in CONFIG_SCHEMA.items():
        value = operator.attrgetter(field)(spec)
        if kind == "float_list" and value is not None:
            value = list(value)
        flat[key] = value
    return flat


def spec_from_flat(flat: dict, threads: int = 1) -> ExperimentSpec:
    """Build a spec from the dotted-key mapping (inverse of spec_to_flat).

    Every key is parsed as its kind and fills its one field; only the list
    keys may be absent.  Every missing or unreadable key is raised first,
    by :func:`parse_config`, and then the three parts' problems together.
    ``threads`` is accepted and ignored: runs are single-threaded.
    """
    parsed = parse_config({key: flat.get(key) for key in CONFIG_SCHEMA})
    values = collections.defaultdict(dict)   # part -> {name: value}
    for key, (_, field) in CONFIG_SCHEMA.items():
        part, _, name = field.rpartition(".")
        values[part][name] = parsed[key]
    parts, problems = {}, []
    for part, cls in _PARTS.items():
        try:
            parts[part] = cls(**values[part])
        except ConfigurationError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigurationError("; ".join(problems))
    return ExperimentSpec(**parts, **values[""])


def _segments_for(cloud: CloudConfig, scenario: MimoScenario):
    """A scenario's (rays, 2, 2) in-layer ray segments through the cloud's
    layer, and whether any ray is in the layer.

    A ray that misses the layer has a segment whose start is its end.
    """
    segments = map_rays_to_field(scenario, cloud)
    return segments, bool(np.any(segments[:, 0] != segments[:, 1]))


def _centre_ray(spec: ExperimentSpec):
    """The (1, 2, 2) segment of the 1x1 link phase-compare and mac-count
    trace, and whether it is in the layer."""
    centre = dataclasses.replace(spec.scenario, num_tx=1, num_rx=1)
    segments, engaged = _segments_for(spec.cloud, centre)
    if not engaged:
        _warn_clear_sky(centre, spec.mode)
    return segments, engaged


def _warn_clear_sky(scenario: MimoScenario, point: str) -> None:
    """Say that no ray of a point's link reaches the layer: clear sky."""
    warnings.warn(
        f"{point}: no ray reaches the cloud layer at link distance "
        f"{scenario.link_distance:g} m and elevation "
        f"{scenario.elevation_deg:g} deg, so every trial is clear sky",
        ModelValidityWarning, stacklevel=3)


# ============================================================
# Trial kernel
# ============================================================

def trial_kernel(spec: ExperimentSpec, cloud: CloudConfig, rays: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace one array of rays through one field draw per trial.

    Trial ``t`` draws its field from the stream
    ``default_rng(trial_seed(master_seed, t))``, the same bits as a
    one-field :func:`draw_fields` call on that generator, centres in
    metres and unit content variates u.  The rays are traced through the
    unit contents, at the phase rate of the link's carrier (see
    :func:`block_phases`); the caller scales these phases by a content
    bound.  Each ray is traced alone, so a ray's values do not depend on
    the other rays of the call.  Trials run in blocks of about
    ``BLOCK_CLOUDLETS`` cloudlets: one :func:`draw_fields` call gives the
    block's rows, and one :func:`block_phases` call traces them against
    every ray at once.

    Parameters
    ----------
    rays : ndarray, shape (rays, 2, 2)
        Each ray's in-layer segment start and end, as
        :func:`map_rays_to_field` gives them; a sweep passes the rays of
        its points one after another.

    Returns
    -------
    counts : ndarray
        (trials,) cloudlet count of each trial's field.
    pierced : ndarray
        (trials, rays) count of the cloudlets each ray pierces.
    phases : ndarray
        (trials, rays) unwrapped cloud phases [rad] per unit content.
    """
    radius = cloudlet_radius(cloud)
    rate = (2.0 * np.pi / spec.scenario.wavelength
            * mixture_coefficient(spec.physics))
    mean_count = cloud.density_lambda_s * cloud.width_w * cloud.thickness_d
    per_block = max(1, int(BLOCK_CLOUDLETS // max(mean_count, 1.0)))
    trials = spec.trials
    counts = np.empty(trials, dtype=np.intp)
    pierced = np.empty((trials, len(rays)), dtype=np.intp)
    phases = np.empty((trials, len(rays)))
    streams = trial_streams(spec.master_seed, trials)
    for first in range(0, trials, per_block):
        block = slice(first, min(first + per_block, trials))
        block_counts, rows = draw_fields(cloud, streams, block.stop - first)
        counts[block] = block_counts
        phases[block], pierced[block] = block_phases(
            rows[:2].T, rows[2], block_counts, radius, rays, rate)
    return counts, pierced, phases


def _sweep(spec: ExperimentSpec, metric, scenarios, cloud: CloudConfig,
           contents=None) -> tuple[np.ndarray, list, list]:
    """Every scenario's metric values at each content bound, with clear sky.

    The scenarios some of whose rays reach the layer are traced on the
    same field draws by one kernel call, their rays one after another (all
    scenarios have the same Nr * Nt rays).  Each nonzero one of the k
    bounds C of ``contents`` (default: the cloud's own) scales a
    scenario's unit phases P to ``C * P``, and ``metric(scenario, C * P)``
    runs on them in trial slices of at most ``BLOCK_CLOUDLETS`` phase
    values, so the metric's temporaries stay the size of a kernel block's
    at any trial count; the values do not depend on the slicing.  Each
    scenario's clear-sky value ``metric(scenario, None)`` is computed
    once, and fills every trial that sees no cloud: all of a scenario none
    of whose rays reaches the layer, which is not traced, and all of a
    bound of 0, whose cloudlets add no phase.  So a sweep of zero bounds
    alone draws no field.

    Returns
    -------
    values : ndarray
        (scenarios, k, trials) metric values.
    clear : list
        Each scenario's clear-sky value.
    engaged : list
        Whether any of each scenario's rays reaches the layer.
    """
    if contents is None:
        contents = (cloud.max_iwc_c,)
    traced = [j for j, c in enumerate(contents) if c != 0.0]
    mapped = [_segments_for(cloud, scen) for scen in scenarios]
    engaged = [e for _, e in mapped]
    clear = [float(metric(scen, None)) for scen in scenarios]
    values = np.empty((len(scenarios), len(contents), spec.trials))
    values[:] = np.reshape(clear, (-1, 1, 1))
    live = [i for i, e in enumerate(engaged) if e]
    if live and traced:
        _, _, phases = trial_kernel(
            spec, cloud, np.concatenate([mapped[i][0] for i in live]))
        phases = phases.reshape(spec.trials, len(live), -1)
        scale = np.array([contents[j] for j in traced])[:, None, None]
        step = max(1, BLOCK_CLOUDLETS // (len(traced) * phases.shape[2]))
        for point, i in enumerate(live):
            for first in range(0, spec.trials, step):
                part = slice(first, first + step)
                values[i, traced, part] = metric(
                    scenarios[i], scale * phases[part, point])
    return values, clear, engaged


# ============================================================
# Cloud field and analytic phase density
# ============================================================

def run_field(spec: ExperimentSpec) -> RunOutput:
    """One cloud field realization, one row per cloudlet.

    The field is one :func:`draw_fields` call on
    ``default_rng(master_seed)``.
    """
    (count,), (x, y, u) = draw_fields(
        spec.cloud, [np.random.default_rng(spec.master_seed)], 1)
    radius = cloudlet_radius(spec.cloud)
    iwc = spec.cloud.max_iwc_c * u
    return RunOutput(
        format_csv("x_m,y_m,radius_m,iwc_g_m3",
                   zip(x, y, itertools.repeat(radius), iwc)),
        {"cloudlet_count": int(count), "radius_m": radius},
        (f"{count} cloudlets",), csv_name="field.csv")


def run_phase_dist(spec: ExperimentSpec) -> RunOutput:
    """The analytic phase report and its density on a 501-point grid.

    The grid spans 8 standard deviations of the total phase about phi0; a
    point mass (every variance zero) gets a header-only CSV and a warning.
    """
    params = AnalyticParams(spec.cloud, spec.physics,
                            spec.scenario.carrier_frequency)
    report = stationary_report(params, dt=spec.dt)
    dist = time_varying_distribution(params, spec.dt)
    header = "phi_rad,pdf_stationary,pdf_total"
    if dist.total_variance > 0.0:
        span = 8.0 * math.sqrt(dist.total_variance)
        grid = np.linspace(dist.phi0 - span, dist.phi0 + span, 501)
        total = total_phase_pdf(grid, dist)
        if dist.sigma_c2 > 0.0:
            stationary = laplace_pdf(grid, dist)
        else:
            stationary = np.zeros_like(grid)
        csv_text = format_csv(header, zip(grid, stationary, total))
    else:
        report["warnings"] = report.get("warnings", []) + [
            "all variances are zero: the phase is a point mass at phi0 "
            "and no density grid is written"]
        csv_text = format_csv(header, [])
    return RunOutput(csv_text, report, (
        f"phi0 = {dist.phi0:.6e} rad, sigma_c2 = {dist.sigma_c2:.6e} rad^2 "
        f"(truncated sum)",))


# ============================================================
# Capacity CDF
# ============================================================

def outage_capacity(samples: np.ndarray, p: float) -> float:
    """Nearest-rank lower quantile of ascending capacity samples."""
    if not (0.0 < p <= 1.0):
        raise ConfigurationError(f"outage probability must be in (0, 1], got {p}")
    if samples.size == 0:
        raise ConfigurationError("empty capacity CDF has no quantiles")
    rank = max(int(math.ceil(p * samples.size)), 1)
    return float(samples[rank - 1])


def _capacity(scenario: MimoScenario, phases):
    return capacity_bits(los_channel(scenario, phases), scenario.snr_db,
                         scenario.compensated)


def run_capacity_cdf(spec: ExperimentSpec) -> RunOutput:
    """Per-trial capacities for each sweep point of the configured sweep.

    A relative-water-content sweep rescales the ice water content bound, so
    all its points share each trial's field draw; a thickness sweep rebuilds
    the layer (and the in-layer geometry) and draws per value.  Without a
    sweep a single point at the configured cloud runs.  A point whose rays
    all miss the layer is clear sky in every trial (see :func:`_sweep`),
    and warns with a :class:`ModelValidityWarning`; a water content of 0 is
    clear sky too, without a warning, since its rays reach the layer.  The
    CSV has one row per trial, each point's samples in ascending order; the
    report gives each point's median and outage capacity.
    """
    if spec.sweep_thickness is not None:
        name = "thickness_m"
        runs = [(dataclasses.replace(spec.cloud, thickness_d=v), None, (v,))
                for v in spec.sweep_thickness]
    elif spec.sweep_rwc is not None:
        name = "rwc"
        runs = [(spec.cloud, [v * REFERENCE_IWC for v in spec.sweep_rwc],
                 spec.sweep_rwc)]
    else:
        name = "none"
        runs = [(spec.cloud, None, (0.0,))]
    chunks = ["sweep,sweep_value,capacity_bps_hz\n"]
    points, summary = [], []
    for cloud, contents, values in runs:
        (caps,), _, (engaged,) = _sweep(spec, _capacity, [spec.scenario],
                                        cloud, contents)
        for value, samples in zip(values, np.sort(caps)):
            if not engaged:
                label = "(no sweep)" if name == "none" \
                    else f"{name}={value:g}"
                _warn_clear_sky(spec.scenario, f"capacity-cdf point {label}")
            # The point's two columns are formatted once, the samples with
            # the shortest round-trip repr of format_csv.
            prefix = f"{name},{float(value)!r},"
            chunks.append(prefix + f"\n{prefix}".join(
                map(repr, samples.tolist())) + "\n")
            median = outage_capacity(samples, 0.5)
            points.append({
                "parameter": name, "value": value, "median_bps_hz": median,
                "outage_bps_hz": outage_capacity(
                    samples, spec.outage_probability),
                "outage_probability": spec.outage_probability,
            })
            summary.append(f"{name}={value:g}: median {median:.4f} bit/s/Hz")
    return RunOutput("".join(chunks), {"points": points}, tuple(summary))


# ============================================================
# Correlation and compensated-capacity distance sweeps
# ============================================================

def _distance_sweep(spec: ExperimentSpec, metric, reducer,
                    header: str) -> RunOutput:
    """Ensemble summary of a per-trial channel metric over the distance grid.

    ``metric(scenario, phases)`` evaluates the channel of a scenario under
    a (..., rays) stack of cloud phases, or under clear sky for None;
    ``reducer`` summarizes the trial values of one distance.  The engaged
    distances are traced on the same field draws (see :func:`_sweep`);
    every trial of a distance where no ray reaches the layer has the
    clear-sky value, and so does its summary, exactly.
    """
    distances = [float(d) for d in spec.distance_grid]
    scenarios = [dataclasses.replace(spec.scenario, link_distance=d)
                 for d in distances]
    values, without, engaged = _sweep(spec, metric, scenarios, spec.cloud)
    with_cloud = [float(reducer(v)) for (v,) in values]
    return RunOutput(
        format_csv(header, zip(distances, with_cloud, without)),
        {"distances_m": distances, "with_cloud": with_cloud,
         "without_cloud": without, "engaged": engaged})


def _coherence(scenario: MimoScenario, phases):
    return subchannel_coherence(los_channel(scenario, phases))


def run_correlation_sweep(spec: ExperimentSpec) -> RunOutput:
    """Sub-channel correlation with and without cloud over a distance grid.

    Engaged distances average the per-trial coherence over the ensemble of
    cloud realizations.
    """
    return _distance_sweep(spec, _coherence, ensemble_mean,
                           "distance_m,corr_cloud,corr_clear")


def run_compensated_sweep(spec: ExperimentSpec) -> RunOutput:
    """Median compensated capacity with and without cloud over distances.

    Gains are forced to unity so only phase structure drives the capacity;
    the no-cloud capacity at each distance is deterministic.  The median
    is nearest-rank lower, as every capacity quantile.
    """
    unit_gains = dataclasses.replace(spec.scenario, compensated=True)
    return _distance_sweep(
        dataclasses.replace(spec, scenario=unit_gains), _capacity,
        lambda values: outage_capacity(np.sort(values), 0.5),
        "distance_m,median_capacity_cloud_bps_hz,"
        "median_capacity_clear_bps_hz")


# ============================================================
# Monte Carlo vs analytic phase comparison
# ============================================================

def _laplace_ks_distance(samples: np.ndarray, loc: float,
                         scale: float) -> float:
    """Kolmogorov-Smirnov distance of samples from Laplace(loc, scale).

    The two-sided statistic of ``scipy.stats.kstest`` with the same
    arithmetic: the larger gap between the empirical CDF, just after and
    just before each sorted sample, and the model CDF there.
    """
    x = np.sort(samples)
    n = x.size
    z = (x - loc) / scale
    with np.errstate(over="ignore"):
        cdf = np.where(z > 0, 1.0 - 0.5 * np.exp(-z), 0.5 * np.exp(z))
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


def _excess_kurtosis(samples: np.ndarray) -> float:
    """Biased excess kurtosis with the arithmetic of ``scipy.stats.kurtosis``.

    NaN when the second moment vanishes against the mean's rounding, as
    for identical samples.
    """
    mean = samples.mean()
    dev2 = (samples - mean) ** 2
    m2 = dev2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return math.nan
    return float((dev2 ** 2).mean() / m2 ** 2.0 - 3)


def run_phase_compare(spec: ExperimentSpec) -> RunOutput:
    """Histogram the Monte Carlo single-ray phase against the Laplace model.

    One centre ray is traced per trial through a fresh field; a ray that
    misses the layer warns with a :class:`ModelValidityWarning`.  This is a
    pure comparison: the analytic constants were fitted elsewhere, so no
    agreement is enforced, only measured.
    """
    segments, _ = _centre_ray(spec)
    counts, pierced, phases = trial_kernel(spec, spec.cloud, segments)
    samples = spec.cloud.max_iwc_c * phases[:, 0]
    analytic = stationary_distribution(AnalyticParams(
        spec.cloud, spec.physics, spec.scenario.carrier_frequency))

    density, edges = np.histogram(samples, bins=101, density=True)
    centres = (edges[:-1] + edges[1:]) / 2.0
    if analytic.sigma_c2 > 0.0:
        ks = _laplace_ks_distance(samples, analytic.phi0,
                                  math.sqrt(analytic.sigma_c2 / 2.0))
        analytic_density = laplace_pdf(centres, analytic)
    else:
        # Point-mass reference, with no density: the KS distance is the
        # worst-case gap between the empirical CDF and a unit step at phi0.
        below = float(np.mean(samples < analytic.phi0))
        at_or_below = float(np.mean(samples <= analytic.phi0))
        ks = max(below, 1.0 - at_or_below)
        analytic_density = np.zeros_like(centres)
    kurtosis = _excess_kurtosis(samples)
    report = {
        "empirical": {
            "mean_rad": float(samples.mean()),
            "variance_rad2": float(samples.var()),
            # null where it is undefined (NaN): strict JSON has no NaN
            "excess_kurtosis": None if math.isnan(kurtosis) else kurtosis,
            "mean_cloudlet_count": float(counts.mean()),
            "mean_pierced_count": float(pierced[:, 0].mean()),
        },
        "analytic": {
            "phi0_rad": analytic.phi0,
            "sigma_c2_rad2": analytic.sigma_c2,
            "excess_kurtosis": 3.0,
        },
        "ks_distance": ks,
        "note": ("comparison only: the analytic constants were fitted "
                 "to measurements that are not available here"),
    }
    return RunOutput(
        format_csv("phi_rad,empirical_density,analytic_density",
                   zip(centres, density, analytic_density)), report)


# ============================================================
# Operation counting
# ============================================================

def _within_order_of_magnitude(average: float) -> bool:
    """Whether the reference per-round count is 0.1 to 10 times ``average``."""
    return average > 0.0 and 0.1 <= REFERENCE_MAC_PER_ROUND / average <= 10.0


def run_mac_count(spec: ExperimentSpec) -> RunOutput:
    """Average the per-round operation count over the kernel's rounds.

    One round is one trial of the trial kernel with one ray: its field
    draw plus the ray's phase accrual.  The counting convention: every
    scalar multiply, multiply-add, division and random draw counts one;
    additions, comparisons and square roots are free.  The trial kernel
    traces the centre ray through each trial's field and gives the field's
    cloudlet count n and the ray's pierced count h.  A round then costs
    ``17 + 6 n + [L > 0] (2 + 5 n + 3 h)`` operations, where L is the
    ray's in-layer length:

    - 17 set the round up: the thickness ratio (1), the radius (3), the
      mean count (2), the Poisson draw (1), the mixture coefficient (6),
      the wavenumber (3) and the squared radius (1);
    - 6 per cloudlet draw and scale its x, y and content;
    - 2 give the ray's direction, 5 per cloudlet its projection on the ray
      and squared distance from the line, and 3 per pierced cloudlet its
      chord's phase; a ray that misses the layer does none of these.

    Warns with a :class:`ModelValidityWarning` if the ray misses the layer.
    The CSV gives each round's count.
    """
    segments, traced = _centre_ray(spec)
    n, h, _ = trial_kernel(spec, spec.cloud, segments)
    per_round = 17 + 6 * n + traced * (2 + 5 * n + 3 * h[:, 0])
    average = float(per_round.mean())
    report = {
        "average_mac_per_round": average,
        "rounds": spec.trials,
        "reference_mac_per_round": REFERENCE_MAC_PER_ROUND,
        "grid_model_reference_mac": GRID_MODEL_REFERENCE_MAC,
        "within_order_of_magnitude": _within_order_of_magnitude(average),
        "scope": ("one round = one field generation plus one ray's "
                  "phase accrual"),
        "convention": ("multiplies, multiply-adds, divisions and random "
                       "draws count 1; additions, comparisons and "
                       "square roots count 0"),
    }
    return RunOutput(
        format_csv("round,mac_count", enumerate(per_round.tolist())), report,
        (f"average {average:.1f} MAC/round "
         f"(reference {REFERENCE_MAC_PER_ROUND})",))


# ============================================================
# Mode table
# ============================================================

class Mode(typing.NamedTuple):
    """What a mode takes: its help text and runner, the config defaults
    that are its layer of the merge, just below the profile's, and the
    dedicated flags only its subcommand offers and its runs read.
    """

    help_text: str
    runner: typing.Callable[[ExperimentSpec], RunOutput]
    defaults: typing.Mapping = types.MappingProxyType({})
    flags: tuple = ()


def _grid(first: int, last: int) -> typing.Mapping:
    """The defaults of a distance grid [m], first to last in 2 km steps."""
    return types.MappingProxyType({"run.distance_grid_m": tuple(
        float(d) for d in range(first, last + 1, 2000))})


# Every mode once, in the order the command line lists them.
MODES = {
    "field": Mode("generate one cloud field realization", run_field),
    "phase-dist": Mode("analytic phase distribution report and density grid",
                       run_phase_dist, flags=("dt",)),
    "capacity-cdf": Mode("per-trial capacity CDF, optionally swept",
                         run_capacity_cdf, flags=("rwc", "thickness")),
    "correlation": Mode("sub-channel correlation over a distance grid",
                        run_correlation_sweep, _grid(2000, 30000), ("grid",)),
    "compensated": Mode("median compensated capacity over a distance grid",
                        run_compensated_sweep, _grid(20000, 40000), ("grid",)),
    "phase-compare": Mode("Monte Carlo vs analytic single-ray phase",
                          run_phase_compare,
                          types.MappingProxyType({"run.trials": 100000})),
    "mac-count": Mode("average per-round operation count", run_mac_count,
                      types.MappingProxyType({"run.trials": 1000})),
}


# ============================================================
# Run artifacts
# ============================================================

def format_csv(header: str, rows) -> str:
    """Render rows with shortest round-trip decimals for byte stability."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, (float, np.floating))
            else str(v) for v in row))
    return "\n".join(lines) + "\n"


ASSUMED_PARAMETER_KEYS = (
    "cloud.alpha", "physics.sphere_density_n",
    "physics.sphere_volume_vice", "physics.ice_permittivity_real",
)


def build_manifest(spec: ExperimentSpec, report: dict,
                   explicit_keys=(), wall_time_s: float = 0.0) -> dict:
    """Manifest that reproduces the run when fed back as a config."""
    flat = spec_to_flat(spec)
    assumed = {key: flat[key] for key in ASSUMED_PARAMETER_KEYS
               if key not in set(explicit_keys)}
    return {
        "tool": "cloudmimo",
        "version": __version__,
        "mode": spec.mode,
        "config": flat,
        "numerics": NUMERICS_VERSION,
        "quantile_convention": "nearest-rank lower",
        "geometry": ("ground array centre at altitude 0; airborne array "
                     "centre on the link ray at the configured distance and "
                     "elevation; broadside uniform linear arrays in the "
                     "vertical model plane; layer between "
                     "cloud_upper_altitude_m minus the thickness and "
                     "cloud_upper_altitude_m"),
        "assumed_defaults": assumed,
        "cloudlet_radius_m": cloudlet_radius(spec.cloud),
        "mixture_coefficient_m3_per_g": mixture_coefficient(spec.physics),
        "wall_time_s": wall_time_s,
        "report": report,
    }
