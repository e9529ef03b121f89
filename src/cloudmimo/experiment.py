"""Monte Carlo experiment runner, aggregation, and run artifacts.

Every experiment draws a fresh static cloud field per trial (capacity and
correlation studies are snapshot studies), traces the antenna-pair rays of
the configured link through it, and feeds the accumulated cloud phases into
the LoS MIMO channel.  One trial kernel serves every mode: it draws each
trial's field once per run, evaluates every sweep point whose field does not
depend on the sweep value on that draw, and works on blocks of trials as
arrays.  Per-trial random streams derive deterministically from the master
seed and the trial index, so results are reproducible and independent of
the block size: one generator is reset to each trial's stream by writing
its state words in place (see :mod:`cloudmimo.streams`, which checks the
generator's layout first).  Each block's fields come from one call of
``draw_fields``, whose one-field case is ``generate_field``, as unit x, y
and content rows that the kernel scales in place.  No per-trial
``CloudField`` is built.  Runs are single-threaded; the ``threads`` hint
is accepted and changes nothing.

Runs write two artifacts: ``results.csv`` with plot-ready columns and
``manifest.json`` with the full configuration, which can be fed back as a
config file to reproduce the run byte for byte.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import math
import operator

import numpy as np

from . import __version__
from .analyticmodel import (AnalyticParams, PhaseDistribution, laplace_pdf,
                            stationary_distribution)
# generate_field is not called here; bench/layertrace.py and bench/selftest.py
# look it up under this module until the benchmark wraps draw_fields.
from .cloudfield import (CloudConfig, cloudlet_radius, draw_fields,
                         generate_field)  # noqa: F401
from .errors import ConfigurationError
from .mimochannel import (MimoScenario, capacity_bits, ensemble_mean,
                          los_channel, subchannel_coherence)
from .phasephysics import (REFERENCE_IWC, SPEED_OF_LIGHT, WORK_ROWS,
                           PhysicsParams, block_phases, mixture_coefficient)
from .raygeometry import LinkGeometry, broadside_link, build_rays, \
    map_rays_to_field
from .streams import trial_streams

# Cloudlets the trial kernel traces at once.  A block holds as many trials
# as fit this count on average, which bounds the kernel's working memory;
# results never depend on it.
BLOCK_CLOUDLETS = 8192

# Floating-point evaluation order behind results.csv, recorded in the
# manifest.  1: one field, one ray and one channel at a time.  2: per-ray
# phases summed per trial by bincount and channels evaluated as stacks,
# which moves phase-compare and correlation values by ~1e-14 relative.
NUMERICS_VERSION = 2

# Reference per-round complexity figures for the operation-count mode: the
# cloudlet model at the 20 m x 1000 m configuration, and a grid-interpolation
# cloud simulator at 500 m^2 coverage for context.
REFERENCE_MAC_PER_ROUND = 10367
GRID_MODEL_REFERENCE_MAC = 5391772

MODES = ("field", "phase-dist", "capacity-cdf", "correlation",
         "compensated", "phase-compare", "mac-count")


# ============================================================
# Experiment specification
# ============================================================

@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one experiment run."""

    scenario: MimoScenario
    cloud: CloudConfig
    physics: PhysicsParams
    elevation_deg: float = 90.0            # link elevation [deg]
    cloud_upper_altitude: float = 8000.0   # layer top altitude [m]
    mode: str = "capacity-cdf"
    trials: int = 10000
    master_seed: int = 0
    sweep_rwc: tuple | None = None         # relative water content values
    sweep_thickness: tuple | None = None   # layer thickness values [m]
    distance_grid: tuple | None = None     # link distances [m]
    dt: float = 0.0                        # drift interval for reports [s]
    outage_probability: float = 0.5
    threads: int = 1                       # accepted; runs are single-threaded

    def __post_init__(self) -> None:
        problems = []
        if self.mode not in MODES:
            problems.append(f"unknown mode {self.mode!r}; expected one of {MODES}")
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
        if self.threads < 1:
            problems.append(f"threads must be >= 1, got {self.threads}")
        if self.sweep_rwc is not None and self.sweep_thickness is not None:
            problems.append("sweep_rwc and sweep_thickness are exclusive")
        if self.sweep_rwc is not None:
            if any(v < 0.0 for v in self.sweep_rwc):
                problems.append("relative water content values must be >= 0")
            object.__setattr__(self, "sweep_rwc", tuple(self.sweep_rwc))
        if self.sweep_thickness is not None:
            if any(v <= 0.0 for v in self.sweep_thickness):
                problems.append("thickness sweep values must be > 0")
            object.__setattr__(self, "sweep_thickness",
                               tuple(self.sweep_thickness))
        if self.distance_grid is not None:
            if any(v <= 0.0 for v in self.distance_grid):
                problems.append("distance grid values must be > 0")
            object.__setattr__(self, "distance_grid",
                               tuple(self.distance_grid))
        if self.mode in ("correlation", "compensated") \
                and self.distance_grid is None:
            problems.append(f"mode {self.mode!r} needs a distance grid")
        freq_gap = abs(self.scenario.carrier_frequency
                       - self.physics.carrier_frequency)
        if freq_gap > 1e-6 * self.physics.carrier_frequency:
            problems.append(
                "scenario and physics carrier frequencies disagree")
        if problems:
            raise ConfigurationError("; ".join(problems))


# ============================================================
# Flat config schema
# ============================================================

# Every flat config key, in manifest order: key -> (kind, field, ...).  A
# field is "scenario.<name>", "cloud.<name>" or "physics.<name>" in that
# part of the spec, or a bare name in ExperimentSpec itself.  A key fills
# each of its fields, and a spec is flattened from the first one.
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
    "physics.carrier_frequency_hz": ("float", "physics.carrier_frequency",
                                     "scenario.carrier_frequency"),
    "mimo.num_tx": ("int", "scenario.num_tx"),
    "mimo.num_rx": ("int", "scenario.num_rx"),
    "mimo.tx_spacing_m": ("float", "scenario.tx_spacing"),
    "mimo.rx_spacing_m": ("float", "scenario.rx_spacing"),
    "mimo.snr_db": ("float", "scenario.snr_db"),
    "mimo.compensated": ("bool", "scenario.compensated"),
    "link.distance_m": ("float", "scenario.link_distance"),
    "link.elevation_deg": ("float", "elevation_deg"),
    "link.cloud_upper_altitude_m": ("float", "cloud_upper_altitude"),
    "run.mode": ("str", "mode"),
    "run.trials": ("int", "trials"),
    "run.master_seed": ("int", "master_seed", "cloud.rng_seed"),
    "run.sweep_rwc": ("float_list", "sweep_rwc"),
    "run.sweep_thickness_m": ("float_list", "sweep_thickness"),
    "run.distance_grid_m": ("float_list", "distance_grid"),
    "run.dt_s": ("float", "dt"),
    "run.outage_probability": ("float", "outage_probability"),
}

_PARTS = {"scenario": MimoScenario, "cloud": CloudConfig,
          "physics": PhysicsParams}


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _integer(value) -> int:
    if isinstance(value, str):
        return int(value, 0)
    try:
        whole = int(value)
        if float(value) != whole:
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


_PARSERS = {"float": _finite, "int": _integer, "bool": _boolean,
            "str": str, "float_list": _finite_list}


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


def spec_to_flat(spec: ExperimentSpec) -> dict:
    """Flatten a spec to the dotted-key config mapping used everywhere."""
    flat = {}
    for key, (kind, field, *_) in CONFIG_SCHEMA.items():
        value = operator.attrgetter(field)(spec)
        if kind == "float_list" and value is not None:
            value = list(value)
        flat[key] = value
    return flat


def spec_from_flat(flat: dict, threads: int = 1) -> ExperimentSpec:
    """Build a spec from the dotted-key mapping (inverse of spec_to_flat).

    Every key is parsed as its kind; only the list keys may be absent.
    """
    values = collections.defaultdict(dict)   # part -> {name: value}
    for key, (_, *fields) in CONFIG_SCHEMA.items():
        value = parse_config_value(key, flat.get(key))
        for field in fields:
            part, _, name = field.rpartition(".")
            values[part][name] = value
    parts = {part: cls(**values[part]) for part, cls in _PARTS.items()}
    return ExperimentSpec(**parts, **values[""], threads=threads)


def _link_for(spec: ExperimentSpec, distance: float,
              thickness: float) -> LinkGeometry:
    return broadside_link(
        num_tx=spec.scenario.num_tx, num_rx=spec.scenario.num_rx,
        tx_spacing=spec.scenario.tx_spacing,
        rx_spacing=spec.scenario.rx_spacing,
        link_distance=distance, elevation_deg=spec.elevation_deg,
        cloud_upper_altitude=spec.cloud_upper_altitude,
        layer_thickness=thickness)


def _segments_for(spec: ExperimentSpec, cloud: CloudConfig,
                  distance: float):
    link = _link_for(spec, distance, cloud.thickness_d)
    segments = map_rays_to_field(build_rays(link), link, cloud)
    engaged = any(seg.length > 0.0 for seg in segments)
    return segments, engaged


# ============================================================
# Trial kernel
# ============================================================

def trial_kernel(spec: ExperimentSpec, cloud: CloudConfig, points,
                 contents=None) -> list[np.ndarray]:
    """Evaluate every sweep point on one field draw per trial.

    Trial ``t`` draws its field from the stream
    ``default_rng(trial_seed(master_seed, t))``, as :func:`generate_field`
    does, and keeps the unit content variates u.  Each bound C of
    ``contents`` (default: the cloud's own) turns them into C * u, bit for
    bit the contents of a draw at bound C.  Trials run in blocks of about
    ``BLOCK_CLOUDLETS`` cloudlets: one :func:`draw_fields` call gives the
    block's rows, which are traced against each point's rays at once.

    Parameters
    ----------
    points : sequence of (segments, metric)
        The in-layer ray segments of a sweep point, and a metric mapping a
        :class:`PathPhase` of (len(contents), b, rays) stacks for a block
        of b trials to (len(contents), b, ...) values.

    Returns
    -------
    list of ndarray
        Per point, the metric values of all trials,
        (len(contents), trials, ...).
    """
    if not points:
        return []
    if contents is None:
        contents = (cloud.max_iwc_c,)
    scale = np.asarray(contents, dtype=float)[:, None]
    radius = cloudlet_radius(cloud)
    mean_count = cloud.density_lambda_s * cloud.width_w * cloud.thickness_d
    per_block = max(1, int(BLOCK_CLOUDLETS // max(mean_count, 1.0)))
    values: list[list] = [[] for _ in points]
    streams = trial_streams(spec.master_seed, spec.trials)
    # One work space for all blocks, grown when a block outgrows it: fresh
    # arrays per block would have the allocator map new pages each time.
    work = np.empty((WORK_ROWS, 2 * BLOCK_CLOUDLETS))
    for first in range(0, spec.trials, per_block):
        counts, draws = draw_fields(cloud, streams,
                                    min(per_block, spec.trials - first))
        if draws.shape[1] > work.shape[1]:
            work = np.empty((WORK_ROWS, 2 * draws.shape[1]))
        x, y, u = draws
        x *= cloud.width_w
        y *= cloud.thickness_d
        positions = draws[:2].T
        iwc = scale * u
        for (segments, metric), out in zip(points, values):
            out.append(metric(block_phases(positions, iwc, counts, radius,
                                           segments, spec.physics, work)))
    return [np.concatenate(v, axis=1) for v in values]


# ============================================================
# Capacity CDF
# ============================================================

@dataclasses.dataclass(frozen=True)
class CapacityCdf:
    """Sorted per-trial capacity samples of one sweep point."""

    samples: np.ndarray   # ascending [bit/s/Hz]
    trial_count: int


def outage_capacity(cdf: CapacityCdf, p: float) -> float:
    """Nearest-rank lower quantile of the capacity samples."""
    if not (0.0 < p <= 1.0):
        raise ConfigurationError(f"outage probability must be in (0, 1], got {p}")
    if cdf.trial_count == 0:
        raise ConfigurationError("empty capacity CDF has no quantiles")
    rank = max(int(math.ceil(p * cdf.trial_count)), 1)
    return float(cdf.samples[rank - 1])


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    parameter: str     # "rwc", "thickness_m" or "none"
    value: float
    cdf: CapacityCdf


def _capacity(scenario: MimoScenario, phases):
    return capacity_bits(los_channel(scenario, phases), scenario.snr_db)


def _capacities(spec: ExperimentSpec, cloud: CloudConfig,
                contents) -> np.ndarray:
    segments, _ = _segments_for(spec, cloud, spec.scenario.link_distance)
    metric = functools.partial(_capacity, spec.scenario)
    return trial_kernel(spec, cloud, [(segments, metric)], contents)[0]


def run_capacity_cdf(spec: ExperimentSpec) -> list[SweepPoint]:
    """Per-trial capacities for each sweep point of the configured sweep.

    A relative-water-content sweep rescales the ice water content bound, so
    all its points share each trial's field draw; a thickness sweep rebuilds
    the layer (and the in-layer geometry) and draws per value.  Without a
    sweep a single point at the configured cloud runs.
    """
    if spec.sweep_thickness is not None:
        name, values = "thickness_m", spec.sweep_thickness
        caps = [_capacities(spec, dataclasses.replace(
            spec.cloud, thickness_d=v), None)[0] for v in values]
    elif spec.sweep_rwc is not None:
        name, values = "rwc", spec.sweep_rwc
        caps = _capacities(spec, spec.cloud,
                           [v * REFERENCE_IWC for v in values])
    else:
        name, values = "none", (0.0,)
        caps = _capacities(spec, spec.cloud, None)
    return [SweepPoint(parameter=name, value=value,
                       cdf=CapacityCdf(samples=np.sort(c),
                                       trial_count=spec.trials))
            for value, c in zip(values, caps)]


# ============================================================
# Correlation and compensated-capacity distance sweeps
# ============================================================

@dataclasses.dataclass(frozen=True)
class DistanceSweepResult:
    """Per-distance ensemble summaries plus raw per-trial values."""

    distances: np.ndarray
    with_cloud: np.ndarray      # ensemble summary with cloud
    without_cloud: np.ndarray   # deterministic no-cloud value
    engaged: np.ndarray         # bool: any ray touches the layer
    trial_values: list          # per distance: (trials,) array or None


def _distance_scenario(spec: ExperimentSpec, distance: float,
                       compensated: bool | None = None) -> MimoScenario:
    scen = dataclasses.replace(spec.scenario, link_distance=distance)
    if compensated is not None:
        scen = dataclasses.replace(scen, compensated=compensated)
    return scen


def run_distance_sweep(spec: ExperimentSpec, metric, reducer,
                       compensated: bool | None = None) -> DistanceSweepResult:
    """Ensemble summary of a per-trial channel metric over the distance grid.

    ``metric(scenario, phases)`` evaluates the channel of a scenario under
    stacked cloud phases (a :class:`PathPhase`), or under clear sky for
    None; ``reducer`` summarizes the trial values of one distance.
    Distances where no ray reaches the layer reuse the clear-sky value
    exactly; the engaged distances are all evaluated on the same field
    draws.
    """
    distances = np.array(spec.distance_grid, dtype=float)
    scenarios = [_distance_scenario(spec, float(d), compensated)
                 for d in distances]
    without = np.array([metric(scen, None) for scen in scenarios],
                       dtype=float)
    mapped = [_segments_for(spec, spec.cloud, float(d)) for d in distances]
    engaged = np.array([hit for _, hit in mapped], dtype=bool)
    live = np.flatnonzero(engaged)
    values = trial_kernel(spec, spec.cloud, [
        (mapped[i][0], functools.partial(metric, scenarios[i]))
        for i in live])
    with_cloud = without.copy()
    trial_values: list = [None] * len(distances)
    for i, vals in zip(live, values):
        trial_values[i] = vals[0]
        with_cloud[i] = reducer(vals[0])
    return DistanceSweepResult(distances=distances, with_cloud=with_cloud,
                               without_cloud=without, engaged=engaged,
                               trial_values=trial_values)


def _coherence(scenario: MimoScenario, phases):
    return subchannel_coherence(los_channel(scenario, phases))


def run_correlation_sweep(spec: ExperimentSpec) -> DistanceSweepResult:
    """Sub-channel correlation with and without cloud over a distance grid.

    Engaged distances average the per-trial coherence over the ensemble of
    cloud realizations.
    """
    return run_distance_sweep(spec, _coherence, ensemble_mean)


def run_compensated_sweep(spec: ExperimentSpec) -> DistanceSweepResult:
    """Median compensated capacity with and without cloud over distances.

    Gains are forced to unity so only phase structure drives the capacity;
    the no-cloud capacity at each distance is deterministic.
    """
    return run_distance_sweep(spec, _capacity, np.median, compensated=True)


# ============================================================
# Monte Carlo vs analytic phase comparison
# ============================================================

@dataclasses.dataclass(frozen=True)
class PhaseCompareResult:
    """Empirical single-ray phase statistics beside the analytic model."""

    samples: np.ndarray
    empirical_mean: float
    empirical_variance: float
    empirical_excess_kurtosis: float
    cloudlet_counts: np.ndarray
    analytic: PhaseDistribution
    ks_distance: float
    bin_centres: np.ndarray
    empirical_density: np.ndarray
    analytic_density: np.ndarray


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


def run_phase_compare(spec: ExperimentSpec) -> PhaseCompareResult:
    """Histogram the Monte Carlo single-ray phase against the Laplace model.

    One centre ray is traced per trial through a fresh field.  This is a
    pure comparison: the analytic constants were fitted elsewhere, so no
    agreement is enforced, only measured.
    """
    link = broadside_link(
        num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
        link_distance=spec.scenario.link_distance,
        elevation_deg=spec.elevation_deg,
        cloud_upper_altitude=spec.cloud_upper_altitude,
        layer_thickness=spec.cloud.thickness_d)
    segments = map_rays_to_field(build_rays(link), link, spec.cloud)

    def phase_and_count(phases):
        return np.stack([phases.per_ray_phase[..., 0],
                         phases.per_ray_cloudlet_count[..., 0]], axis=-1)

    pairs = trial_kernel(spec, spec.cloud,
                         [(segments, phase_and_count)])[0][0]
    samples = np.ascontiguousarray(pairs[:, 0])
    counts = pairs[:, 1].astype(int)
    analytic = stationary_distribution(AnalyticParams(spec.cloud, spec.physics))

    if analytic.sigma_c2 > 0.0:
        ks = _laplace_ks_distance(samples, analytic.phi0,
                                  math.sqrt(analytic.sigma_c2 / 2.0))
    else:
        # Point-mass reference: the KS distance is the worst-case gap
        # between the empirical CDF and a unit step at phi0.
        below = float(np.mean(samples < analytic.phi0))
        at_or_below = float(np.mean(samples <= analytic.phi0))
        ks = max(below, 1.0 - at_or_below)

    lo, hi = float(samples.min()), float(samples.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(samples, bins=101, range=(lo, hi),
                                  density=True)
    centres = (edges[:-1] + edges[1:]) / 2.0
    if analytic.sigma_c2 > 0.0:
        analytic_density = np.asarray(laplace_pdf(centres, analytic))
    else:
        analytic_density = np.zeros_like(centres)
    return PhaseCompareResult(
        samples=samples, empirical_mean=float(samples.mean()),
        empirical_variance=float(samples.var()),
        empirical_excess_kurtosis=_excess_kurtosis(samples),
        cloudlet_counts=counts, analytic=analytic, ks_distance=ks,
        bin_centres=centres, empirical_density=density,
        analytic_density=analytic_density)


# ============================================================
# Operation counting
# ============================================================

@dataclasses.dataclass(frozen=True)
class MacCountResult:
    """Average multiply-accumulate count per simulation round.

    One round is one field generation plus one ray's phase accrual.  The
    counting convention: every scalar multiply, multiply-add, division and
    random draw counts one; additions, comparisons and square roots are
    free.
    """

    per_round: np.ndarray
    average: float
    rounds: int
    reference: int = REFERENCE_MAC_PER_ROUND
    grid_model_reference: int = GRID_MODEL_REFERENCE_MAC

    @property
    def within_order_of_magnitude(self) -> bool:
        if self.average <= 0.0:
            return False
        ratio = self.reference / self.average
        return 0.1 <= ratio <= 10.0


def _instrumented_round(cloud: CloudConfig, segment, physics: PhysicsParams,
                        rng: np.random.Generator) -> tuple[int, float]:
    """Scalar mirror of one generation + single-ray phase round.

    Re-implements the production arithmetic operation by operation with an
    explicit counter so the count reflects work actually performed; the
    returned phase must (and does, see tests) match the vectorized path.
    """
    mac = 0
    ratio = cloud.thickness_d / cloud.max_thickness_dmax
    mac += 1                                     # thickness ratio division
    radius = cloud.smoothness_alpha * cloud.width_w * math.sqrt(ratio) / 2.0
    mac += 3                                     # two multiplies, one division
    mean = cloud.density_lambda_s * cloud.width_w * cloud.thickness_d
    mac += 2
    n = int(rng.poisson(mean))
    mac += 1                                     # one draw
    xs = rng.uniform(0.0, cloud.width_w, n)
    ys = rng.uniform(0.0, cloud.thickness_d, n)
    iwc = cloud.max_iwc_c * rng.random(n)
    mac += 6 * n                                 # three draws + three scalings

    eps = physics.ice_permittivity_real
    coef = (3.0 * physics.sphere_density_n * physics.sphere_volume_vice
            * (1.0 / REFERENCE_IWC) * (eps - 1.0) / (eps + 1.0))
    mac += 6
    lam0 = SPEED_OF_LIGHT / physics.carrier_frequency
    k0 = 2.0 * math.pi / lam0
    mac += 3
    r2 = radius * radius
    mac += 1

    ax, ay = float(segment.start[0]), float(segment.start[1])
    length = segment.length
    phi = 0.0
    if length > 0.0:
        ux = (float(segment.end[0]) - ax) / length
        uy = (float(segment.end[1]) - ay) / length
        mac += 2
        for j in range(n):
            wx = xs[j] - ax
            wy = ys[j] - ay
            t = wx * ux + wy * uy
            mac += 2
            perp2 = wx * wx + wy * wy - t * t
            mac += 3
            half2 = r2 - perp2
            if half2 <= 0.0:
                continue
            half = math.sqrt(half2)
            s_lo = max(t - half, 0.0)
            s_hi = min(t + half, length)
            chord = s_hi - s_lo
            if chord <= 0.0:
                continue
            eps_c = coef * iwc[j]
            phi += k0 * chord * eps_c
            mac += 3
    return mac, phi


def run_mac_count(spec: ExperimentSpec) -> MacCountResult:
    """Average the instrumented per-round operation count over many rounds."""
    link = broadside_link(
        num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
        link_distance=spec.scenario.link_distance,
        elevation_deg=spec.elevation_deg,
        cloud_upper_altitude=spec.cloud_upper_altitude,
        layer_thickness=spec.cloud.thickness_d)
    segment = map_rays_to_field(build_rays(link), link, spec.cloud)[0]
    counts = np.zeros(spec.trials, dtype=np.int64)
    for t, rng in enumerate(trial_streams(spec.master_seed, spec.trials)):
        counts[t], _ = _instrumented_round(spec.cloud, segment, spec.physics,
                                           rng)
    return MacCountResult(per_round=counts, average=float(counts.mean()),
                          rounds=spec.trials)


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


def results_csv_text(spec: ExperimentSpec, result) -> str:
    """Plot-ready CSV body for any experiment result."""
    if spec.mode == "capacity-cdf":
        # One row per trial: the point's two columns are formatted once,
        # the samples with the shortest round-trip repr of format_csv.
        lines = ["sweep,sweep_value,capacity_bps_hz\n"]
        for point in result:
            prefix = f"{point.parameter},{float(point.value)!r},"
            lines.extend(prefix + cell + "\n"
                         for cell in map(repr, point.cdf.samples.tolist()))
        return "".join(lines)
    if spec.mode == "correlation":
        rows = [(float(d), float(w), float(c)) for d, w, c in
                zip(result.distances, result.with_cloud,
                    result.without_cloud)]
        return format_csv("distance_m,corr_cloud,corr_clear", rows)
    if spec.mode == "compensated":
        rows = [(float(d), float(w), float(c)) for d, w, c in
                zip(result.distances, result.with_cloud,
                    result.without_cloud)]
        return format_csv(
            "distance_m,median_capacity_cloud_bps_hz,"
            "median_capacity_clear_bps_hz", rows)
    if spec.mode == "phase-compare":
        rows = [(float(p), float(e), float(a)) for p, e, a in
                zip(result.bin_centres, result.empirical_density,
                    result.analytic_density)]
        return format_csv("phi_rad,empirical_density,analytic_density", rows)
    if spec.mode == "mac-count":
        rows = [(i, int(c)) for i, c in enumerate(result.per_round)]
        return format_csv("round,mac_count", rows)
    raise ConfigurationError(f"mode {spec.mode!r} has no CSV writer here")


def run_report(spec: ExperimentSpec, result) -> dict:
    """Mode-specific summary embedded in the manifest."""
    if spec.mode == "capacity-cdf":
        return {
            "points": [{
                "parameter": point.parameter, "value": point.value,
                "median_bps_hz": outage_capacity(point.cdf, 0.5),
                "outage_bps_hz": outage_capacity(
                    point.cdf, spec.outage_probability),
                "outage_probability": spec.outage_probability,
            } for point in result],
        }
    if spec.mode in ("correlation", "compensated"):
        return {
            "distances_m": [float(v) for v in result.distances],
            "with_cloud": [float(v) for v in result.with_cloud],
            "without_cloud": [float(v) for v in result.without_cloud],
            "engaged": [bool(v) for v in result.engaged],
        }
    if spec.mode == "phase-compare":
        return {
            "empirical": {
                "mean_rad": result.empirical_mean,
                "variance_rad2": result.empirical_variance,
                "excess_kurtosis": result.empirical_excess_kurtosis,
                "mean_cloudlet_count": float(result.cloudlet_counts.mean()),
            },
            "analytic": {
                "phi0_rad": result.analytic.phi0,
                "sigma_c2_rad2": result.analytic.sigma_c2,
                "excess_kurtosis": 3.0,
            },
            "ks_distance": result.ks_distance,
            "note": ("comparison only: the analytic constants were fitted "
                     "to measurements that are not available here"),
        }
    if spec.mode == "mac-count":
        return {
            "average_mac_per_round": result.average,
            "rounds": result.rounds,
            "reference_mac_per_round": result.reference,
            "grid_model_reference_mac": result.grid_model_reference,
            "within_order_of_magnitude": result.within_order_of_magnitude,
            "scope": ("one round = one field generation plus one ray's "
                      "phase accrual"),
            "convention": ("multiplies, multiply-adds, divisions and random "
                           "draws count 1; additions, comparisons and "
                           "square roots count 0"),
        }
    return {}


ASSUMED_PARAMETER_KEYS = (
    "cloud.alpha", "physics.sphere_density_n",
    "physics.sphere_volume_vice", "physics.ice_permittivity_real",
)


def build_manifest(spec: ExperimentSpec, report: dict,
                   explicit_keys=(), wall_time_s: float = 0.0,
                   version: str = __version__) -> dict:
    """Manifest that reproduces the run when fed back as a config."""
    flat = spec_to_flat(spec)
    assumed = {key: flat[key] for key in ASSUMED_PARAMETER_KEYS
               if key not in set(explicit_keys)}
    return {
        "tool": "cloudmimo",
        "version": version,
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
