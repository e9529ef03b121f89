"""Closed-form stationary and time-varying cloud phase distributions.

The per-ray cloud phase is modelled as a mixture over the number of pierced
cloudlets: conditioned on piercing k cloudlets the phase has moments that are
k-fold combinations of single-chord moments, and the mixture weight of each k
follows a fitted bell curve.  The resulting stationary distribution is
Laplace; drift adds an independent zero-mean Gaussian component whose
variance grows with the square root of the elapsed time.

Two evaluation paths are provided for the stationary moments: a truncated
mixture sum built from the published chord-length and permittivity moments,
and a self-contained closed form with its own embedded fit constants.  The
two paths do not agree numerically; both are reported side by side and the
divergence is surfaced rather than reconciled.

All phases are in radians.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .cloudfield import CloudConfig, cloudlet_radius
from .errors import (ConfigurationError, DegenerateDistributionError,
                     ModelValidityError, ModelValidityWarning, NumericError)
from .phasephysics import PhysicsParams, mixture_coefficient

# Fitted constants shared by both evaluation paths.
CHORD_FIT_SCALE = 5e-16        # amplitude of the fitted chord moments [m]
CHORD_FIT_RATE_BASE = 2.35     # chord moment decay rate at D = D_max [1/m]
COUNT_WEIGHT_PEAK_BASE = 0.12  # mixture weight peak at D = D_max
COUNT_WEIGHT_WIDTH = 30.0      # mixture weight bell width in k

_MAX_EXP_ARG = 700.0           # exp() overflow guard for float64


def _pow_log2(base: float, ratio: float) -> float:
    """base ** log2(ratio); the fitted thickness-scaling primitive."""
    return base ** math.log2(ratio)


# ============================================================
# Parameters
# ============================================================

@dataclasses.dataclass(frozen=True)
class AnalyticParams:
    """Inputs of the closed-form phase model.

    Derived fit quantities (mixture peak, centre, chord rate) follow from
    the cloud configuration; ``count_weight_kmax`` bounds the truncated
    mixture sums and defaults to the bell centre plus twelve widths.
    """

    cloud: CloudConfig
    physics: PhysicsParams
    count_weight_kmax: int | None = None

    def __post_init__(self) -> None:
        if self.count_weight_kmax is None:
            kmax = int(math.ceil(self.count_weight_centre
                                 + 12.0 * COUNT_WEIGHT_WIDTH))
            object.__setattr__(self, "count_weight_kmax", kmax)
        elif self.count_weight_kmax < 0:
            raise ConfigurationError(
                f"count_weight_kmax must be >= 0, got {self.count_weight_kmax}")

    @property
    def thickness_ratio(self) -> float:
        return self.cloud.thickness_d / self.cloud.max_thickness_dmax

    @property
    def count_weight_peak(self) -> float:
        """Peak value of the mixture weight bell (B1)."""
        return COUNT_WEIGHT_PEAK_BASE * _pow_log2(2.0, self.thickness_ratio)

    @property
    def count_weight_centre(self) -> float:
        """Centre of the mixture weight bell in k (B2)."""
        return (self.cloud.density_lambda_s * self.cloud.thickness_d
                / _pow_log2(3.0, self.thickness_ratio)) / 4.0

    @property
    def closed_form_centre(self) -> float:
        """Bell centre as written in the self-contained closed forms.

        The closed forms normalise the thickness before applying the fitted
        scaling, which is not the same reading as ``count_weight_centre``;
        both are kept verbatim.
        """
        return (self.cloud.density_lambda_s * self.thickness_ratio
                * _pow_log2(3.0, self.thickness_ratio)) / 4.0

    @property
    def chord_fit_rate(self) -> float:
        """Decay rate of the fitted chord moments (k_l) [1/m]."""
        return CHORD_FIT_RATE_BASE * _pow_log2(0.7, self.thickness_ratio)


# ============================================================
# Mixture ingredients
# ============================================================

def count_weight(k, params: AnalyticParams) -> float | np.ndarray:
    """Mixture weight of the k-cloudlet component.

    A bell curve in k centred at ``count_weight_centre`` with fixed width;
    the weights are a fitted family and do not sum to one.
    """
    k = np.asarray(k, dtype=float)
    out = params.count_weight_peak * np.exp(
        -((k - params.count_weight_centre) / COUNT_WEIGHT_WIDTH) ** 2)
    return float(out) if out.ndim == 0 else out


def chord_moments(params: AnalyticParams) -> tuple[float, float]:
    """Fitted first and second moments of a single chord length.

    Returns
    -------
    (E_l, E_l2) : tuple of float
        First moment [m] and second moment [m^2] of the fitted chord-length
        distribution at the configured cloudlet radius.  The fitted second
        moment can go negative away from the fit region; the value is
        returned as computed so callers can surface the violation.
    """
    r = cloudlet_radius(params.cloud)
    kl = params.chord_fit_rate
    scale = CHORD_FIT_SCALE
    t = 2.0 * kl * r
    if t < _MAX_EXP_ARG:
        e = math.exp(t)
        first = scale / kl ** 2 * (e * (2.0 * kl * r - 1.0) + 1.0)
        second = scale / kl ** 3 * (
            e * (4.0 * kl ** 2 * r ** 2 - 4.0 * r * kl ** 3 + 2.0) - 2.0)
    else:
        # Exponential dominates; evaluate in log space and fail loudly if
        # even the logarithm overflows float64.
        log_first = t + math.log(2.0 * kl * r - 1.0) + math.log(scale) \
            - 2.0 * math.log(kl)
        poly = 4.0 * kl ** 2 * r ** 2 - 4.0 * r * kl ** 3 + 2.0
        log_second = t + math.log(abs(poly)) + math.log(scale) \
            - 3.0 * math.log(kl)
        if log_first > _MAX_EXP_ARG or log_second > _MAX_EXP_ARG:
            raise NumericError(
                f"fitted chord moments overflow at radius {r:.4g} m")
        first = math.exp(log_first)
        second = math.copysign(math.exp(log_second), poly)
    return first, second


def permittivity_moments(params: AnalyticParams) -> tuple[float, float]:
    """First and second moments of a cloudlet's excess permittivity.

    Ice water content is uniform on [0, C], so the permittivity moments are
    the mixing coefficient times C/2 and its square times C^2/3.
    """
    coef = mixture_coefficient(params.physics)
    c = params.cloud.max_iwc_c
    return coef * c / 2.0, coef ** 2 * c ** 2 / 3.0


def phase_moments_for_count(k: int,
                            params: AnalyticParams) -> tuple[float, float]:
    """Mean and variance of the phase conditioned on k pierced cloudlets.

    The mean is k single-chord phase means; the variance combines the
    second moments as ``k^2 (E(eps^2) E(l^2) - E(eps)^2 E(l)^2)``.  A
    negative variance (possible because the fitted chord moments are not a
    true moment pair everywhere) is clamped to zero with a warning.
    """
    k0 = 2.0 * np.pi / params.physics.wavelength_lambda0
    e_l, e_l2 = chord_moments(params)
    e_eps, e_eps2 = permittivity_moments(params)
    mean = k0 * k * e_l * e_eps
    var = k0 ** 2 * k ** 2 * (e_eps2 * e_l2 - e_eps ** 2 * e_l ** 2)
    if var < 0.0:
        warnings.warn(
            f"conditional phase variance is negative ({var:.4g}) at k={k}; "
            f"clamped to 0 -- the fitted chord moments are outside their "
            f"validity region", ModelValidityWarning)
        var = 0.0
    return mean, var


# ============================================================
# Stationary distribution
# ============================================================

@dataclasses.dataclass(frozen=True)
class PhaseDistribution:
    """Laplace stationary phase plus an optional Gaussian drift component."""

    phi0: float             # stationary location [rad]
    sigma_c2: float         # stationary variance [rad^2]
    delta_sigma_c2: float = 0.0   # drift component variance [rad^2]
    dt: float = 0.0               # drift interval the Gaussian refers to [s]

    @property
    def total_variance(self) -> float:
        return self.sigma_c2 + self.delta_sigma_c2


def stationary_distribution(params: AnalyticParams) -> PhaseDistribution:
    """Stationary phase distribution via the truncated mixture sum.

    The location is the weight-averaged conditional mean, and the variance
    is the squared-weight-averaged conditional variance, both truncated at
    ``count_weight_kmax`` (the bell decays fast enough that doubling the
    truncation does not move the result).
    """
    ks = np.arange(params.count_weight_kmax + 1, dtype=float)
    weights = count_weight(ks, params)
    k0 = 2.0 * np.pi / params.physics.wavelength_lambda0
    e_l, e_l2 = chord_moments(params)
    e_eps, e_eps2 = permittivity_moments(params)
    mean_slope = k0 * e_l * e_eps
    var_slope = k0 ** 2 * (e_eps2 * e_l2 - e_eps ** 2 * e_l ** 2)
    if var_slope < 0.0:
        warnings.warn(
            f"conditional phase variance slope is negative ({var_slope:.4g});"
            f" clamped to 0 -- the fitted chord moments are outside their "
            f"validity region", ModelValidityWarning)
        var_slope = 0.0
    phi0 = float(np.sum(weights * ks) * mean_slope)
    sigma_c2 = float(np.sum(weights ** 2 * ks ** 2) * var_slope)
    if not (math.isfinite(phi0) and math.isfinite(sigma_c2)):
        raise ModelValidityError(
            f"stationary moments are not finite (phi0={phi0}, "
            f"sigma_c2={sigma_c2})")
    return PhaseDistribution(phi0=phi0, sigma_c2=sigma_c2)


def closed_form_stationary(params: AnalyticParams,
                           unresolved_chord_scale: float = 0.0
                           ) -> tuple[float, float, list[str]]:
    """Self-contained closed forms for the stationary moments.

    This is the second evaluation path, transcribed with its own embedded
    constants.  One term of the variance expression multiplies an
    un-subscripted length whose meaning the source never fixes; it enters
    here as ``unresolved_chord_scale`` and defaults to 0, which drops the
    term.  The returned warnings list records that choice and any other
    validity caveat.

    Returns
    -------
    (phi0, sigma_c2, warnings) : tuple
    """
    notes = []
    cloud, phys = params.cloud, params.physics
    lam0 = phys.wavelength_lambda0
    eps = phys.ice_permittivity_real
    n_v = phys.sphere_density_n * math.pi * phys.sphere_volume_vice
    c = cloud.max_iwc_c
    b1 = params.count_weight_peak
    b2 = params.closed_form_centre
    kl = params.chord_fit_rate
    r = cloudlet_radius(cloud)
    scale = CHORD_FIT_SCALE

    phi0 = (1500.0 * n_v * (eps - 1.0) / (lam0 * (eps + 1.0))) * c * b1 \
        * math.exp(-((b2 - 34.0) / 14.0) ** 2) \
        * (scale * ((2.0 * kl - 1.0) * math.exp(kl) + 1.0) / kl ** 2)

    if unresolved_chord_scale == 0.0:
        notes.append(
            "closed-form variance: the term multiplying the unresolved "
            "chord length is dropped (unresolved_chord_scale=0)")
    t = 2.0 * kl * r
    if t > _MAX_EXP_ARG / 2.0:
        raise NumericError(
            f"closed-form variance overflows at radius {r:.4g} m")
    sigma_c2 = (98.0 * n_v * (eps - 1.0) * c * b1
                / (lam0 * (eps + 1.0))) ** 2 * (scale / kl ** 3) \
        * math.exp(-((b2 - 36.7) / 12.0) ** 2) \
        * (16.6 * math.exp(t) * (2.0 * kl ** 2 * r ** 2 - 2.0 * kl ** 3 * r
                                 - 1.5 * unresolved_chord_scale * r)
           + 6.25 * scale * math.exp(2.0 * t) * (-4.0 * kl * r ** 2
                                                 + 4.0 * r - 1.0 / kl)
           - 16.6 * ((6.25 * scale + kl) / kl))
    if sigma_c2 < 0.0:
        notes.append(
            f"closed-form variance is negative ({sigma_c2:.4g}); the "
            f"expression is outside its validity region here")
    return phi0, sigma_c2, notes


# ============================================================
# Time-varying component
# ============================================================

def drift_length_variance(params: AnalyticParams, dt: float) -> float:
    """Variance of the drift-induced chord length change over ``dt``.

    Grows with the square root of the drift distance bound, scaled down for
    thin layers.
    """
    if dt < 0.0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    return math.sqrt(dt * params.cloud.drift_speed_vb) \
        * _pow_log2(0.9, params.thickness_ratio)


def drift_phase_variance(params: AnalyticParams, dt: float) -> float:
    """Closed-form variance of the Gaussian drift phase component.

    Zero mean; the variance carries the same square-root growth in the
    drift distance as the chord length change.
    """
    if dt < 0.0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    cloud, phys = params.cloud, params.physics
    eps = phys.ice_permittivity_real
    n_v = phys.sphere_density_n * math.pi * phys.sphere_volume_vice
    b2 = params.closed_form_centre
    return 2400.0 * math.sqrt(dt * cloud.drift_speed_vb) \
        * (3.0 * math.sqrt(3.0) * n_v * (eps - 1.0) * cloud.max_iwc_c
           * params.count_weight_peak / (10.0 * phys.wavelength_lambda0
                                         * (eps + 1.0))) \
        * _pow_log2(0.9, params.thickness_ratio) \
        * math.exp(-((b2 - 36.7) / 12.0) ** 2)


def time_varying_distribution(params: AnalyticParams,
                              dt: float) -> PhaseDistribution:
    """Stationary distribution augmented with the drift Gaussian for ``dt``."""
    stat = stationary_distribution(params)
    return dataclasses.replace(stat, delta_sigma_c2=drift_phase_variance(params, dt),
                               dt=dt)


# ============================================================
# Densities and sampling
# ============================================================

def laplace_pdf(phi, dist: PhaseDistribution) -> float | np.ndarray:
    """Stationary Laplace density with variance exactly ``sigma_c2``."""
    if dist.sigma_c2 <= 0.0:
        raise DegenerateDistributionError(
            "stationary variance is zero: the phase is a point mass at "
            "phi0 and has no density")
    sigma = math.sqrt(dist.sigma_c2)
    phi = np.asarray(phi, dtype=float)
    out = (1.0 / (math.sqrt(2.0) * sigma)
           * np.exp(-np.abs(phi - dist.phi0) * math.sqrt(2.0) / sigma))
    return float(out) if out.ndim == 0 else out


def gaussian_pdf(phi, dist: PhaseDistribution) -> float | np.ndarray:
    """Density of the zero-mean Gaussian drift component."""
    if dist.delta_sigma_c2 <= 0.0:
        raise DegenerateDistributionError(
            "drift variance is zero: the drift component is a point mass "
            "at 0 and has no density")
    s2 = dist.delta_sigma_c2
    phi = np.asarray(phi, dtype=float)
    out = np.exp(-phi ** 2 / (2.0 * s2)) / math.sqrt(2.0 * np.pi * s2)
    return float(out) if out.ndim == 0 else out


def total_phase_pdf(phi, dist: PhaseDistribution) -> float | np.ndarray:
    """Density of the total phase: Laplace convolved with the drift Gaussian.

    Uses the closed form of the Laplace-normal convolution written with the
    scaled complementary error function, which stays finite far into the
    tails.  Degenerate components reduce to the surviving density.
    """
    if dist.sigma_c2 <= 0.0 and dist.delta_sigma_c2 <= 0.0:
        raise DegenerateDistributionError(
            "total phase is a point mass at phi0 and has no density")
    if dist.sigma_c2 <= 0.0:
        return gaussian_pdf(np.asarray(phi, dtype=float) - dist.phi0, dist)
    if dist.delta_sigma_c2 <= 0.0:
        return laplace_pdf(phi, dist)
    # Imported here: scipy takes longer to import than most runs take.
    from scipy.special import erfcx
    b = math.sqrt(dist.sigma_c2 / 2.0)
    s = math.sqrt(dist.delta_sigma_c2)
    z = np.asarray(phi, dtype=float) - dist.phi0
    gauss_log = -z ** 2 / (2.0 * s ** 2)
    total = np.zeros_like(z)
    for sign in (1.0, -1.0):
        u = (sign * z / s + s / b) / math.sqrt(2.0)
        pos = u >= 0.0
        term = np.empty_like(z)
        term[pos] = np.exp(gauss_log[pos]) * erfcx(u[pos])
        if np.any(~pos):
            # erfcx(u) = 2 exp(u^2) - erfcx(-u); the combined exponent
            # simplifies to the Laplace tail and never overflows where
            # this branch is active.
            tail = np.exp(np.minimum(
                s ** 2 / (2.0 * b ** 2) + sign * z[~pos] / b, _MAX_EXP_ARG))
            term[~pos] = 2.0 * tail - np.exp(gauss_log[~pos]) * erfcx(-u[~pos])
        total += term
    out = total / (4.0 * b)
    return float(out) if out.ndim == 0 else out


def sample_total_phase(dist: PhaseDistribution, count: int,
                       seed: int) -> np.ndarray:
    """Draw total phases: Laplace stationary plus Gaussian drift samples.

    Degenerate components collapse to constants, so a fully degenerate
    distribution yields ``phi0`` repeated.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    laplace_scale = math.sqrt(dist.sigma_c2 / 2.0)
    samples = rng.laplace(dist.phi0, laplace_scale, count)
    if dist.delta_sigma_c2 > 0.0:
        samples = samples + rng.normal(0.0, math.sqrt(dist.delta_sigma_c2),
                                       count)
    return samples


# ============================================================
# Side-by-side report
# ============================================================

def stationary_report(params: AnalyticParams, dt: float = 0.0,
                      unresolved_chord_scale: float = 0.0) -> dict:
    """Both evaluation paths of the stationary moments, side by side.

    The truncated-sum path feeds every downstream computation; the closed
    forms are reported next to it together with their relative divergence
    and any validity warnings.  Nothing is reconciled.
    """
    collected: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelValidityWarning)
        stat = time_varying_distribution(params, dt)
        collected.extend(str(w.message) for w in caught)
    phi0_cf, sigma_cf, notes = closed_form_stationary(
        params, unresolved_chord_scale)
    collected.extend(notes)

    def rel_divergence(a: float, b: float) -> float | None:
        denom = max(abs(a), abs(b))
        return abs(a - b) / denom if denom > 0.0 else None

    return {
        "truncated_sum": {"phi0_rad": stat.phi0,
                          "sigma_c2_rad2": stat.sigma_c2},
        "closed_form": {"phi0_rad": phi0_cf, "sigma_c2_rad2": sigma_cf},
        "path_divergence": {
            "phi0_relative": rel_divergence(stat.phi0, phi0_cf),
            "sigma_c2_relative": rel_divergence(stat.sigma_c2, sigma_cf),
            "note": ("the two evaluation paths are reported side by side; "
                     "they disagree and no reconciliation is attempted"),
        },
        "drift": {"dt_s": dt,
                  "delta_sigma_c2_rad2": stat.delta_sigma_c2,
                  "length_change_variance": drift_length_variance(params, dt)},
        "count_weight": {"peak": params.count_weight_peak,
                         "centre": params.count_weight_centre,
                         "closed_form_centre": params.closed_form_centre,
                         "kmax": params.count_weight_kmax},
        "warnings": collected,
    }
