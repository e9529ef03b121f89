"""Tests for the closed-form phase distribution model."""
import math

import numpy as np
import pytest
from scipy import integrate

from cloudmimo import (AnalyticParams, CloudConfig, ConfigurationError,
                       DegenerateDistributionError, ModelValidityWarning,
                       PhaseDistribution, PhysicsParams, chord_moments,
                       closed_form_stationary, count_weight,
                       drift_length_variance, drift_phase_variance,
                       gaussian_pdf, laplace_pdf, sample_total_phase,
                       stationary_distribution, stationary_report,
                       time_varying_distribution, total_phase_pdf)

# Frozen expectations from independent high-precision evaluation of the
# fitted expressions at the default 20 m x 1000 m configuration.
COUNT_WEIGHT_AT_0 = 0.11996667129586766
CHORD_M1_R5 = 3.2729330576279382e-05      # E(l) at radius 5 m
CHORD_M2_R5 = 0.00018241301656396135      # E(l^2) at radius 5 m
CHORD_M1_R1 = 3.6922094891159524e-14      # E(l) at radius 1 m
CHORD_M2_R1 = -1.1792744414539183e-13     # E(l^2) at radius 1 m (negative)
GOLDEN_PHI0 = 1.8249891292798287e-07
GOLDEN_SIGMA_C2 = 1.5709124908486509e-10
CLOSED_FORM_PHI0 = 3.5715256841279818e-20
CLOSED_FORM_SIGMA_C2 = 7.2530732598122967e-15
DRIFT_PHASE_VAR_1S = 8.2286874691917136e-06
DRIFT_LENGTH_VAR_1S = 31.622776601683793   # sqrt(1000)


def default_params(**cloud_overrides):
    return AnalyticParams(CloudConfig(**cloud_overrides), PhysicsParams())


# ============================================================
# Fit ingredients
# ============================================================

def test_count_weight_peak_and_centre_at_reference_thickness():
    params = default_params()
    assert params.count_weight_peak == pytest.approx(0.12, rel=1e-15)
    assert params.count_weight_centre == pytest.approx(0.5, rel=1e-15)
    assert params.closed_form_centre == pytest.approx(0.0005, rel=1e-15)
    assert params.chord_fit_rate == pytest.approx(2.35, rel=1e-15)


def test_count_weight_scaling_at_half_thickness():
    params = default_params(thickness_d=500.0)
    assert params.count_weight_peak == pytest.approx(0.06, rel=1e-14)
    assert params.count_weight_centre == pytest.approx(0.75, rel=1e-14)
    assert params.chord_fit_rate == pytest.approx(2.35 / 0.7, rel=1e-14)


def test_count_weight_value_at_zero():
    assert count_weight(0, default_params()) == pytest.approx(
        COUNT_WEIGHT_AT_0, rel=1e-14)


def test_count_weight_vectorized_and_peaked():
    params = default_params()
    ks = np.arange(0, 200)
    weights = count_weight(ks, params)
    assert weights.shape == (200,)
    assert np.argmax(weights) in (0, 1)   # centre 0.5 lies between k=0 and 1
    assert np.all(weights >= 0.0)
    assert weights[150] < 1e-10 * weights[0]


def test_kmax_default_covers_the_bell():
    params = default_params()
    assert params.count_weight_kmax == 361
    with pytest.raises(ConfigurationError):
        AnalyticParams(CloudConfig(), PhysicsParams(), count_weight_kmax=-1)


def test_carrier_frequency_defaults_to_the_link_and_must_be_positive():
    assert default_params().carrier_frequency == 73.5e9
    with pytest.raises(ConfigurationError, match="carrier_frequency"):
        AnalyticParams(CloudConfig(), PhysicsParams(), carrier_frequency=0.0)


def test_chord_moments_default_radius():
    first, second = chord_moments(default_params())
    assert first == pytest.approx(CHORD_M1_R5, rel=1e-12)
    assert second == pytest.approx(CHORD_M2_R5, rel=1e-12)


def test_chord_moments_small_radius_negative_second_moment():
    # radius 1 m: the fitted second moment goes negative and is returned
    # verbatim so callers can surface the model violation
    params = default_params(width_w=4.0)
    first, second = chord_moments(params)
    assert first == pytest.approx(CHORD_M1_R1, rel=1e-12)
    assert second == pytest.approx(CHORD_M2_R1, rel=1e-12)
    assert second < 0.0


def test_phase_moments_clamp_negative_variance_with_warning():
    # radius 1 m: the negative fitted chord moment makes the conditional
    # variance slope negative, which the stationary moments clamp to 0
    params = default_params(width_w=4.0)
    with pytest.warns(ModelValidityWarning):
        dist = stationary_distribution(params)
    assert dist.sigma_c2 == 0.0
    assert dist.phi0 > 0.0


# ============================================================
# Stationary distribution
# ============================================================

def test_stationary_golden_values():
    dist = stationary_distribution(default_params())
    assert dist.phi0 == pytest.approx(GOLDEN_PHI0, rel=1e-12)
    assert dist.sigma_c2 == pytest.approx(GOLDEN_SIGMA_C2, rel=1e-12)
    assert dist.delta_sigma_c2 == 0.0


def test_stationary_stable_under_truncation_doubling():
    base = stationary_distribution(default_params())
    params = AnalyticParams(CloudConfig(), PhysicsParams(),
                            count_weight_kmax=2 * 361)
    doubled = stationary_distribution(params)
    assert abs(doubled.phi0 - base.phi0) <= 1e-10 * abs(base.phi0)
    assert abs(doubled.sigma_c2 - base.sigma_c2) \
        <= 1e-10 * abs(base.sigma_c2)


def test_stationary_zero_density_is_point_mass():
    dist = stationary_distribution(default_params(density_lambda_s=0.0))
    # the count weights still put mass near k=0; with zero ice content the
    # phase collapses instead when the content bound is zero
    zero_iwc = stationary_distribution(default_params(max_iwc_c=0.0))
    assert zero_iwc.phi0 == 0.0
    assert zero_iwc.sigma_c2 == 0.0
    assert dist.sigma_c2 >= 0.0


def test_closed_form_golden_values():
    phi0, sigma_c2, notes = closed_form_stationary(default_params())
    assert phi0 == pytest.approx(CLOSED_FORM_PHI0, rel=1e-12)
    assert sigma_c2 == pytest.approx(CLOSED_FORM_SIGMA_C2, rel=1e-12)
    assert any("unresolved" in note for note in notes)


def test_report_surfaces_divergence_without_reconciling():
    report = stationary_report(default_params(), dt=1.0)
    trunc = report["truncated_sum"]
    closed = report["closed_form"]
    assert trunc["phi0_rad"] == pytest.approx(GOLDEN_PHI0, rel=1e-12)
    assert closed["phi0_rad"] == pytest.approx(CLOSED_FORM_PHI0, rel=1e-12)
    divergence = report["path_divergence"]
    assert divergence["phi0_relative"] == pytest.approx(1.0, abs=1e-6)
    assert "no reconciliation" in divergence["note"]
    assert report["drift"]["delta_sigma_c2_rad2"] == pytest.approx(
        DRIFT_PHASE_VAR_1S, rel=1e-12)
    assert report["count_weight"]["kmax"] == 361


# ============================================================
# Drift component
# ============================================================

def test_drift_length_variance_value():
    assert drift_length_variance(default_params(), 1.0) == pytest.approx(
        DRIFT_LENGTH_VAR_1S, rel=1e-12)
    assert drift_length_variance(default_params(), 0.0) == 0.0


def test_drift_phase_variance_value_and_growth():
    params = default_params()
    assert drift_phase_variance(params, 1.0) == pytest.approx(
        DRIFT_PHASE_VAR_1S, rel=1e-12)
    assert drift_phase_variance(params, 0.0) == 0.0
    # square-root growth in dt
    assert drift_phase_variance(params, 4.0) == pytest.approx(
        2.0 * DRIFT_PHASE_VAR_1S, rel=1e-12)


def test_drift_rejects_negative_dt():
    with pytest.raises(ConfigurationError):
        drift_phase_variance(default_params(), -1.0)
    with pytest.raises(ConfigurationError):
        drift_length_variance(default_params(), -1.0)


def test_time_varying_distribution_combines_components():
    dist = time_varying_distribution(default_params(), 1.0)
    assert dist.sigma_c2 == pytest.approx(GOLDEN_SIGMA_C2, rel=1e-12)
    assert dist.delta_sigma_c2 == pytest.approx(DRIFT_PHASE_VAR_1S, rel=1e-12)
    assert dist.total_variance == pytest.approx(
        GOLDEN_SIGMA_C2 + DRIFT_PHASE_VAR_1S, rel=1e-12)


# ============================================================
# Densities
# ============================================================

def test_laplace_peak_and_decay():
    dist = PhaseDistribution(phi0=0.5, sigma_c2=4.0)
    sigma = 2.0
    peak = laplace_pdf(0.5, dist)
    assert peak == pytest.approx(1.0 / (math.sqrt(2.0) * sigma), rel=1e-14)
    # exponential decay rate sqrt(2)/sigma
    ratio = laplace_pdf(0.5 + 1.0, dist) / peak
    assert ratio == pytest.approx(math.exp(-math.sqrt(2.0) / sigma),
                                  rel=1e-12)


def test_laplace_variance_matches_parameter():
    dist = PhaseDistribution(phi0=-0.3, sigma_c2=2.5)
    sigma = math.sqrt(2.5)
    var, _ = integrate.quad(
        lambda x: (x - dist.phi0) ** 2 * laplace_pdf(x, dist),
        dist.phi0 - 40.0 * sigma, dist.phi0, limit=200)
    var2, _ = integrate.quad(
        lambda x: (x - dist.phi0) ** 2 * laplace_pdf(x, dist),
        dist.phi0, dist.phi0 + 40.0 * sigma, limit=200)
    assert var + var2 == pytest.approx(2.5, rel=1e-9)


def test_densities_reject_degenerate_distributions():
    with pytest.raises(DegenerateDistributionError):
        laplace_pdf(0.0, PhaseDistribution(phi0=0.0, sigma_c2=0.0))
    with pytest.raises(DegenerateDistributionError):
        gaussian_pdf(0.0, PhaseDistribution(phi0=0.0, sigma_c2=1.0,
                                            delta_sigma_c2=0.0))
    with pytest.raises(DegenerateDistributionError):
        total_phase_pdf(0.0, PhaseDistribution(phi0=0.0, sigma_c2=0.0,
                                               delta_sigma_c2=0.0))


def test_total_pdf_reduces_to_components():
    laplace_only = PhaseDistribution(phi0=0.1, sigma_c2=2.0)
    x = np.linspace(-5.0, 5.0, 11)
    np.testing.assert_allclose(total_phase_pdf(x, laplace_only),
                               laplace_pdf(x, laplace_only), rtol=1e-14)
    gauss_only = PhaseDistribution(phi0=0.1, sigma_c2=0.0,
                                   delta_sigma_c2=1.5)
    expected = np.exp(-(x - 0.1) ** 2 / 3.0) / math.sqrt(2.0 * math.pi * 1.5)
    np.testing.assert_allclose(total_phase_pdf(x, gauss_only), expected,
                               rtol=1e-12)


def test_total_pdf_matches_numeric_convolution():
    dist = PhaseDistribution(phi0=0.25, sigma_c2=2.0, delta_sigma_c2=1.5)
    laplace = PhaseDistribution(phi0=0.0, sigma_c2=2.0)
    s = math.sqrt(1.5)
    ys = np.linspace(-40.0, 40.0, 400_001)

    def convolved(x):
        gauss = np.exp(-(x - dist.phi0 - ys) ** 2 / (2.0 * 1.5)) \
            / math.sqrt(2.0 * math.pi * 1.5)
        return float(np.trapezoid(laplace_pdf(ys, laplace) * gauss, ys))

    for x in (-6.0, -1.0, 0.25, 0.5, 3.0, 8.0):
        assert total_phase_pdf(x, dist) == pytest.approx(convolved(x),
                                                         rel=1e-7)


def test_total_pdf_finite_and_positive_in_far_tails():
    dist = PhaseDistribution(phi0=0.0, sigma_c2=1e-10, delta_sigma_c2=8e-6)
    x = np.array([-1.0, -0.1, 0.0, 0.1, 1.0])
    values = total_phase_pdf(x, dist)
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)
    # extremely deep tail of the narrow-Laplace wide-Gaussian mix
    deep = total_phase_pdf(50.0, dist)
    assert np.isfinite(deep)
    assert deep >= 0.0


def test_total_pdf_normalization_with_model_scales():
    params = default_params()
    dist = time_varying_distribution(params, 1.0)
    std = math.sqrt(dist.total_variance)
    xs = np.linspace(dist.phi0 - 40.0 * std, dist.phi0 + 40.0 * std, 400_001)
    integral = float(np.trapezoid(total_phase_pdf(xs, dist), xs))
    assert integral == pytest.approx(1.0, abs=1e-4)


# ============================================================
# Sampling
# ============================================================

def test_sampling_deterministic_and_sized():
    dist = PhaseDistribution(phi0=0.2, sigma_c2=1.0, delta_sigma_c2=0.5)
    a = sample_total_phase(dist, 1000, np.random.default_rng(5))
    b = sample_total_phase(dist, 1000, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1000,)
    assert sample_total_phase(dist, 0, np.random.default_rng(5)).size == 0
    with pytest.raises(ConfigurationError):
        sample_total_phase(dist, -1, np.random.default_rng(5))


def test_sampling_degenerate_collapses_to_location():
    dist = PhaseDistribution(phi0=0.7, sigma_c2=0.0, delta_sigma_c2=0.0)
    samples = sample_total_phase(dist, 10, np.random.default_rng(1))
    np.testing.assert_allclose(samples, 0.7, atol=1e-15)


def test_sampling_moments_match_distribution():
    dist = PhaseDistribution(phi0=1.0, sigma_c2=4.0, delta_sigma_c2=2.0)
    samples = sample_total_phase(dist, 400_000, np.random.default_rng(11))
    assert samples.mean() == pytest.approx(1.0, abs=0.02)
    assert samples.var() == pytest.approx(6.0, rel=0.02)
