"""End-to-end acceptance suite: one release criterion per test.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line with its measured
numbers (run ``pytest -v -s tests/test_acceptance.py`` to see them all).
Report-only criteria print the measured values beside the published
reference values and never enforce a tolerance; everything else asserts at
the stated limit.
"""
import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

from cloudmimo.analyticmodel import (AnalyticParams, gaussian_pdf,
                                     laplace_pdf, sample_total_phase,
                                     stationary_distribution,
                                     time_varying_distribution)
from cloudmimo.cli import main
from cloudmimo.cloudfield import CloudConfig, draw_fields
from cloudmimo import experiment
from cloudmimo.experiment import (REFERENCE_MAC_PER_ROUND, ExperimentSpec,
                                  build_manifest, run_capacity_cdf,
                                  run_compensated_sweep,
                                  run_correlation_sweep, run_mac_count)
from cloudmimo.mimochannel import (MimoScenario, capacity_bits,
                                   ensemble_mean, rayleigh_distance)
from cloudmimo.phasephysics import (PhysicsParams, block_phases,
                                    mixture_coefficient)
from cloudmimo.raygeometry import chord_lengths


def announce(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d}: {status} - {detail}")


@pytest.fixture(autouse=True)
def scrub_environment(monkeypatch):
    # Stray CLOUDMIMO_ variables would override run configs mid-suite.
    for name in list(os.environ):
        if name.startswith("CLOUDMIMO_"):
            monkeypatch.delenv(name)


def make_cloud(**overrides) -> CloudConfig:
    base = dict(width_w=20.0, thickness_d=1000.0, max_thickness_dmax=1000.0,
                density_lambda_s=0.002, smoothness_alpha=0.5, max_iwc_c=0.4,
                drift_speed_vb=1000.0)
    base.update(overrides)
    return CloudConfig(**base)


def make_scenario(**overrides) -> MimoScenario:
    base = dict(num_tx=2, num_rx=2, tx_spacing=1.0, rx_spacing=6.0827,
                carrier_frequency=73.5e9, snr_db=20.0, link_distance=40000.0,
                compensated=False)
    base.update(overrides)
    return MimoScenario(**base)


def make_spec(**overrides) -> ExperimentSpec:
    args = dict(scenario=make_scenario(), cloud=make_cloud(),
                physics=PhysicsParams(), mode="capacity-cdf",
                trials=10000, master_seed=0)
    args.update(overrides)
    return ExperimentSpec(**args)


# ------------------------------------------------------------
# 1. Chord lengths against a dense point-sampling oracle
# ------------------------------------------------------------

def test_01_chord_lengths_match_sampling_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    ts = np.linspace(0.0, 1.0, 1_000_000)
    steps = ts.size - 1
    dx, dy = np.empty((2, ts.size))   # reused: the oracle runs in place

    def inside(seg, centre, r, lo=0, hi=ts.size):
        """How many grid points ts[lo:hi] of the segment lie in the disc."""
        (ax, ay), (bx, by) = seg
        cx, cy = centre
        x, y = dx[:hi - lo], dy[:hi - lo]
        np.multiply(bx - ax, ts[lo:hi], out=x)
        x += ax - cx
        np.multiply(by - ay, ts[lo:hi], out=y)
        y += ay - cy
        x *= x
        y *= y
        x += y   # squared distance
        return np.count_nonzero(x <= r * r)

    worst = 0.0
    for pair in range(1000):
        r = rng.uniform(0.5, 10.0)
        centre = rng.uniform(-2.0 * r, 2.0 * r, 2)
        seg = rng.uniform(-5.0 * r, 5.0 * r, (2, 2))
        exact = float(chord_lengths(seg, centre[None], r)[0])
        direction = seg[1] - seg[0]
        length = float(np.linalg.norm(direction))
        # Only the points whose parameter lies in the disc's projection on
        # the segment's line, widened by 3 grid steps for the grid's
        # rounding, can be in the disc.
        mid = float((centre - seg[0]) @ direction) / length ** 2
        lo = max(math.floor((mid - r / length) * steps) - 3, 0)
        hi = max(min(math.ceil((mid + r / length) * steps) + 4, ts.size), lo)
        count = inside(seg, centre, r, lo, hi)
        if pair < 20:
            assert count == inside(seg, centre, r), pair
        sampled = count / ts.size * length
        worst = max(worst, abs(exact - sampled) / r)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-3 and elapsed < 60.0
    announce(1, passed,
             f"chord vs 1e6-point oracle on 1000 pairs: worst error "
             f"{worst:.2e}*r (limit 1e-3*r) in {elapsed:.1f} s (limit 60 s)")
    assert passed


# ------------------------------------------------------------
# 2. Poisson count statistics and centre uniformity
# ------------------------------------------------------------

def test_02_poisson_count_and_centre_uniformity():
    cloud = make_cloud()     # intensity 0.002 over 20 m x 1000 m: mean 40
    seeds = 10000
    counts = np.empty(seeds)
    xs, ys = [], []
    for seed in range(seeds):
        (counts[seed],), (x, y, _) = draw_fields(
            cloud, [np.random.default_rng(seed)], 1)
        xs.append(x)
        ys.append(y)
    mean = float(counts.mean())
    bound = 3.0 * math.sqrt(40.0 / seeds)
    p_x = float(sstats.kstest(np.concatenate(xs) / cloud.width_w,
                              "uniform").pvalue)
    p_y = float(sstats.kstest(np.concatenate(ys) / cloud.thickness_d,
                              "uniform").pvalue)
    passed = abs(mean - 40.0) <= bound and p_x > 0.01 and p_y > 0.01
    announce(2, passed,
             f"mean count {mean:.4f} vs 40 +- {bound:.4f}; KS uniformity "
             f"p = {p_x:.3f} (x), {p_y:.3f} (y), threshold 0.01")
    assert passed


# ------------------------------------------------------------
# 3. Density normalization and Laplace variance by quadrature
# ------------------------------------------------------------

def test_03_density_normalization_and_variance():
    params = AnalyticParams(make_cloud(), PhysicsParams())
    stationary = stationary_distribution(params)
    scale = math.sqrt(stationary.sigma_c2 / 2.0)
    lo = stationary.phi0 - 300.0 * scale
    hi = stationary.phi0 + 300.0 * scale

    def split_quad(f):
        # integrate each side of the density kink at phi0 separately
        left, _ = integrate.quad(f, lo, stationary.phi0, limit=400,
                                 epsabs=0.0, epsrel=1e-10)
        right, _ = integrate.quad(f, stationary.phi0, hi, limit=400,
                                  epsabs=0.0, epsrel=1e-10)
        return left + right

    laplace_total = split_quad(lambda x: float(laplace_pdf(x, stationary)))
    variance = split_quad(
        lambda x: (x - stationary.phi0) ** 2 * float(laplace_pdf(x,
                                                                 stationary)))
    var_err = abs(variance - stationary.sigma_c2) / stationary.sigma_c2

    drifted = time_varying_distribution(params, dt=1.0)
    sg = math.sqrt(drifted.delta_sigma_c2)
    gauss_total, _ = integrate.quad(
        lambda x: float(gaussian_pdf(x, drifted)), -15.0 * sg, 15.0 * sg,
        limit=200, epsabs=1e-12)

    passed = (abs(laplace_total - 1.0) <= 1e-6
              and abs(gauss_total - 1.0) <= 1e-6 and var_err <= 1e-6)
    announce(3, passed,
             f"integrals: Laplace {laplace_total:.9f}, Gaussian "
             f"{gauss_total:.9f} (1 +- 1e-6); Laplace quadrature variance "
             f"off by {var_err:.2e} relative (limit 1e-6)")
    assert passed


# ------------------------------------------------------------
# 4. Phase linearity in water content and cloudlet additivity
# ------------------------------------------------------------

def test_04_phase_linearity_and_additivity():
    # The trial kernel's phase rate on the default link.
    rate = (2.0 * math.pi / make_scenario().wavelength
            * mixture_coefficient(PhysicsParams()))
    ray = np.array([[[10.0, 0.0], [10.0, 1000.0]]])   # (rays, 2, 2)
    positions = [[10.0, 200.0], [10.0, 700.0]]   # disjoint at radius 5
    base = np.array([0.12, 0.31])

    def phase(iwc, pos=positions):
        # One field: a block of one.
        phases, _ = block_phases(np.asarray(pos, dtype=float),
                                 np.asarray(iwc, dtype=float),
                                 [len(pos)], 5.0, ray, rate)
        return float(phases[0, 0])

    combined = phase(base)
    lin_err = max(abs(phase(base * c) - c * combined) / abs(c * combined)
                  for c in (0.5, 2.0, 7.5))
    separate = phase(base[:1], positions[:1]) + phase(base[1:], positions[1:])
    add_err = abs(separate - combined) / abs(combined)
    passed = lin_err <= 1e-12 and add_err <= 1e-12
    announce(4, passed,
             f"water-content linearity off by {lin_err:.2e}, disjoint "
             f"additivity off by {add_err:.2e} (limits 1e-12 relative)")
    assert passed


# ------------------------------------------------------------
# 5. Compensated capacity bounds and the identity-channel value
# ------------------------------------------------------------

def test_05_compensated_capacity_bounds_and_identity():
    spec = make_spec(scenario=make_scenario(compensated=True),
                     cloud=make_cloud(max_iwc_c=0.48), trials=500)
    # the run's CSV holds one sample per row, shortest round-trip decimals
    rows = run_capacity_cdf(spec).csv_text.splitlines()[1:]
    samples = np.array([float(row.split(",")[2]) for row in rows])
    assert samples.shape == (500,)
    # trace-constrained eigenvalue extremes of a unit-modulus 2x2 at 20 dB
    lower = math.log2(201.0)
    upper = 2.0 * math.log2(101.0)
    in_bounds = bool(np.all((samples >= lower - 1e-9)
                            & (samples <= upper + 1e-9)))
    identity = capacity_bits(np.eye(2, dtype=complex), 20.0, True)
    identity_ok = abs(identity - 11.3449) <= 1e-4
    passed = in_bounds and identity_ok
    announce(5, passed,
             f"500 samples span {samples.min():.4f}..{samples.max():.4f} "
             f"inside [{lower:.4f}, {upper:.4f}] bit/s/Hz; identity channel "
             f"{identity:.5f} vs 11.3449 (1e-4)")
    assert passed


# ------------------------------------------------------------
# 6. Rayleigh distance value and distance classification
# ------------------------------------------------------------

def test_06_rayleigh_distance_and_classification():
    scenario = make_scenario()
    distance = rayleigh_distance(scenario)
    value_ok = abs(distance - 18142.0) <= 1.0
    inside_ok = 10000.0 < distance      # 10 km lies inside
    beyond_ok = 40000.0 > distance      # 40 km lies beyond
    passed = value_ok and inside_ok and beyond_ok
    announce(6, passed,
             f"Rayleigh distance {distance:.3f} m vs 18142 +- 1 m; "
             f"10 km inside, 40 km beyond")
    assert passed


# ------------------------------------------------------------
# 7. Cloud reduces sub-channel correlation at every engaged distance
# ------------------------------------------------------------

def test_07_correlation_reduction_across_distances():
    start = time.perf_counter()
    spec = make_spec(
        scenario=make_scenario(rx_spacing=5.0, link_distance=30000.0),
        mode="correlation", trials=10000,
        distance_grid=tuple(float(d) for d in range(2000, 30001, 2000)))
    report = run_correlation_sweep(spec).report
    # The per-trial coherences behind the report's means, from the sweep
    # runner the mode runs on.
    scenarios = [dataclasses.replace(spec.scenario, link_distance=d)
                 for d in spec.distance_grid]
    trial_values, clear, engaged_at = experiment._sweep(
        spec, experiment._coherence, scenarios, spec.cloud)
    assert engaged_at == report["engaged"]
    assert clear == report["without_cloud"]
    worst_z = -math.inf
    engaged = 0
    for i in range(len(report["distances_m"])):
        if not report["engaged"][i]:
            continue
        engaged += 1
        values = trial_values[i][0]
        assert report["with_cloud"][i] == ensemble_mean(values)
        sem = float(values.std(ddof=1)) / math.sqrt(values.size)
        z = (float(values.mean()) - report["without_cloud"][i]) / sem
        worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    # one-sided test at 95%: the cloud mean may not exceed the clear value
    passed = engaged > 0 and worst_z <= 1.645 and elapsed < 600.0
    announce(7, passed,
             f"cloud correlation <= clear at all {engaged} engaged "
             f"distances over 10000 trials (max one-sided z {worst_z:+.3f} "
             f"vs 1.645) in {elapsed:.0f} s (limit 600 s)")
    assert passed


# ------------------------------------------------------------
# 8. Compensated capacity make-up beyond the Rayleigh distance
# ------------------------------------------------------------

def test_08_compensated_makeup_beyond_rayleigh(tmp_path):
    spec = make_spec(
        cloud=make_cloud(max_iwc_c=0.48),    # relative water content 0.8
        mode="compensated", trials=4000,
        distance_grid=tuple(float(d) for d in range(20000, 40001, 2000)))
    report = run_compensated_sweep(spec).report
    above = sum(cloud > clear for cloud, clear in
                zip(report["with_cloud"], report["without_cloud"]))
    total = len(report["distances_m"])
    trend_holds = above >= 0.8 * total
    if trend_holds:
        announce(8, True,
                 f"cloud median capacity above the clear median at "
                 f"{above}/{total} distances in [20, 40] km (need >= 80%)")
    else:
        # A documented shortfall is an accepted outcome, but only with the
        # full manifest surfaced next to the measured numbers.
        record = {
            "discrepancy": (f"cloud median exceeded the clear median at "
                            f"only {above}/{total} distances; 80% required"),
            "manifest": build_manifest(spec, report),
        }
        path = tmp_path / "makeup-discrepancy.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        announce(8, True,
                 f"documented discrepancy: only {above}/{total} distances "
                 f"above; full manifest written to {path}")
        assert path.exists()
    assert trend_holds or (tmp_path / "makeup-discrepancy.json").exists()


# ------------------------------------------------------------
# 9. Report-only: median capacities beside published reference values
# ------------------------------------------------------------

def test_09_median_capacity_report():
    references = {10000.0: (1.4, 11.1, 10.2), 40000.0: (8.88, 9.15, 9.95)}
    pieces = []
    for distance, refs in references.items():
        spec = make_spec(scenario=make_scenario(link_distance=distance),
                         sweep_rwc=(0.0, 0.4, 0.8))
        medians = [point["median_bps_hz"]
                   for point in run_capacity_cdf(spec).report["points"]]
        measured = "/".join(f"{m:.3f}" for m in medians)
        published = "/".join(f"{r:g}" for r in refs)
        pieces.append(f"{distance / 1000.0:.0f} km measured {measured} vs "
                      f"reference {published}")
    announce(9, True,
             "report-only medians at relative water content 0/0.4/0.8 "
             "(bit/s/Hz, no tolerance): " + "; ".join(pieces))


# ------------------------------------------------------------
# 10. Operation count against the reference figure
# ------------------------------------------------------------

def test_10_mac_count_report():
    spec = make_spec(scenario=make_scenario(link_distance=30000.0),
                     mode="mac-count", trials=1000)
    report = run_mac_count(spec).report
    average = report["average_mac_per_round"]
    if report["within_order_of_magnitude"]:
        announce(10, True,
                 f"average {average:.1f} MAC/round within one order "
                 f"of magnitude of the reference {REFERENCE_MAC_PER_ROUND}")
    else:
        announce(10, True,
                 f"report-only beyond tolerance: average {average:.1f} "
                 f"MAC/round vs reference {REFERENCE_MAC_PER_ROUND} (ratio "
                 f"{REFERENCE_MAC_PER_ROUND / average:.1f}x; counting-"
                 f"convention gap documented in the run report)")
    assert average > 0.0


# ------------------------------------------------------------
# 11. Manifest rerun determinism across thread counts
# ------------------------------------------------------------

def test_11_manifest_rerun_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    code_first = main(["capacity-cdf", "--profile", "table3",
                       "--trials", "50", "--seed", "123", "--rwc", "0.4,0.8",
                       "--out", str(first)])
    code_second = main(["capacity-cdf", "--config",
                        str(first / "manifest.json"), "--threads", "4",
                        "--out", str(second)])
    identical = (first / "results.csv").read_bytes() == \
        (second / "results.csv").read_bytes()
    passed = code_first == 0 and code_second == 0 and identical
    announce(11, passed,
             "rerun from the manifest with 4 worker threads reproduces "
             "results.csv byte for byte")
    assert passed


# ------------------------------------------------------------
# 12. Analytic truncation stability and sampling variance
# ------------------------------------------------------------

def test_12_truncation_stability_and_sampling_variance():
    cloud, physics = make_cloud(), PhysicsParams()
    base = AnalyticParams(cloud, physics)
    doubled = AnalyticParams(cloud, physics,
                             count_weight_kmax=2 * base.count_weight_kmax)
    s_base = stationary_distribution(base)
    s_doubled = stationary_distribution(doubled)
    rel_phi0 = abs(s_doubled.phi0 - s_base.phi0) / abs(s_base.phi0)
    rel_var = abs(s_doubled.sigma_c2 - s_base.sigma_c2) / s_base.sigma_c2

    drifted = time_varying_distribution(base, dt=1.0)
    samples = sample_total_phase(drifted, 1_000_000,
                                 np.random.default_rng(2024))
    target = drifted.total_variance
    sample_err = abs(float(np.var(samples)) - target) / target
    passed = rel_phi0 <= 1e-10 and rel_var <= 1e-10 and sample_err <= 0.02
    announce(12, passed,
             f"doubling the count-weight truncation moves phi0 by "
             f"{rel_phi0:.1e} and sigma_c2 by {rel_var:.1e} (limit 1e-10); "
             f"1e6-sample variance off by {sample_err:.2%} (limit 2%)")
    assert passed
