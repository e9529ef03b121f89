"""Tests for the Monte Carlo experiment runner and run artifacts."""
import dataclasses
import math

import numpy as np
import pytest

from cloudmimo.analyticmodel import AnalyticParams, stationary_distribution
from cloudmimo.cloudfield import CloudConfig, cloudlet_radius, generate_field
from cloudmimo.errors import ConfigurationError, ResourceLimitError
import cloudmimo
from cloudmimo import experiment, streams
from cloudmimo.experiment import (ASSUMED_PARAMETER_KEYS, NUMERICS_VERSION,
                                  CapacityCdf, MacCountResult, SweepPoint,
                                  ExperimentSpec, _instrumented_round,
                                  build_manifest, format_csv, outage_capacity,
                                  run_capacity_cdf, run_compensated_sweep,
                                  run_correlation_sweep, run_mac_count,
                                  run_phase_compare, run_report,
                                  results_csv_text, spec_from_flat,
                                  spec_to_flat, trial_kernel)
from cloudmimo.mimochannel import MimoScenario, capacity_bits, los_channel
from cloudmimo.phasephysics import PhysicsParams, path_phase
from cloudmimo.raygeometry import (broadside_link, build_rays,
                                   map_rays_to_field)
from cloudmimo.streams import trial_seed


def make_cloud(**overrides) -> CloudConfig:
    base = dict(width_w=20.0, thickness_d=1000.0, max_thickness_dmax=1000.0,
                density_lambda_s=0.002, smoothness_alpha=0.5, max_iwc_c=0.4,
                drift_speed_vb=1000.0, rng_seed=0)
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
                physics=PhysicsParams(), mode="capacity-cdf", trials=8,
                master_seed=7)
    args.update(overrides)
    return ExperimentSpec(**args)


# ============================================================
# Per-trial seeding
# ============================================================

def test_trial_seed_is_deterministic():
    assert trial_seed(0, 5) == trial_seed(0, 5)
    assert trial_seed(123, 0) == trial_seed(123, 0)


def test_trial_seed_distinct_across_trials_and_masters():
    seeds = {trial_seed(0, t) for t in range(200)}
    assert len(seeds) == 200
    assert trial_seed(0, 3) != trial_seed(1, 3)


def test_trial_seed_fits_in_64_bits():
    for t in (0, 1, 999):
        s = trial_seed(42, t)
        assert 0 <= s < 2 ** 64


# ============================================================
# Specification validation
# ============================================================

def test_spec_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        make_spec(mode="bogus", trials=0, dt=-1.0, threads=0,
                  outage_probability=0.0,
                  sweep_rwc=(0.5,), sweep_thickness=(100.0,))
    message = str(err.value)
    for fragment in ("unknown mode", "trials", "dt", "threads",
                     "outage_probability", "exclusive"):
        assert fragment in message


def test_spec_rejects_negative_master_seed():
    with pytest.raises(ConfigurationError, match="master_seed"):
        make_spec(master_seed=-1)
    make_spec(master_seed=0)  # no raise


def test_spec_rejects_frequency_disagreement():
    with pytest.raises(ConfigurationError, match="disagree"):
        make_spec(scenario=make_scenario(carrier_frequency=28e9))


def test_spec_requires_grid_for_distance_sweeps():
    for mode in ("correlation", "compensated"):
        with pytest.raises(ConfigurationError, match="distance grid"):
            make_spec(mode=mode)
        make_spec(mode=mode, distance_grid=(20000.0, 40000.0))  # no raise


def test_spec_rejects_negative_sweep_values():
    with pytest.raises(ConfigurationError, match="water content"):
        make_spec(sweep_rwc=(-0.1,))
    with pytest.raises(ConfigurationError, match="thickness"):
        make_spec(sweep_thickness=(0.0,))
    with pytest.raises(ConfigurationError, match="distance grid"):
        make_spec(mode="correlation", distance_grid=(0.0, 20000.0))


# ============================================================
# Outage capacity (nearest-rank lower quantile)
# ============================================================

def test_outage_capacity_nearest_rank():
    cdf = CapacityCdf(samples=np.array([10.0, 20.0, 30.0, 40.0]),
                      trial_count=4)
    assert outage_capacity(cdf, 0.5) == 20.0
    assert outage_capacity(cdf, 0.25) == 10.0
    assert outage_capacity(cdf, 0.26) == 20.0
    assert outage_capacity(cdf, 1.0) == 40.0
    assert outage_capacity(cdf, 0.001) == 10.0


def test_outage_capacity_rejects_bad_probability():
    cdf = CapacityCdf(samples=np.array([1.0]), trial_count=1)
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            outage_capacity(cdf, p)


def test_outage_capacity_rejects_empty_cdf():
    empty = CapacityCdf(samples=np.array([]), trial_count=0)
    with pytest.raises(ConfigurationError):
        outage_capacity(empty, 0.5)


# ============================================================
# Trial kernel
# ============================================================

def _per_trial_outputs(spec: ExperimentSpec) -> dict:
    cdf = run_capacity_cdf(dataclasses.replace(spec, sweep_rwc=(0.4, 0.8)))
    corr = run_correlation_sweep(dataclasses.replace(
        spec, mode="correlation", distance_grid=(2000.0, 20000.0, 30000.0)))
    phase = run_phase_compare(dataclasses.replace(
        spec, mode="phase-compare",
        scenario=make_scenario(link_distance=30000.0)))
    return {"capacity": [p.cdf.samples for p in cdf],
            "correlation": [corr.trial_values[1], corr.trial_values[2]],
            "phase": [phase.samples, phase.cloudlet_counts]}


def test_kernel_results_do_not_depend_on_block_size(monkeypatch):
    # ~40 cloudlets per field: 3 puts one trial in each block, 100 two
    # trials with a partial last block, the default all 25 in one block.
    # Streams derived 7 trials at a time cross the block boundaries.
    spec = make_spec(trials=25)
    reference = _per_trial_outputs(spec)
    monkeypatch.setattr(streams, "_CHUNK_TRIALS", 7)
    for block in (3, 100):
        monkeypatch.setattr(experiment, "BLOCK_CLOUDLETS", block)
        outputs = _per_trial_outputs(spec)
        for key, arrays in reference.items():
            for want, got in zip(arrays, outputs[key]):
                assert np.array_equal(want, got), (key, block)


def test_rwc_sweep_shares_one_draw_bit_for_bit():
    # One field draw serves every RWC point; each point must equal a
    # separate run at the ice water content bound rwc * 0.6 g/m^3.
    spec = make_spec(trials=12, sweep_rwc=(0.0, 0.4, 0.8))
    for point in run_capacity_cdf(spec):
        single = make_spec(trials=12, cloud=make_cloud(
            max_iwc_c=point.value * 0.6))
        alone = run_capacity_cdf(single)[0].cdf.samples
        assert np.array_equal(point.cdf.samples, alone), point.value


def test_kernel_rows_equal_single_field_path_phase(monkeypatch):
    link = broadside_link(num_tx=2, num_rx=2, tx_spacing=1.0,
                          rx_spacing=6.0827, link_distance=40000.0,
                          elevation_deg=90.0, cloud_upper_altitude=8000.0,
                          layer_thickness=1000.0)

    def both(phases):
        return np.concatenate([phases.per_ray_phase,
                               phases.per_ray_cloudlet_count], axis=-1)

    for lambda_s, block, chunk in (
            # ~40 cloudlets per field, 2 trials per block, streams derived
            # 3 trials at a time: block and chunk boundaries cross.
            (0.002, 100, 3),
            # ~1 cloudlet per field, 2 trials per block: the draw buffer
            # starts at 2 * BLOCK_CLOUDLETS = 4 columns, so a block outgrows
            # it after its first field, and some fields are empty.
            (0.00005, 2, 1024),
            # ~0.2 cloudlets per field, all trials in one block.
            (0.00001, 8192, 1024)):
        monkeypatch.setattr(experiment, "BLOCK_CLOUDLETS", block)
        monkeypatch.setattr(streams, "_CHUNK_TRIALS", chunk)
        spec = make_spec(trials=40, master_seed=4,
                         cloud=make_cloud(density_lambda_s=lambda_s))
        segments = map_rays_to_field(build_rays(link), link, spec.cloud)
        rows = trial_kernel(spec, spec.cloud, [(segments, both)])[0][0]
        rays = len(segments)
        assert rows.shape == (40, 2 * rays)
        assert np.any(rows[:, rays:] > 0)    # the rays do pierce cloudlets
        fields = [generate_field(dataclasses.replace(
            spec.cloud, rng_seed=trial_seed(spec.master_seed, t)))
            for t in range(spec.trials)]
        for t, field in enumerate(fields):
            single = path_phase(field, segments, spec.physics)
            assert np.array_equal(rows[t, :rays], single.per_ray_phase)
            assert np.array_equal(rows[t, rays:],
                                  single.per_ray_cloudlet_count)
        counts = np.array([field.count for field in fields])
        if lambda_s < 0.002:
            assert np.any(counts == 0), lambda_s
        if block == 2:
            # The first block that outgrows the buffer has a non-empty
            # first field, so growing it must keep what was drawn.
            pairs = counts.reshape(-1, 2)
            first = np.flatnonzero(pairs.sum(axis=1) > 2 * block)[0]
            assert pairs[first, 0] > 0


def test_kernel_without_points_draws_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a field was drawn")

    monkeypatch.setattr(experiment, "draw_fields", fail)
    spec = make_spec(mode="correlation", trials=4, distance_grid=(2000.0,))
    assert trial_kernel(spec, spec.cloud, []) == []
    result = run_correlation_sweep(spec)
    assert not result.engaged[0]
    assert result.with_cloud[0] == result.without_cloud[0]


def test_kernel_enforces_the_expected_cloudlet_cap():
    spec = make_spec(trials=2, cloud=make_cloud(density_lambda_s=1e6))
    with pytest.raises(ResourceLimitError, match="expected cloudlet count"):
        run_capacity_cdf(spec)


# ============================================================
# Capacity CDF runs
# ============================================================

def test_capacity_cdf_single_point_without_sweep():
    spec = make_spec(trials=6)
    points = run_capacity_cdf(spec)
    assert len(points) == 1
    point = points[0]
    assert point.parameter == "none"
    assert point.value == 0.0
    assert point.cdf.trial_count == 6
    assert point.cdf.samples.shape == (6,)
    assert np.all(np.diff(point.cdf.samples) >= 0.0)


def test_capacity_cdf_rwc_sweep_orders_points():
    spec = make_spec(trials=4, sweep_rwc=(0.8, 0.2))
    points = run_capacity_cdf(spec)
    assert [p.parameter for p in points] == ["rwc", "rwc"]
    assert [p.value for p in points] == [0.8, 0.2]


def test_capacity_cdf_zero_water_matches_clear_sky_exactly():
    # Zero ice water content makes every cloudlet transparent, so each
    # trial must reproduce the deterministic clear-sky capacity bitwise.
    spec = make_spec(trials=5, sweep_rwc=(0.0,))
    clear = capacity_bits(los_channel(spec.scenario), spec.scenario.snr_db)
    point = run_capacity_cdf(spec)[0]
    assert np.all(point.cdf.samples == clear)


def test_thickness_sweep_rebuilds_layer():
    spec = make_spec(trials=3, sweep_thickness=(500.0, 1000.0))
    points = run_capacity_cdf(spec)
    assert [p.parameter for p in points] == ["thickness_m", "thickness_m"]
    assert [p.value for p in points] == [500.0, 1000.0]


def test_thread_count_never_changes_capacity_samples():
    base = make_spec(trials=10)
    threaded = dataclasses.replace(base, threads=3)
    single = run_capacity_cdf(base)[0].cdf.samples
    pooled = run_capacity_cdf(threaded)[0].cdf.samples
    assert np.array_equal(single, pooled)


# ============================================================
# Distance sweeps
# ============================================================

def test_correlation_sweep_skips_disengaged_distances():
    # At 90 deg elevation with the layer under 8000 m altitude, a 2 km link
    # never reaches the cloud while a 30 km link crosses it.
    spec = make_spec(mode="correlation", trials=4,
                     distance_grid=(2000.0, 30000.0))
    result = run_correlation_sweep(spec)
    assert list(result.engaged) == [False, True]
    assert result.with_cloud[0] == result.without_cloud[0]
    assert result.trial_values[0] is None
    assert result.trial_values[1].shape == (4,)


def test_correlation_sweep_thread_invariance():
    spec = make_spec(mode="correlation", trials=6,
                     distance_grid=(30000.0,))
    pooled = run_correlation_sweep(dataclasses.replace(spec, threads=3))
    single = run_correlation_sweep(spec)
    assert np.array_equal(single.trial_values[0], pooled.trial_values[0])
    assert single.with_cloud[0] == pooled.with_cloud[0]


def test_compensated_sweep_forces_unit_gains():
    # The runner must ignore the scenario's uncompensated setting: its
    # clear-sky values are those of the unit-gain channel.
    spec = make_spec(mode="compensated", trials=4,
                     distance_grid=(20000.0, 40000.0))
    assert spec.scenario.compensated is False
    result = run_compensated_sweep(spec)
    for i, d in enumerate(result.distances):
        scen = dataclasses.replace(spec.scenario, link_distance=float(d),
                                   compensated=True)
        expected = capacity_bits(los_channel(scen), scen.snr_db)
        assert result.without_cloud[i] == expected


def test_compensated_sweep_reports_median():
    spec = make_spec(mode="compensated", trials=5,
                     distance_grid=(30000.0,))
    result = run_compensated_sweep(spec)
    assert result.engaged[0]
    assert result.with_cloud[0] == float(np.median(result.trial_values[0]))


# ============================================================
# Phase comparison
# ============================================================

def test_phase_compare_shapes_and_analytic_reference():
    spec = make_spec(mode="phase-compare", trials=200,
                     scenario=make_scenario(link_distance=30000.0))
    result = run_phase_compare(spec)
    assert result.samples.shape == (200,)
    assert result.cloudlet_counts.shape == (200,)
    assert np.all(result.cloudlet_counts >= 0)
    assert 0.0 <= result.ks_distance <= 1.0
    assert result.bin_centres.shape == (101,)
    assert result.empirical_density.shape == (101,)
    assert result.analytic_density.shape == (101,)
    reference = stationary_distribution(
        AnalyticParams(spec.cloud, spec.physics))
    assert result.analytic.phi0 == reference.phi0
    assert result.analytic.sigma_c2 == reference.sigma_c2


def test_phase_compare_moments_match_samples():
    spec = make_spec(mode="phase-compare", trials=150,
                     scenario=make_scenario(link_distance=30000.0))
    result = run_phase_compare(spec)
    assert result.empirical_mean == pytest.approx(result.samples.mean())
    assert result.empirical_variance == pytest.approx(result.samples.var())


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_phase_compare_statistics_equal_scipy(seed):
    # The KS distance and the kurtosis follow scipy's arithmetic exactly;
    # scipy serves only as the reference here.
    stats = pytest.importorskip("scipy.stats")
    result = run_phase_compare(make_spec(mode="phase-compare", trials=3000,
                                         master_seed=seed))
    samples, analytic = result.samples, result.analytic
    assert analytic.sigma_c2 > 0.0
    model = stats.laplace(loc=analytic.phi0,
                          scale=math.sqrt(analytic.sigma_c2 / 2.0))
    assert result.ks_distance == stats.kstest(samples, model.cdf).statistic
    assert result.empirical_excess_kurtosis == stats.kurtosis(samples)
    # The analytic model sits far from the samples (distance 1), so also
    # compare against Laplace laws near them, shifted either way.
    loc = float(np.median(samples))
    scale = float(np.mean(np.abs(samples - loc)))
    for shift in (-0.5, 0.0, 0.5):
        near = stats.laplace(loc=loc + shift * scale, scale=scale)
        ks = experiment._laplace_ks_distance(samples, loc + shift * scale,
                                             scale)
        assert 0.0 < ks < 1.0
        assert ks == stats.kstest(samples, near.cdf).statistic
    for values in (samples[:7], samples * 1e6 + 3.0,
                   np.random.default_rng(seed).laplace(size=501)):
        assert experiment._excess_kurtosis(values) == stats.kurtosis(values)


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_phase_compare_identical_samples_give_nan_kurtosis():
    stats = pytest.importorskip("scipy.stats")
    result = run_phase_compare(make_spec(
        mode="phase-compare", trials=50,
        cloud=make_cloud(density_lambda_s=0.0)))
    assert np.all(result.samples == result.samples[0])
    assert math.isnan(result.empirical_excess_kurtosis)
    assert math.isnan(stats.kurtosis(result.samples))
    # equal non-zero samples leave a rounding residue about their mean
    equal = np.full(999, 0.3)
    assert np.var(equal) > 0.0
    assert math.isnan(experiment._excess_kurtosis(equal))
    assert math.isnan(stats.kurtosis(equal))


# ============================================================
# Operation counting
# ============================================================

def test_instrumented_round_phase_matches_production():
    # The hand-counted scalar mirror must accrue the same phase as the
    # vectorized production path for the same seed, or the count would
    # describe a different computation.
    cloud = make_cloud()
    physics = PhysicsParams()
    link = broadside_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
                          link_distance=30000.0, elevation_deg=90.0,
                          cloud_upper_altitude=8000.0,
                          layer_thickness=cloud.thickness_d)
    segment = map_rays_to_field(build_rays(link), link, cloud)[0]
    for seed in (11, 222, 3333):
        mac, phi = _instrumented_round(cloud, segment, physics,
                                       np.random.default_rng(seed))
        field = generate_field(dataclasses.replace(cloud, rng_seed=seed))
        produced = path_phase(field, [segment], physics).per_ray_phase[0]
        assert mac > 0
        assert phi == pytest.approx(produced, rel=1e-12, abs=1e-18)


def test_run_mac_count_aggregates():
    spec = make_spec(mode="mac-count", trials=5,
                     scenario=make_scenario(link_distance=30000.0))
    result = run_mac_count(spec)
    assert result.per_round.shape == (5,)
    assert np.all(result.per_round > 0)
    assert result.average == pytest.approx(result.per_round.mean())
    assert result.rounds == 5


def test_within_order_of_magnitude_bounds():
    def fabricate(avg):
        return MacCountResult(per_round=np.array([avg]), average=avg,
                              rounds=1)

    assert fabricate(10367.0).within_order_of_magnitude
    assert fabricate(2000.0).within_order_of_magnitude
    assert not fabricate(100.0).within_order_of_magnitude
    assert not fabricate(200000.0).within_order_of_magnitude
    assert not fabricate(0.0).within_order_of_magnitude


# ============================================================
# Flat-config round trip and artifacts
# ============================================================

def test_spec_flat_round_trip():
    spec = make_spec(cloud=make_cloud(rng_seed=3), master_seed=3,
                     sweep_rwc=(0.2, 0.8), dt=0.5, outage_probability=0.1)
    flat = spec_to_flat(spec)
    assert "run.threads" not in flat
    rebuilt = spec_from_flat(flat)
    assert rebuilt == spec


def test_flat_key_fills_every_field_it_names():
    # One key sets both carrier frequencies, another the master seed and
    # the cloud's own seed.
    flat = spec_to_flat(make_spec())
    flat.update({"physics.carrier_frequency_hz": 60e9, "run.master_seed": 5})
    spec = spec_from_flat(flat)
    assert spec.physics.carrier_frequency == 60e9
    assert spec.scenario.carrier_frequency == 60e9
    assert spec.master_seed == 5
    assert spec.cloud.rng_seed == 5


def test_spec_from_flat_accepts_thread_hint():
    flat = spec_to_flat(make_spec(cloud=make_cloud(rng_seed=7)))
    rebuilt = spec_from_flat(flat, threads=4)
    assert rebuilt.threads == 4
    assert dataclasses.replace(rebuilt, threads=1) == spec_from_flat(flat)


def test_format_csv_uses_shortest_round_trip_floats():
    text = format_csv("a,b", [(0.1, 2), (1.0 / 3.0, "x")])
    assert text == "a,b\n0.1,2\n0.3333333333333333,x\n"
    assert format_csv("h", []) == "h\n"


def test_capacity_csv_equals_format_csv_of_its_rows():
    samples = np.array([0.1, 1.0 / 3.0, 2.0, 1e-17, 12345.678901234567])
    points = [SweepPoint(parameter=name, value=value,
                         cdf=CapacityCdf(samples=samples * (1.0 + value),
                                         trial_count=5))
              for name, value in (("rwc", 0.4), ("rwc", 1.0 / 7.0),
                                  ("thickness_m", 500.0))]
    rows = [(p.parameter, float(p.value), float(s))
            for p in points for s in p.cdf.samples]
    spec = make_spec(trials=5)
    assert results_csv_text(spec, points) == format_csv(
        "sweep,sweep_value,capacity_bps_hz", rows)
    assert results_csv_text(spec, []) == "sweep,sweep_value,capacity_bps_hz\n"


def test_results_csv_headers_per_mode():
    cdf_spec = make_spec(trials=2)
    points = [SweepPoint(parameter="rwc", value=0.5,
                         cdf=CapacityCdf(samples=np.array([1.0, 2.0]),
                                         trial_count=2))]
    text = results_csv_text(cdf_spec, points)
    assert text.splitlines()[0] == "sweep,sweep_value,capacity_bps_hz"
    assert text.splitlines()[1] == "rwc,0.5,1.0"

    corr_spec = make_spec(mode="correlation", trials=2,
                          distance_grid=(30000.0,))
    corr = run_correlation_sweep(corr_spec)
    assert results_csv_text(corr_spec, corr).splitlines()[0] == \
        "distance_m,corr_cloud,corr_clear"

    comp_spec = make_spec(mode="compensated", trials=2,
                          distance_grid=(30000.0,))
    comp = run_compensated_sweep(comp_spec)
    assert results_csv_text(comp_spec, comp).splitlines()[0] == \
        "distance_m,median_capacity_cloud_bps_hz,median_capacity_clear_bps_hz"

    pc_spec = make_spec(mode="phase-compare", trials=50,
                        scenario=make_scenario(link_distance=30000.0))
    pc = run_phase_compare(pc_spec)
    assert results_csv_text(pc_spec, pc).splitlines()[0] == \
        "phi_rad,empirical_density,analytic_density"

    mac_spec = make_spec(mode="mac-count", trials=3,
                         scenario=make_scenario(link_distance=30000.0))
    mac = run_mac_count(mac_spec)
    lines = results_csv_text(mac_spec, mac).splitlines()
    assert lines[0] == "round,mac_count"
    assert len(lines) == 4

    with pytest.raises(ConfigurationError):
        results_csv_text(make_spec(mode="field"), None)


def test_run_report_keys_per_mode():
    cdf_spec = make_spec(trials=4)
    points = run_capacity_cdf(cdf_spec)
    report = run_report(cdf_spec, points)
    entry = report["points"][0]
    assert set(entry) == {"parameter", "value", "median_bps_hz",
                          "outage_bps_hz", "outage_probability"}
    assert entry["median_bps_hz"] == outage_capacity(points[0].cdf, 0.5)

    corr_spec = make_spec(mode="correlation", trials=2,
                          distance_grid=(30000.0,))
    corr_report = run_report(corr_spec, run_correlation_sweep(corr_spec))
    assert set(corr_report) == {"distances_m", "with_cloud",
                                "without_cloud", "engaged"}

    pc_spec = make_spec(mode="phase-compare", trials=50,
                        scenario=make_scenario(link_distance=30000.0))
    pc_report = run_report(pc_spec, run_phase_compare(pc_spec))
    assert set(pc_report) == {"empirical", "analytic", "ks_distance", "note"}
    assert pc_report["analytic"]["excess_kurtosis"] == 3.0

    mac_spec = make_spec(mode="mac-count", trials=3,
                         scenario=make_scenario(link_distance=30000.0))
    mac_report = run_report(mac_spec, run_mac_count(mac_spec))
    assert mac_report["reference_mac_per_round"] == 10367

    assert run_report(make_spec(mode="field"), None) == {}


def test_build_manifest_contents():
    spec = make_spec(trials=4)
    report = {"placeholder": True}
    manifest = build_manifest(spec, report, explicit_keys=("cloud.alpha",),
                              wall_time_s=1.5)
    assert manifest["tool"] == "cloudmimo"
    assert manifest["mode"] == "capacity-cdf"
    assert manifest["config"] == spec_to_flat(spec)
    assert "run.threads" not in manifest["config"]
    assert manifest["quantile_convention"] == "nearest-rank lower"
    assert manifest["report"] is report
    assert manifest["wall_time_s"] == 1.5
    assert manifest["cloudlet_radius_m"] == cloudlet_radius(spec.cloud)
    # Explicitly set keys drop out of the assumed-default record.
    assert "cloud.alpha" not in manifest["assumed_defaults"]
    remaining = set(ASSUMED_PARAMETER_KEYS) - {"cloud.alpha"}
    assert set(manifest["assumed_defaults"]) == remaining


def test_build_manifest_records_numerics_outside_config():
    manifest = build_manifest(make_spec(), {})
    assert manifest["numerics"] == NUMERICS_VERSION
    assert not any("numerics" in key for key in manifest["config"])


def test_build_manifest_records_the_package_version_by_default():
    assert build_manifest(make_spec(), {})["version"] == cloudmimo.__version__
    assert build_manifest(make_spec(), {}, version="9")["version"] == "9"


def test_build_manifest_lists_all_assumed_defaults_by_default():
    manifest = build_manifest(make_spec(), {}, explicit_keys=())
    assert set(manifest["assumed_defaults"]) == set(ASSUMED_PARAMETER_KEYS)
