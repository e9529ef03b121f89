"""Tests for the Monte Carlo experiment runner and run artifacts."""
import dataclasses
import errno
import itertools
import json
import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cloudmimo.analyticmodel import AnalyticParams, stationary_distribution
from cloudmimo.cloudfield import CloudConfig, cloudlet_radius, draw_fields
from cloudmimo.errors import (ConfigurationError, ModelValidityWarning,
                              ResourceLimitError)
import cloudmimo
from cloudmimo import experiment, streams
from cloudmimo.cli import assemble_config
from cloudmimo.experiment import (ASSUMED_PARAMETER_KEYS, CONFIG_SCHEMA,
                                  MODES, NUMERICS_VERSION, ExperimentSpec,
                                  build_manifest, format_csv,
                                  outage_capacity, parse_config_value,
                                  run_capacity_cdf,
                                  run_compensated_sweep,
                                  run_correlation_sweep, run_mac_count,
                                  run_phase_compare, spec_from_flat,
                                  spec_to_flat, trial_kernel)
from cloudmimo.mimochannel import MimoScenario, capacity_bits, los_channel
from cloudmimo.phasephysics import (REFERENCE_IWC, PhysicsParams,
                                    block_phases, mixture_coefficient)
from cloudmimo.raygeometry import map_rays_to_field
from cloudmimo.streams import trial_seed


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
                physics=PhysicsParams(), mode="capacity-cdf", trials=8,
                master_seed=7)
    args.update(overrides)
    return ExperimentSpec(**args)


# What a run returns is its CSV text and report.  The CSV holds shortest
# round-trip decimals, so the values parsed from it are the run's own; the
# per-trial values behind a summary come from the sweep runner or the
# trial kernel themselves.

def capacity_points(run) -> list:
    """(parameter, value, samples) of each capacity-cdf point, from its CSV."""
    header, *rows = run.csv_text.splitlines()
    assert header == "sweep,sweep_value,capacity_bps_hz"
    cells = [row.split(",") for row in rows]
    return [(name, float(value), np.array([float(c[2]) for c in group]))
            for (name, value), group in itertools.groupby(
                cells, key=lambda c: (c[0], c[1]))]


def csv_columns(run) -> np.ndarray:
    """The numeric columns of a run's CSV, one row per line."""
    return np.array([[float(v) for v in row.split(",")]
                     for row in run.csv_text.splitlines()[1:]])


def trial_values(spec: ExperimentSpec, metric):
    """The (distances, trials) metric values of the grid, and whether each
    distance reaches the layer."""
    scenarios = [dataclasses.replace(spec.scenario, link_distance=d)
                 for d in spec.distance_grid]
    values, _, engaged = experiment._sweep(spec, metric, scenarios,
                                           spec.cloud)
    return values[:, 0], engaged


def centre_ray_trace(spec: ExperimentSpec):
    """Each trial's cloudlet count, and the 1x1 link's pierced count and
    phase: what phase-compare and mac-count summarize."""
    centre = dataclasses.replace(spec.scenario, num_tx=1, num_rx=1)
    segments = map_rays_to_field(centre, spec.cloud)
    counts, pierced, phases = trial_kernel(spec, spec.cloud, segments)
    return counts, pierced[:, 0], spec.cloud.max_iwc_c * phases[:, 0]


def mac_rounds(run) -> np.ndarray:
    """Each round's operation count, from a mac-count run's CSV."""
    header, *rows = run.csv_text.splitlines()
    assert header == "round,mac_count"
    assert [int(row.split(",")[0]) for row in rows] == list(range(len(rows)))
    return np.array([int(row.split(",")[1]) for row in rows])


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
        make_spec(mode="bogus", trials=0, dt=-1.0, outage_probability=0.0,
                  sweep_rwc=(0.5,), sweep_thickness=(100.0,))
    message = str(err.value)
    for fragment in ("unknown mode", "trials", "dt", "outage_probability",
                     "exclusive"):
        assert fragment in message


def test_spec_checks_each_layer_a_thickness_sweep_traces():
    # A layer thicker than D_max is reported with the spec's own problems,
    # before any run builds it.
    with pytest.raises(ConfigurationError) as err:
        make_spec(trials=0, sweep_thickness=(100.0, 2000.0))
    message = str(err.value)
    assert "trials must be >= 1, got 0" in message
    assert ("thickness_d (2000.0) must not exceed max_thickness_dmax "
            "(1000.0)") in message


def test_spec_from_flat_names_each_key_it_cannot_read():
    flat = spec_to_flat(make_spec())
    del flat["cloud.width_w"]
    flat["run.trials"] = "abc"
    with pytest.raises(ConfigurationError) as err:
        spec_from_flat(flat)
    # Worded as assemble_config words them, in schema order.
    assert str(err.value) == ("cloud.width_w: missing value; run.trials: "
                              "invalid literal for int() with base 10: "
                              "'abc'")


def test_blank_or_none_list_means_no_sweep():
    # Blank or "none" text is no sweep.  Only an explicit empty list is
    # an empty sweep, which a spec rejects (tests/test_cli.py runs each
    # list key).
    for value in ("", "none", " None ", None):
        assert parse_config_value("run.sweep_rwc", value) is None
    assert parse_config_value("run.sweep_rwc", []) == []


def test_spec_rejects_negative_master_seed():
    with pytest.raises(ConfigurationError, match="master_seed"):
        make_spec(master_seed=-1)
    make_spec(master_seed=0)  # no raise


def test_spec_requires_grid_for_distance_sweeps():
    for mode in ("correlation", "compensated"):
        with pytest.raises(ConfigurationError, match="distance grid"):
            make_spec(mode=mode)
        make_spec(mode=mode, distance_grid=(20000.0, 40000.0))  # no raise


def test_spec_checks_correlations_transmit_columns():
    single = make_scenario(num_tx=1, tx_spacing=0.0)
    with pytest.raises(ConfigurationError,
                       match="correlation needs at least two transmit"):
        make_spec(mode="correlation", scenario=single,
                  distance_grid=(20000.0,))
    make_spec(mode="compensated", scenario=single,
              distance_grid=(20000.0,))   # no raise


def test_spec_rejects_negative_sweep_values():
    with pytest.raises(ConfigurationError, match="water content"):
        make_spec(sweep_rwc=(-0.1,))
    with pytest.raises(ConfigurationError, match="thickness"):
        make_spec(sweep_thickness=(0.0,))
    with pytest.raises(ConfigurationError, match="distance grid"):
        make_spec(mode="correlation", distance_grid=(0.0, 20000.0))


def test_layer_top_must_exceed_its_bottom():
    # 1e300 - 1000 rounds back to 1e300, in every mode.
    for mode in ("field", "phase-dist", "capacity-cdf"):
        with pytest.raises(ConfigurationError, match="cloud_upper_altitude"):
            make_spec(mode=mode, cloud=make_cloud(upper_altitude=1e300))
    # Each layer a thickness sweep traces is checked too: 1e18 - 1000 is
    # below 1e18, but 1e18 - 1 rounds back to it.
    make_spec(cloud=make_cloud(upper_altitude=1e18),
              sweep_thickness=(1000.0,))
    with pytest.raises(ConfigurationError, match=(
            r"cloud_upper_altitude \(1e\+18\) must exceed "
            r"cloud_lower_altitude \(1e\+18\)")):
        make_spec(cloud=make_cloud(upper_altitude=1e18),
                  sweep_thickness=(1.0, 1000.0))
    with pytest.raises(ConfigurationError, match="cloud_upper_altitude"):
        make_spec(cloud=make_cloud(thickness_d=1.0, max_thickness_dmax=1.0,
                                   upper_altitude=1e18),
                  sweep_thickness=(1000.0,))


# ============================================================
# Outage capacity (nearest-rank lower quantile)
# ============================================================

def test_outage_capacity_nearest_rank():
    cdf = np.array([10.0, 20.0, 30.0, 40.0])
    assert outage_capacity(cdf, 0.5) == 20.0
    assert outage_capacity(cdf, 0.25) == 10.0
    assert outage_capacity(cdf, 0.26) == 20.0
    assert outage_capacity(cdf, 1.0) == 40.0
    assert outage_capacity(cdf, 0.001) == 10.0


def test_outage_capacity_rejects_bad_probability():
    cdf = np.array([1.0])
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            outage_capacity(cdf, p)


def test_outage_capacity_rejects_empty_cdf():
    empty = np.array([])
    with pytest.raises(ConfigurationError):
        outage_capacity(empty, 0.5)


# ============================================================
# Trial kernel
# ============================================================

def _per_trial_outputs(spec: ExperimentSpec) -> dict:
    cdf = run_capacity_cdf(dataclasses.replace(spec, sweep_rwc=(0.4, 0.8)))
    corr_spec = dataclasses.replace(
        spec, mode="correlation", distance_grid=(2000.0, 20000.0, 30000.0))
    corr = run_correlation_sweep(corr_spec)
    phase_spec = dataclasses.replace(
        spec, mode="phase-compare",
        scenario=make_scenario(link_distance=30000.0))
    phase = run_phase_compare(phase_spec)
    counts, pierced, samples = centre_ray_trace(phase_spec)
    return {"capacity": [points[2] for points in capacity_points(cdf)],
            "correlation": trial_values(corr_spec,
                                        experiment._coherence)[0][1:],
            "phase": [samples, counts, pierced],
            "runs": [run.csv_text + json.dumps(run.report)
                     for run in (cdf, corr, phase)]}


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
    for _, value, samples in capacity_points(run_capacity_cdf(spec)):
        single = make_spec(trials=12, cloud=make_cloud(
            max_iwc_c=value * 0.6))
        [(_, _, alone)] = capacity_points(run_capacity_cdf(single))
        assert np.array_equal(samples, alone), value


def kernel_rate(spec: ExperimentSpec) -> float:
    """The phase rate the trial kernel traces a spec's rays at: the link
    carrier's 2 pi / lambda0 times the mixture coefficient."""
    return (2.0 * math.pi / spec.scenario.wavelength
            * mixture_coefficient(spec.physics))


def _field_phases(field, spec: ExperimentSpec, segments):
    """(rays,) phases and pierced counts of one field, a block of one."""
    positions, contents = field
    phases, pierced = block_phases(positions, contents, [len(contents)],
                                   cloudlet_radius(spec.cloud), segments,
                                   kernel_rate(spec))
    return phases[0], pierced[0]


def _fields(spec: ExperimentSpec) -> list:
    """Each trial's (n, 2) centres and (n,) unit contents, drawn alone by
    numpy.

    The stream of the trial's seed gives the Poisson count n, then one
    ``random((3, n))`` call gives the unit x, y and content rows.
    """
    cloud = spec.cloud
    mean_count = cloud.density_lambda_s * cloud.width_w * cloud.thickness_d
    fields = []
    for t in range(spec.trials):
        rng = np.random.default_rng(trial_seed(spec.master_seed, t))
        x, y, u = rng.random((3, int(rng.poisson(mean_count))))
        fields.append((np.column_stack([cloud.width_w * x,
                                        cloud.thickness_d * y]), u))
    return fields


def test_kernel_rows_equal_single_field_path_phase(monkeypatch):
    # The rays at 40 km cross the layer; those at 5 km stay below it.
    scenarios = (make_scenario(link_distance=40000.0),
                 make_scenario(link_distance=5000.0))
    for lambda_s, block, chunk in (
            # ~40 cloudlets per field, 2 trials per block, streams derived
            # 3 trials at a time: block and chunk boundaries cross.
            (0.002, 100, 3),
            # ~1 cloudlet per field, 5 trials per block: empty fields fall
            # first, in the middle and last in a block.
            (0.00005, 5, 1024),
            # ~0.2 cloudlets per field, all trials in one block.
            (0.00001, 8192, 1024)):
        monkeypatch.setattr(experiment, "BLOCK_CLOUDLETS", block)
        monkeypatch.setattr(streams, "_CHUNK_TRIALS", chunk)
        spec = make_spec(trials=40, master_seed=4,
                         cloud=make_cloud(density_lambda_s=lambda_s))
        # Both scenarios' rays, one after another: 4 at 40 km, 4 at 5 km.
        rays = np.concatenate([
            map_rays_to_field(scenario, spec.cloud)
            for scenario in scenarios])
        counts, pierced, phases = trial_kernel(spec, spec.cloud, rays)
        fields = _fields(spec)
        assert np.array_equal(counts, [len(u) for _, u in fields])
        assert pierced.shape == (40, 8)
        assert phases.shape == (40, 8)
        # The kernel traces the unit contents; the sweep runner scales the
        # phases by the content bound before the metric sees them.
        (caps,), _, _ = experiment._sweep(spec, experiment._capacity,
                                          scenarios[:1], spec.cloud)
        for t, field in enumerate(fields):
            single, single_hits = _field_phases(field, spec, rays)
            assert np.array_equal(phases[t], single)
            assert np.array_equal(pierced[t], single_hits)
            assert caps[0, t] == experiment._capacity(
                scenarios[0], spec.cloud.max_iwc_c * single[:4])
        assert np.any(pierced[:, :4] > 0)   # the rays at 40 km pierce
        assert not np.any(pierced[:, 4:]) and not np.any(phases[..., 4:])
        if lambda_s < 0.002:
            per_block = min(spec.trials, block // max(
                lambda_s * spec.cloud.width_w * spec.cloud.thickness_d, 1))
            where = set(np.flatnonzero(counts == 0) % per_block)
            assert {0, per_block - 1} <= where, lambda_s
            assert where - {0, per_block - 1}, lambda_s


def _per_trial_arrays(spec: ExperimentSpec) -> list:
    """Every per-trial array a run of the spec's mode makes, trials first:
    each trial kernel output, and each sweep runner's metric values."""
    seen = []
    kernel, sweep = experiment.trial_kernel, experiment._sweep

    def record_kernel(*args):
        outputs = kernel(*args)
        seen.extend(outputs)
        return outputs

    def record_sweep(*args):
        values, clear, engaged = sweep(*args)
        seen.append(np.moveaxis(values, -1, 0))
        return values, clear, engaged

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "trial_kernel", record_kernel)
        patch.setattr(experiment, "_sweep", record_sweep)
        MODES[spec.mode].runner(spec)
    return seen


# The runs of each mode the prefix gates compare.
_PREFIX_RUNS = [
    pytest.param(mode, profile, flags, id=f"{mode}-{profile}")
    for mode, profile, flags in (
        ("capacity-cdf", "table3", {"run.sweep_rwc": "0,0.4,0.8"}),
        ("correlation", "table4", {}),
        ("compensated", "table3",
         {"run.distance_grid_m": "2000,8000,20000,40000"}),
        ("phase-compare", "table1", {}), ("phase-compare", "table3", {}),
        ("mac-count", "table1", {}), ("mac-count", "table3", {}))]


# table1's analytic phase model clamps its slope variance and warns so,
# which phase-compare reports; this gate compares only per-trial values.
@pytest.mark.filterwarnings("ignore:conditional phase variance slope")
@pytest.mark.parametrize("mode,profile,flags", _PREFIX_RUNS)
def test_a_run_of_n_trials_is_the_first_n_of_a_longer_run(
        mode, profile, flags):
    _check_prefix(mode, profile, flags)


@pytest.mark.filterwarnings("ignore:conditional phase variance slope")
@pytest.mark.parametrize("mode,profile,flags", _PREFIX_RUNS)
def test_a_run_of_n_trials_is_the_first_n_of_a_longer_split_run(
        forced_split, mode, profile, flags):
    # Each run splits its blocks across a caller and two workers.
    forks = forced_split(3)
    _check_prefix(mode, profile, flags)
    assert len(forks) >= 4


def _check_prefix(mode: str, profile: str, flags: dict) -> None:
    # 777 trials fill no whole number of kernel blocks (204 trials on
    # table3 and table4, 40 on table1), and 1554 cross a chunk of streams.
    def spec(trials):
        flat, _ = assemble_config(
            mode, profile, None, [],
            {"run.trials": trials, "run.master_seed": 7, **flags})
        return spec_from_flat(flat)

    short, long = spec(777), spec(1554)
    cloud = short.cloud
    mean_count = cloud.density_lambda_s * cloud.width_w * cloud.thickness_d
    per_block = int(experiment.BLOCK_CLOUDLETS // mean_count)
    assert per_block in (40, 204) and 777 % per_block
    assert 777 < streams._CHUNK_TRIALS < 1554
    first, twice = (_per_trial_arrays(s) for s in (short, long))
    assert len(first) == len(twice) >= 3
    for want, got in zip(first, twice):
        assert len(want) == 777 and len(got) == 1554
        assert np.array_equal(want, got[:777])


def test_a_point_whose_rays_miss_the_layer_warns():
    # A vertical link that ends at 5 km (7.5 km) stays below a layer from
    # 7 km (7.5 km) to 8 km: clear sky in every trial.
    near = make_scenario(link_distance=5000.0)
    with pytest.warns(ModelValidityWarning) as caught:
        run_capacity_cdf(make_spec(scenario=near, trials=3,
                                   sweep_rwc=(0.0, 0.4)))
        run_capacity_cdf(make_spec(
            scenario=make_scenario(link_distance=7500.0), trials=3,
            sweep_thickness=(500.0, 1000.0)))
        run_phase_compare(make_spec(mode="phase-compare", scenario=near,
                                    trials=3))
        run_mac_count(make_spec(mode="mac-count", scenario=near, trials=3))
    assert [str(w.message).split(":")[0] for w in caught] == [
        "capacity-cdf point rwc=0", "capacity-cdf point rwc=0.4",
        "capacity-cdf point thickness_m=500", "phase-compare", "mac-count"]
    # A run that reaches the layer is silent, and so are the distance
    # sweeps, which report each distance's engagement themselves.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        run_capacity_cdf(make_spec(trials=3))
        run_correlation_sweep(make_spec(mode="correlation", trials=3,
                                        distance_grid=(5000.0, 40000.0)))


def test_kernel_without_points_draws_nothing(monkeypatch):
    # A sweep none of whose points reaches the layer runs no kernel.
    def fail(*args, **kwargs):
        raise AssertionError("a field was traced")

    monkeypatch.setattr(experiment, "trial_kernel", fail)
    monkeypatch.setattr(experiment, "draw_fields", fail)
    spec = make_spec(mode="correlation", trials=4, distance_grid=(2000.0,))
    report = run_correlation_sweep(spec).report
    assert not report["engaged"][0]
    assert report["with_cloud"][0] == report["without_cloud"][0]


def test_kernel_enforces_the_expected_cloudlet_cap():
    spec = make_spec(trials=2, cloud=make_cloud(density_lambda_s=1e6))
    with pytest.raises(ResourceLimitError, match="expected cloudlet count"):
        run_capacity_cdf(spec)


def test_capacity_memory_grows_per_trial_only_by_the_kernel_outputs():
    # The kernel returns each trial's count, pierced counts and unit phases,
    # and the sweep runner scales them and runs the capacity metric on them
    # in block-sized trial slices.  So the peak grows per trial by about
    # what those arrays hold; the channel stacks of a whole-run metric pass
    # would add ~6x that.
    def peak(trials):
        spec = make_spec(trials=trials, sweep_rwc=(0.0, 0.4, 0.8))
        tracemalloc.start()
        try:
            run_capacity_cdf(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rays = 4
    returned = (np.dtype(np.intp).itemsize * (1 + rays)
                + np.dtype(float).itemsize * rays)
    per_trial = (peak(8000) - peak(2000)) / 6000
    assert per_trial < 2 * returned, (per_trial, returned)


# ============================================================
# Trial kernel split across forked workers
# ============================================================

def _benchmark_rays(profile: str):
    """A 777-trial spec at master seed 7, and the rays its benchmark mode
    traces: phase-compare's centre ray on table1, correlation's 12 engaged
    distances of 4 rays each on table4."""
    mode = "phase-compare" if profile == "table1" else "correlation"
    flat, _ = assemble_config(mode, profile, None, [],
                              {"run.trials": 777, "run.master_seed": 7})
    spec = spec_from_flat(flat)
    if mode == "phase-compare":
        return spec, experiment._centre_ray(spec)[0]
    mapped = [experiment._segments_for(spec.cloud, dataclasses.replace(
        spec.scenario, link_distance=d)) for d in spec.distance_grid]
    rays = np.concatenate([segments for segments, engaged in mapped
                           if engaged])
    assert rays.shape == (48, 2, 2)
    return spec, rays


def _assert_same_arrays(want, got) -> None:
    for w, g in zip(want, got, strict=True):
        assert w.dtype == g.dtype and w.shape == g.shape
        assert np.array_equal(w, g)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("profile", ["table1", "table4"])
def test_a_split_kernel_returns_the_serial_arrays(forced_split, profile,
                                                   cpus):
    # 777 trials are no multiple of the worker count, nor of the blocks
    # (40 trials on table1, 204 on table4).
    spec, rays = _benchmark_rays(profile)
    forks = forced_split(1)
    serial = trial_kernel(spec, spec.cloud, rays)
    assert not forks
    forced_split(cpus)
    _assert_same_arrays(serial, trial_kernel(spec, spec.cloud, rays))
    assert len(forks) == cpus - 1


def test_the_serial_kernel_allocates_plain_arrays(forced_split):
    # Only a split run puts its outputs in shared pages.
    spec, rays = _benchmark_rays("table1")
    forced_split(1)
    assert all(a.base is None for a in trial_kernel(spec, spec.cloud, rays))
    forced_split(2)
    assert all(a.base is not None
               for a in trial_kernel(spec, spec.cloud, rays))


def test_a_failed_workers_range_is_rerun_by_the_caller(forced_split,
                                                      monkeypatch):
    spec, rays = _benchmark_rays("table1")
    forks = forced_split(1)
    serial = trial_kernel(spec, spec.cloud, rays)
    caller, draw = os.getpid(), experiment.draw_fields

    def draw_in_the_caller_only(*args):
        if os.getpid() != caller:
            raise RuntimeError("a worker failed")
        return draw(*args)

    monkeypatch.setattr(experiment, "draw_fields", draw_in_the_caller_only)
    forced_split(3)
    _assert_same_arrays(serial, trial_kernel(spec, spec.cloud, rays))
    assert len(forks) == 2


def test_a_range_without_a_worker_runs_in_the_caller(forced_split,
                                                    monkeypatch):
    # A fork that fails (here as at a process limit) leaves its range to
    # the caller.
    spec, rays = _benchmark_rays("table1")
    forced_split(1)
    serial = trial_kernel(spec, spec.cloud, rays)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily "
                                            "unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    forced_split(2)
    _assert_same_arrays(serial, trial_kernel(spec, spec.cloud, rays))


def test_an_interrupt_kills_and_reaps_the_workers(forced_split, monkeypatch):
    # The caller is interrupted while its worker still sleeps; the
    # fixture then checks that no child is left.
    spec, rays = _benchmark_rays("table1")
    forks = forced_split(2)
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(experiment, "draw_fields", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        trial_kernel(spec, spec.cloud, rays)
    assert len(forks) == 1 and time.monotonic() - start < 10


def test_a_process_with_threads_does_not_fork(forced_split):
    spec, rays = _benchmark_rays("table1")
    forks = forced_split(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        trial_kernel(spec, spec.cloud, rays)
    finally:
        done.set()
        thread.join()
    assert not forks
    trial_kernel(spec, spec.cloud, rays)
    assert len(forks) == 1


# ============================================================
# Capacity CDF runs
# ============================================================

def test_capacity_cdf_single_point_without_sweep():
    spec = make_spec(trials=6)
    points = capacity_points(run_capacity_cdf(spec))
    assert len(points) == 1
    parameter, value, samples = points[0]
    assert parameter == "none"
    assert value == 0.0
    assert samples.shape == (6,)
    assert np.all(np.diff(samples) >= 0.0)


def test_capacity_cdf_rwc_sweep_orders_points():
    spec = make_spec(trials=4, sweep_rwc=(0.8, 0.2))
    run = run_capacity_cdf(spec)
    points = capacity_points(run)
    assert [p[0] for p in points] == ["rwc", "rwc"]
    assert [p[1] for p in points] == [0.8, 0.2]
    assert [(p["parameter"], p["value"]) for p in run.report["points"]] \
        == [("rwc", 0.8), ("rwc", 0.2)]


def test_capacity_cdf_zero_water_matches_clear_sky_exactly():
    # Zero ice water content makes every cloudlet transparent, so each
    # trial must reproduce the deterministic clear-sky capacity bitwise.
    spec = make_spec(trials=5, sweep_rwc=(0.0,))
    clear = capacity_bits(los_channel(spec.scenario), spec.scenario.snr_db,
                          spec.scenario.compensated)
    [(_, _, samples)] = capacity_points(run_capacity_cdf(spec))
    assert np.all(samples == clear)


def test_a_clear_sky_capacity_point_draws_no_field(monkeypatch):
    # A vertical link that ends at 5 km (7.5 km) stays below a layer from
    # 7 km (7.5 km or 7.7 km) to 8 km.  Such a point is never traced: it
    # draws no field, and every sample is the clear-sky capacity exactly.
    draw = experiment.draw_fields

    def draw_only_at(thicknesses):
        def draw_fields(cloud, *args):
            assert cloud.thickness_d in thicknesses, "a clear-sky draw"
            return draw(cloud, *args)
        return draw_fields

    near = make_scenario(link_distance=5000.0)
    mid = make_scenario(link_distance=7500.0)
    cases = [(make_spec(scenario=near, trials=5), (), [True]),
             (make_spec(scenario=near, trials=5, sweep_rwc=(0.0, 0.4, 0.8)),
              (), [True, True, True]),
             (make_spec(scenario=mid, trials=5,
                        sweep_thickness=(500.0, 1000.0, 300.0)),
              (1000.0,), [True, False, True])]
    for spec, engaged, clear_sky in cases:
        monkeypatch.setattr(experiment, "draw_fields", draw_only_at(engaged))
        with pytest.warns(ModelValidityWarning) as caught:
            points = capacity_points(run_capacity_cdf(spec))
        assert len(caught) == sum(clear_sky)
        assert len(points) == len(clear_sky)
        clear = capacity_bits(los_channel(spec.scenario),
                              spec.scenario.snr_db, spec.scenario.compensated)
        for (_, value, samples), is_clear in zip(points, clear_sky):
            assert samples.shape == (5,)
            assert np.all(samples == clear) == is_clear, value


def test_a_zero_content_bound_draws_no_field(monkeypatch):
    # Rays at 40 km cross the layer, but a bound of 0 makes every cloudlet
    # transparent: the point is clear sky in every trial, with no field
    # drawn and no warning, since its rays do reach the layer.
    def fail(*args, **kwargs):
        raise AssertionError("a field was drawn")

    monkeypatch.setattr(experiment, "draw_fields", fail)
    spec = make_spec(trials=5, sweep_rwc=(0.0,))
    clear = capacity_bits(los_channel(spec.scenario), spec.scenario.snr_db,
                          spec.scenario.compensated)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelValidityWarning)
        [(_, _, samples)] = capacity_points(run_capacity_cdf(spec))
        dry = make_cloud(max_iwc_c=0.0)
        for mode in ("correlation", "compensated"):
            report = MODES[mode].runner(make_spec(
                mode=mode, trials=5, cloud=dry,
                distance_grid=(5000.0, 40000.0))).report
            assert report["engaged"] == [False, True]
            assert report["with_cloud"] == report["without_cloud"]
    assert samples.tolist() == [clear] * 5


def test_an_rwc_sweep_traces_only_its_nonzero_bounds(monkeypatch):
    # The capacity sees one stack of phases, the 0.4 bound's alone (k = 1),
    # and the clear sky once.
    stacks = []
    capacity = experiment._capacity

    def record(scenario, phases):
        stacks.append(phases)
        return capacity(scenario, phases)

    monkeypatch.setattr(experiment, "_capacity", record)
    spec = make_spec(trials=5, sweep_rwc=(0.0, 0.4))
    (_, _, dry), (_, _, wet) = capacity_points(run_capacity_cdf(spec))
    assert stacks[0] is None and len(stacks) == 2
    rays = map_rays_to_field(spec.scenario, spec.cloud)
    _, _, unit = trial_kernel(spec, spec.cloud, rays)
    assert stacks[1].shape == (1, 5, 4)
    assert np.array_equal(stacks[1][0], 0.4 * REFERENCE_IWC * unit)
    clear = capacity_bits(los_channel(spec.scenario), spec.scenario.snr_db,
                          spec.scenario.compensated)
    assert dry.tolist() == [clear] * 5
    assert not np.any(wet == clear)

    # A sweep of zero bounds alone makes no kernel call.
    def fail(*args, **kwargs):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(experiment, "trial_kernel", fail)
    stacks.clear()
    run = run_capacity_cdf(make_spec(trials=5, sweep_rwc=(0.0, 0.0)))
    assert stacks == [None]
    assert [p["median_bps_hz"] for p in run.report["points"]] == [clear] * 2
    # The two equal points' rows form one group of 10.
    [(_, _, samples)] = capacity_points(run)
    assert samples.tolist() == [clear] * 10


def test_thickness_sweep_rebuilds_layer():
    spec = make_spec(trials=3, sweep_thickness=(500.0, 1000.0))
    points = capacity_points(run_capacity_cdf(spec))
    assert [p[0] for p in points] == ["thickness_m", "thickness_m"]
    assert [p[1] for p in points] == [500.0, 1000.0]


# ============================================================
# Distance sweeps
# ============================================================

def test_correlation_sweep_skips_disengaged_distances():
    # At 90 deg elevation with the layer under 8000 m altitude, a 2 km link
    # never reaches the cloud while a 30 km link crosses it.
    spec = make_spec(mode="correlation", trials=4,
                     distance_grid=(2000.0, 30000.0))
    report = run_correlation_sweep(spec).report
    assert report["engaged"] == [False, True]
    assert report["with_cloud"][0] == report["without_cloud"][0]
    values, engaged = trial_values(spec, experiment._coherence)
    assert engaged == [False, True]
    assert values[0].tolist() == [report["without_cloud"][0]] * 4
    assert values[1].shape == (4,)


def test_compensated_sweep_forces_unit_gains():
    # The runner must ignore the scenario's uncompensated setting: its
    # clear-sky values are those of the unit-gain channel.
    spec = make_spec(mode="compensated", trials=4,
                     distance_grid=(20000.0, 40000.0))
    assert spec.scenario.compensated is False
    report = run_compensated_sweep(spec).report
    assert report["distances_m"] == [20000.0, 40000.0]
    for i, d in enumerate(report["distances_m"]):
        scen = dataclasses.replace(spec.scenario, link_distance=float(d),
                                   compensated=True)
        expected = capacity_bits(los_channel(scen), scen.snr_db, True)
        assert report["without_cloud"][i] == expected


def test_compensated_sweep_reports_median():
    spec = make_spec(mode="compensated", trials=5,
                     distance_grid=(30000.0,))
    report = run_compensated_sweep(spec).report
    assert report["engaged"][0]
    unit_gains = dataclasses.replace(spec, scenario=dataclasses.replace(
        spec.scenario, compensated=True))
    [values], _ = trial_values(unit_gains, experiment._capacity)
    assert report["with_cloud"][0] == float(np.median(values))


def test_compensated_median_of_an_even_count_is_the_lower_middle_sample():
    # The nearest-rank lower convention the manifest records, as for every
    # capacity quantile: a sample, not the mean of the two middle ones.
    spec = make_spec(mode="compensated", trials=6,
                     distance_grid=(30000.0,))
    report = run_compensated_sweep(spec).report
    assert report["engaged"][0]
    unit_gains = dataclasses.replace(spec, scenario=dataclasses.replace(
        spec.scenario, compensated=True))
    [values], _ = trial_values(unit_gains, experiment._capacity)
    ordered = np.sort(values)
    assert ordered[2] < ordered[3]
    assert report["with_cloud"][0] == ordered[2]


@pytest.mark.parametrize("mode,metric", [
    ("correlation", experiment._coherence),
    ("compensated", experiment._capacity)])
def test_each_sweep_distance_equals_that_distance_swept_alone(mode, metric):
    # One kernel call traces every engaged distance's rays; each distance's
    # per-trial values must not depend on the other distances of the grid.
    # The 5 km distance stays below the layer.
    spec = make_spec(mode=mode, trials=12, master_seed=3,
                     scenario=make_scenario(compensated=mode == "compensated"),
                     distance_grid=(40000.0, 5000.0, 12000.0, 30000.0))
    swept, engaged = trial_values(spec, metric)
    assert engaged == [True, False, True, True]
    for distance, values, reaches in zip(spec.distance_grid, swept, engaged):
        [alone], [alone_reaches] = trial_values(
            dataclasses.replace(spec, distance_grid=(distance,)), metric)
        assert alone_reaches == reaches, distance
        assert np.array_equal(values, alone), distance


def test_a_sweep_traces_each_block_once_whatever_its_points(monkeypatch):
    calls = []
    block = experiment.block_phases

    def record(positions, contents, counts, radius, segments, params):
        calls.append(len(segments))
        return block(positions, contents, counts, radius, segments, params)

    monkeypatch.setattr(experiment, "block_phases", record)
    # ~40 cloudlets per field and 100 per block: 2 trials a block, so 9
    # trials take 5 blocks.
    monkeypatch.setattr(experiment, "BLOCK_CLOUDLETS", 100)
    for grid in ((40000.0,), (40000.0, 30000.0, 20000.0, 12000.0)):
        calls.clear()
        spec = make_spec(mode="correlation", trials=9, distance_grid=grid)
        run_correlation_sweep(spec)
        assert calls == [4 * len(grid)] * 5, grid


# ============================================================
# Phase comparison
# ============================================================

def test_phase_compare_shapes_and_analytic_reference():
    spec = make_spec(mode="phase-compare", trials=200,
                     scenario=make_scenario(link_distance=30000.0))
    run = run_phase_compare(spec)
    counts, pierced, samples = centre_ray_trace(spec)
    assert samples.shape == (200,)
    # The field's cloudlet count and the ray's pierced count, each trial's
    # own; the report gives the mean of each under its own key.
    centre = make_scenario(num_tx=1, num_rx=1, link_distance=30000.0)
    segments = map_rays_to_field(centre, spec.cloud)
    fields = _fields(spec)
    assert counts.tolist() == [len(u) for _, u in fields]
    assert pierced.tolist() == [
        int(_field_phases(f, spec, segments)[1][0]) for f in fields]
    assert np.all(pierced <= counts)
    assert np.any(pierced < counts)
    empirical = run.report["empirical"]
    assert empirical["mean_cloudlet_count"] == counts.mean()
    assert empirical["mean_pierced_count"] == pierced.mean()
    assert 0.0 <= run.report["ks_distance"] <= 1.0
    # bin centre, empirical density and analytic density of 101 bins
    assert csv_columns(run).shape == (101, 3)
    reference = stationary_distribution(
        AnalyticParams(spec.cloud, spec.physics,
                       spec.scenario.carrier_frequency))
    assert run.report["analytic"]["phi0_rad"] == reference.phi0
    assert run.report["analytic"]["sigma_c2_rad2"] == reference.sigma_c2


def test_phase_compare_moments_match_samples():
    spec = make_spec(mode="phase-compare", trials=150,
                     scenario=make_scenario(link_distance=30000.0))
    empirical = run_phase_compare(spec).report["empirical"]
    samples = centre_ray_trace(spec)[2]
    assert empirical["mean_rad"] == pytest.approx(samples.mean())
    assert empirical["variance_rad2"] == pytest.approx(samples.var())


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_phase_compare_statistics_equal_scipy(seed):
    # The KS distance and the kurtosis follow scipy's arithmetic exactly;
    # scipy serves only as the reference here.
    stats = pytest.importorskip("scipy.stats")
    spec = make_spec(mode="phase-compare", trials=3000, master_seed=seed)
    report = run_phase_compare(spec).report
    samples = centre_ray_trace(spec)[2]
    phi0 = report["analytic"]["phi0_rad"]
    sigma_c2 = report["analytic"]["sigma_c2_rad2"]
    assert sigma_c2 > 0.0
    model = stats.laplace(loc=phi0, scale=math.sqrt(sigma_c2 / 2.0))
    assert report["ks_distance"] == stats.kstest(samples, model.cdf).statistic
    assert report["empirical"]["excess_kurtosis"] == stats.kurtosis(samples)
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
    spec = make_spec(mode="phase-compare", trials=50,
                     cloud=make_cloud(density_lambda_s=0.0))
    report = run_phase_compare(spec).report
    samples = centre_ray_trace(spec)[2]
    assert np.all(samples == samples[0])
    # NaN, which the report gives as null: strict JSON has no NaN
    assert math.isnan(experiment._excess_kurtosis(samples))
    assert report["empirical"]["excess_kurtosis"] is None
    assert math.isnan(stats.kurtosis(samples))
    # equal non-zero samples leave a rounding residue about their mean
    equal = np.full(999, 0.3)
    assert np.var(equal) > 0.0
    assert math.isnan(experiment._excess_kurtosis(equal))
    assert math.isnan(stats.kurtosis(equal))


# ============================================================
# Operation counting
# ============================================================

def test_run_mac_count_aggregates():
    spec = make_spec(mode="mac-count", trials=5,
                     scenario=make_scenario(link_distance=30000.0))
    run = run_mac_count(spec)
    per_round = mac_rounds(run)
    assert per_round.shape == (5,)
    assert np.all(per_round > 0)
    assert run.report["average_mac_per_round"] == pytest.approx(
        per_round.mean())
    assert run.report["rounds"] == 5


def test_mac_count_terms():
    # An engaged ray through empty fields costs the set-up (17) and the
    # ray's direction (2), nothing per cloudlet.
    empty = make_spec(mode="mac-count", trials=6,
                      cloud=make_cloud(density_lambda_s=0.0))
    assert mac_rounds(run_mac_count(empty)).tolist() == [19] * 6

    # A ray that misses the layer costs the set-up and 6 per drawn cloudlet.
    missed = make_spec(mode="mac-count", trials=20,
                       scenario=make_scenario(link_distance=5000.0))
    with pytest.warns(ModelValidityWarning):
        per_round = mac_rounds(run_mac_count(missed))
    assert per_round.tolist() == [17 + 6 * len(u)
                                  for _, u in _fields(missed)]

    # An engaged ray adds 5 per cloudlet and 3 per pierced one.
    spec = make_spec(mode="mac-count", trials=20, master_seed=31)
    centre = make_scenario(num_tx=1, num_rx=1, link_distance=40000.0)
    segments = map_rays_to_field(centre, spec.cloud)
    expected = []
    for field in _fields(spec):
        n = len(field[1])
        h = int(_field_phases(field, spec, segments)[1][0])
        expected.append(17 + 6 * n + 2 + 5 * n + 3 * h)
    assert mac_rounds(run_mac_count(spec)).tolist() == expected
    assert len(set(expected)) > 1


def test_within_order_of_magnitude_bounds():
    within = experiment._within_order_of_magnitude
    assert within(10367.0)
    assert within(2000.0)
    assert not within(100.0)
    assert not within(200000.0)
    assert not within(0.0)


# ============================================================
# Flat-config round trip and artifacts
# ============================================================

def test_spec_flat_round_trip():
    spec = make_spec(master_seed=3,
                     sweep_rwc=(0.2, 0.8), dt=0.5, outage_probability=0.1)
    flat = spec_to_flat(spec)
    assert "run.threads" not in flat
    rebuilt = spec_from_flat(flat)
    assert rebuilt == spec


def test_config_schema_is_one_key_per_field():
    # Every row is (kind, field), and the rows cover each leaf field of the
    # spec and of its three parts exactly once.
    assert all(len(row) == 2 for row in CONFIG_SCHEMA.values())
    parts = {"scenario": MimoScenario, "cloud": CloudConfig,
             "physics": PhysicsParams}
    leaves = [f.name for f in dataclasses.fields(ExperimentSpec)
              if f.name not in parts]
    leaves += [f"{part}.{f.name}" for part, cls in parts.items()
               for f in dataclasses.fields(cls)]
    assert sorted(field for _, field in CONFIG_SCHEMA.values()) \
        == sorted(leaves)


def test_carrier_key_moves_traced_phases_and_analytic_phi0():
    # The one carrier key sets the link's carrier, and with it both the
    # cloud phases the kernel traces and the analytic model's phi0.
    base = make_spec(mode="phase-compare", trials=60,
                     scenario=make_scenario(link_distance=30000.0))
    flat = spec_to_flat(base)
    flat["physics.carrier_frequency_hz"] = 28e9
    moved = spec_from_flat(flat)
    assert moved.scenario.carrier_frequency == 28e9
    # The same draws: the phases scale by the ratio of the phase rates.
    base_phases, moved_phases = (centre_ray_trace(s)[2]
                                 for s in (base, moved))
    assert np.any(base_phases != 0.0)
    ratio = kernel_rate(moved) / kernel_rate(base)
    assert ratio == pytest.approx(28e9 / 73.5e9, rel=1e-15)
    np.testing.assert_allclose(moved_phases, ratio * base_phases,
                               rtol=1e-14)
    # The analytic phi0 is linear in the wavenumber.
    base_phi0, moved_phi0 = (run_phase_compare(s).report["analytic"]
                             ["phi0_rad"] for s in (base, moved))
    assert moved_phi0 != base_phi0
    assert moved_phi0 == pytest.approx(ratio * base_phi0, rel=1e-14)


def test_spec_from_flat_accepts_thread_hint():
    flat = spec_to_flat(make_spec())
    assert spec_from_flat(flat, threads=4) == spec_from_flat(flat)


def test_format_csv_uses_shortest_round_trip_floats():
    text = format_csv("a,b", [(0.1, 2), (1.0 / 3.0, "x")])
    assert text == "a,b\n0.1,2\n0.3333333333333333,x\n"
    assert format_csv("h", []) == "h\n"


def test_capacity_csv_equals_format_csv_of_its_rows():
    # One row per trial of each point, its samples in ascending order, as
    # format_csv would write them; the samples come from the sweep runner.
    # The point at rwc 0 is clear sky: all its samples are one value.
    for sweep in (dict(sweep_rwc=(0.4, 0.0, 1.0 / 7.0)),
                  dict(sweep_thickness=(500.0, 1000.0 / 3.0))):
        spec = make_spec(trials=5, **sweep)
        if "sweep_rwc" in sweep:
            name, values = "rwc", spec.sweep_rwc
            [caps], _, _ = experiment._sweep(
                spec, experiment._capacity, [spec.scenario], spec.cloud,
                [v * REFERENCE_IWC for v in values])
        else:
            name, values = "thickness_m", spec.sweep_thickness
            caps = [experiment._sweep(
                spec, experiment._capacity, [spec.scenario],
                dataclasses.replace(spec.cloud, thickness_d=v))[0][0, 0]
                for v in values]
        rows = [(name, float(value), float(c))
                for value, samples in zip(values, caps)
                for c in np.sort(samples)]
        assert run_capacity_cdf(spec).csv_text == format_csv(
            "sweep,sweep_value,capacity_bps_hz", rows)


def _every_mode_run(mode: str):
    """A small run of ``mode`` that reaches the layer."""
    spec = make_spec(mode=mode, trials=3,
                     scenario=make_scenario(link_distance=30000.0),
                     sweep_rwc=(0.5,) if mode == "capacity-cdf" else None,
                     distance_grid=(30000.0,) if mode in (
                         "correlation", "compensated") else None)
    return spec, MODES[mode][1](spec)


def test_results_csv_headers_per_mode():
    headers = {
        "field": "x_m,y_m,radius_m,iwc_g_m3",
        "phase-dist": "phi_rad,pdf_stationary,pdf_total",
        "capacity-cdf": "sweep,sweep_value,capacity_bps_hz",
        "correlation": "distance_m,corr_cloud,corr_clear",
        "compensated": "distance_m,median_capacity_cloud_bps_hz,"
                       "median_capacity_clear_bps_hz",
        "phase-compare": "phi_rad,empirical_density,analytic_density",
        "mac-count": "round,mac_count",
    }
    assert list(headers) == list(MODES)
    for mode, header in headers.items():
        _, run = _every_mode_run(mode)
        lines = run.csv_text.splitlines()
        assert lines[0] == header, mode
        assert run.csv_name == ("field.csv" if mode == "field"
                                else "results.csv"), mode
    _, cdf = _every_mode_run("capacity-cdf")
    first = cdf.csv_text.splitlines()[1]
    assert first.startswith("rwc,0.5,")
    assert repr(float(first.split(",")[2])) == first.split(",")[2]
    _, mac = _every_mode_run("mac-count")
    assert len(mac.csv_text.splitlines()) == 4
    _, dist = _every_mode_run("phase-dist")
    assert len(dist.csv_text.splitlines()) == 502


def test_run_report_keys_per_mode():
    spec, cdf = _every_mode_run("capacity-cdf")
    entry = cdf.report["points"][0]
    assert set(entry) == {"parameter", "value", "median_bps_hz",
                          "outage_bps_hz", "outage_probability"}
    [(_, _, samples)] = capacity_points(cdf)
    assert entry["median_bps_hz"] == outage_capacity(samples, 0.5)
    assert entry["outage_bps_hz"] == outage_capacity(
        samples, spec.outage_probability)

    _, corr = _every_mode_run("correlation")
    assert set(corr.report) == {"distances_m", "with_cloud",
                                "without_cloud", "engaged"}

    _, pc = _every_mode_run("phase-compare")
    assert set(pc.report) == {"empirical", "analytic", "ks_distance", "note"}
    assert pc.report["analytic"]["excess_kurtosis"] == 3.0

    _, mac = _every_mode_run("mac-count")
    assert mac.report["reference_mac_per_round"] == 10367
    assert mac.report["within_order_of_magnitude"] == \
        experiment._within_order_of_magnitude(
            mac.report["average_mac_per_round"])

    # field draws from numpy's own stream of the master seed
    spec, field = _every_mode_run("field")
    (count,), _ = draw_fields(
        spec.cloud, [np.random.default_rng(spec.master_seed)], 1)
    assert field.report == {"cloudlet_count": count,
                            "radius_m": cloudlet_radius(spec.cloud)}
    assert field.summary == (f"{count} cloudlets",)

    _, dist = _every_mode_run("phase-dist")
    assert {"truncated_sum", "closed_form", "warnings"} <= set(dist.report)


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


def test_build_manifest_lists_all_assumed_defaults_by_default():
    manifest = build_manifest(make_spec(), {}, explicit_keys=())
    assert set(manifest["assumed_defaults"]) == set(ASSUMED_PARAMETER_KEYS)
