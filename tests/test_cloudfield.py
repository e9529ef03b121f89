"""Tests for the stochastic cloudlet field."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmimo import (CloudConfig, ConfigurationError, ResourceLimitError,
                       cloudlet_radius, generate_field, step_field)
from cloudmimo import cloudfield
from cloudmimo.cloudfield import draw_fields


def field_of(config, seed):
    return generate_field(config, np.random.default_rng(seed))


# ============================================================
# Configuration validation
# ============================================================

def test_default_config_is_valid():
    cfg = CloudConfig()
    assert cfg.width_w == 20.0
    assert cfg.thickness_d == 1000.0
    assert cfg.max_iwc_c == 0.4


def test_config_rejects_each_bad_field():
    with pytest.raises(ConfigurationError):
        CloudConfig(width_w=0.0)
    with pytest.raises(ConfigurationError):
        CloudConfig(thickness_d=-1.0)
    with pytest.raises(ConfigurationError):
        CloudConfig(thickness_d=2000.0, max_thickness_dmax=1000.0)
    with pytest.raises(ConfigurationError):
        CloudConfig(density_lambda_s=-0.1)
    with pytest.raises(ConfigurationError):
        CloudConfig(smoothness_alpha=0.0)
    with pytest.raises(ConfigurationError):
        CloudConfig(smoothness_alpha=1.5)
    with pytest.raises(ConfigurationError):
        CloudConfig(max_iwc_c=-0.1)
    with pytest.raises(ConfigurationError):
        CloudConfig(drift_speed_vb=-1.0)


def test_config_error_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        CloudConfig(width_w=-1.0, smoothness_alpha=2.0, max_iwc_c=-1.0)
    message = str(err.value)
    assert "width_w" in message
    assert "smoothness_alpha" in message
    assert "max_iwc_c" in message


# ============================================================
# Radius formula
# ============================================================

def test_radius_default_config():
    # alpha * W * sqrt(D / Dmax) / 2 = 0.5 * 20 * 1 / 2
    assert cloudlet_radius(CloudConfig()) == 5.0


def test_radius_scales_with_sqrt_thickness_ratio():
    cfg = CloudConfig(thickness_d=250.0, max_thickness_dmax=1000.0)
    assert cloudlet_radius(cfg) == pytest.approx(0.5 * 20.0 * 0.5 / 2.0,
                                                 rel=1e-15)


def test_radius_never_exceeds_half_width():
    for alpha in (0.1, 0.5, 1.0):
        for d in (10.0, 500.0, 1000.0):
            cfg = CloudConfig(smoothness_alpha=alpha, thickness_d=d)
            assert 0.0 < cloudlet_radius(cfg) <= cfg.width_w / 2.0


# ============================================================
# Field generation
# ============================================================

def test_generation_is_deterministic_in_seed():
    a = field_of(CloudConfig(), 42)
    b = field_of(CloudConfig(), 42)
    assert a.count == b.count
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.iwc, b.iwc)


def test_draw_is_poisson_count_then_three_uniform_draws():
    # The field's stream layout: the count, then x, y and ice water content
    # as three consecutive uniform draws of n values each.
    cfg = CloudConfig(density_lambda_s=0.01)
    field = field_of(cfg, 17)
    rng = np.random.default_rng(17)
    n = int(rng.poisson(cfg.density_lambda_s * cfg.width_w * cfg.thickness_d))
    assert field.count == n > 0
    assert np.array_equal(field.positions[:, 0],
                          rng.uniform(0.0, cfg.width_w, n))
    assert np.array_equal(field.positions[:, 1],
                          rng.uniform(0.0, cfg.thickness_d, n))
    assert np.array_equal(field.iwc, rng.uniform(0.0, cfg.max_iwc_c, n))


def test_different_seeds_differ():
    a = field_of(CloudConfig(), 0)
    b = field_of(CloudConfig(), 1)
    assert a.count != b.count or not np.array_equal(a.positions, b.positions)


def test_draws_stay_in_bounds():
    cfg = CloudConfig()
    field = field_of(cfg, 3)
    assert np.all(field.positions[:, 0] >= 0.0)
    assert np.all(field.positions[:, 0] <= cfg.width_w)
    assert np.all(field.positions[:, 1] >= 0.0)
    assert np.all(field.positions[:, 1] <= cfg.thickness_d)
    assert np.all(field.iwc >= 0.0)
    assert np.all(field.iwc <= cfg.max_iwc_c)


def test_zero_density_gives_empty_field():
    field = field_of(CloudConfig(density_lambda_s=0.0), 0)
    assert field.count == 0
    assert field.positions.shape == (0, 2)
    assert field.iwc.shape == (0,)


# One cloudlet per field on average.
SPARSE = CloudConfig(density_lambda_s=0.00005)


def assert_block_matches_fields(config, seeds):
    # Field f of one draw_fields call over the seeds' streams is bit for
    # bit generate_field of seed f.  Returns the block's counts.
    counts, unit = draw_fields(
        config, (np.random.default_rng(s) for s in seeds), len(seeds))
    assert counts.shape == (len(seeds),)
    assert unit.shape == (3, counts.sum())
    starts = np.cumsum(counts) - counts
    for seed, start, n in zip(seeds, starts, counts):
        field = field_of(config, seed)
        assert field.count == n
        rows = unit[:, start:start + n]
        assert np.array_equal(rows[:2].T * (config.width_w,
                                            config.thickness_d),
                              field.positions)
        assert np.array_equal(config.max_iwc_c * rows[2], field.iwc)
    return counts


def test_draw_fields_matches_generate_field_around_empty_fields():
    counts = assert_block_matches_fields(SPARSE, [2, 4, 3, 1, 8])
    # Empty first, in the middle and last.
    assert counts.tolist() == [0, 3, 0, 2, 0]
    # No fields at all: empty counts and (3, 0) rows.
    assert assert_block_matches_fields(SPARSE, []).size == 0


def test_generate_field_keeps_no_copy_of_its_draw():
    # At its peak a call holds the (3, n) draw, the (n, 2) centres and the
    # (n,) contents: 48 B a cloudlet.  A slot buffer gathered into rows
    # (88 B) or any second array of the draw alive beside them breaks 64 B.
    config = CloudConfig(density_lambda_s=5.0)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        field = generate_field(config, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.count == 100010
    assert peak / field.count < 64


def test_draw_fields_takes_only_its_fields_from_the_streams():
    streams = iter([np.random.default_rng(s) for s in (4, 7, 13)])
    counts, _ = draw_fields(SPARSE, streams, 2)
    assert counts.tolist() == [3, 3]
    assert len(list(streams)) == 1


def test_expected_count_cap():
    # Checked once per call, before any field is drawn.
    with pytest.raises(ResourceLimitError, match="expected cloudlet count"):
        draw_fields(CloudConfig(density_lambda_s=1e6), [], 3)


def test_realized_count_cap(monkeypatch):
    # Seed 0 draws 1 cloudlet, within the cap; seed 4 draws 3.
    monkeypatch.setattr(cloudfield, "DEFAULT_CLOUDLET_CAP", 1)
    streams = [np.random.default_rng(s) for s in (0, 4)]
    with pytest.raises(ResourceLimitError, match="realized cloudlet count 3"):
        draw_fields(SPARSE, streams, 2)


def test_cloudlet_records_match_arrays():
    # One row of positions and one content per cloudlet, one shared radius.
    cfg = CloudConfig()
    field = field_of(cfg, 5)
    assert field.count > 0
    assert field.positions.shape == (field.count, 2)
    assert field.iwc.shape == (field.count,)
    assert field.radius == cloudlet_radius(cfg)


# ============================================================
# Drift
# ============================================================

def test_step_keeps_cloudlets_inside():
    cfg = CloudConfig()
    rng = np.random.default_rng(11)
    field = generate_field(cfg, rng)
    for _ in range(20):
        field = step_field(field, 0.05, rng)
        assert np.all(field.positions[:, 0] >= 0.0)
        assert np.all(field.positions[:, 0] <= cfg.width_w)
        assert np.all(field.positions[:, 1] >= 0.0)
        assert np.all(field.positions[:, 1] <= cfg.thickness_d)


def test_step_preserves_count_radius_iwc():
    rng = np.random.default_rng(1)
    field = generate_field(CloudConfig(), rng)
    stepped = step_field(field, 0.5, rng)
    assert stepped.count == field.count
    assert stepped.radius == field.radius
    np.testing.assert_array_equal(stepped.iwc, field.iwc)


def test_step_is_deterministic():
    # Two generators of one seed give the same step.
    field = field_of(CloudConfig(), 9)
    a = step_field(field, 0.25, np.random.default_rng(10))
    b = step_field(field, 0.25, np.random.default_rng(10))
    assert not np.array_equal(a.positions, field.positions)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_step_streams_differ_per_step_index():
    # Successive steps from one generator draw different displacements.
    rng = np.random.default_rng(9)
    field = generate_field(CloudConfig(), rng)
    first = step_field(field, 0.25, rng)
    second = step_field(first, 0.25, rng)
    assert not np.array_equal(first.positions - field.positions,
                              second.positions - first.positions)


def test_step_displacement_bound_respected():
    cfg = CloudConfig(drift_speed_vb=10.0)
    rng = np.random.default_rng(2)
    field = generate_field(cfg, rng)
    dt = 0.1
    stepped = step_field(field, dt, rng)
    # Reflection can flip a displacement but never grow it beyond the
    # per-step bound while both points stay inside the rectangle.
    delta = np.abs(stepped.positions - field.positions)
    assert np.all(delta <= cfg.drift_speed_vb * dt + 1e-12)


def test_step_zero_dt_only_advances_counters():
    rng = np.random.default_rng(4)
    field = generate_field(CloudConfig(), rng)
    state = rng.bit_generator.state
    stepped = step_field(field, 0.0, rng)
    np.testing.assert_array_equal(stepped.positions, field.positions)
    assert stepped.elapsed_time == field.elapsed_time
    assert rng.bit_generator.state == state   # a zero step draws nothing


def test_step_rejects_negative_dt():
    rng = np.random.default_rng(0)
    field = generate_field(CloudConfig(), rng)
    with pytest.raises(ConfigurationError):
        step_field(field, -0.1, rng)


def test_step_accumulates_elapsed_time():
    rng = np.random.default_rng(6)
    field = generate_field(CloudConfig(), rng)
    field = step_field(step_field(field, 0.25, rng), 0.5, rng)
    assert field.elapsed_time == pytest.approx(0.75, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False))
def test_step_closure_for_arbitrary_step_sizes(seed, dt):
    # Even steps whose displacement bound exceeds the rectangle size must
    # keep every centre inside.
    cfg = CloudConfig(drift_speed_vb=1000.0)
    rng = np.random.default_rng(seed)
    field = generate_field(cfg, rng)
    stepped = step_field(field, dt, rng)
    assert np.all(stepped.positions[:, 0] >= 0.0)
    assert np.all(stepped.positions[:, 0] <= cfg.width_w)
    assert np.all(stepped.positions[:, 1] >= 0.0)
    assert np.all(stepped.positions[:, 1] <= cfg.thickness_d)

