"""Tests for the stochastic cloudlet field."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmimo import (CloudConfig, ConfigurationError, ResourceLimitError,
                       cloudlet_radius, draw_fields, step_field)
from cloudmimo import cloudfield


def field_of(config, seed):
    """One field's count, (n, 2) centres [m] and (n,) contents [g/m^3]."""
    (count,), (x, y, u) = draw_fields(
        config, [np.random.default_rng(seed)], 1)
    return count, np.column_stack([x, y]), config.max_iwc_c * u


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
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


def test_draw_is_poisson_count_then_three_uniform_draws():
    # The field's stream layout: the count, then x, y and ice water content
    # as three consecutive uniform draws of n values each.
    cfg = CloudConfig(density_lambda_s=0.01)
    count, positions, iwc = field_of(cfg, 17)
    rng = np.random.default_rng(17)
    n = int(rng.poisson(cfg.density_lambda_s * cfg.width_w * cfg.thickness_d))
    assert count == n > 0
    assert np.array_equal(positions[:, 0], rng.uniform(0.0, cfg.width_w, n))
    assert np.array_equal(positions[:, 1],
                          rng.uniform(0.0, cfg.thickness_d, n))
    assert np.array_equal(iwc, rng.uniform(0.0, cfg.max_iwc_c, n))


def test_different_seeds_differ():
    a = field_of(CloudConfig(), 0)
    b = field_of(CloudConfig(), 1)
    assert a[0] != b[0] or not np.array_equal(a[1], b[1])


def test_draws_stay_in_bounds():
    cfg = CloudConfig()
    _, positions, iwc = field_of(cfg, 3)
    assert np.all(positions[:, 0] >= 0.0)
    assert np.all(positions[:, 0] <= cfg.width_w)
    assert np.all(positions[:, 1] >= 0.0)
    assert np.all(positions[:, 1] <= cfg.thickness_d)
    assert np.all(iwc >= 0.0)
    assert np.all(iwc <= cfg.max_iwc_c)


def test_zero_density_gives_empty_field():
    count, positions, iwc = field_of(CloudConfig(density_lambda_s=0.0), 0)
    assert count == 0
    assert positions.shape == (0, 2)
    assert iwc.shape == (0,)


# One cloudlet per field on average.
SPARSE = CloudConfig(density_lambda_s=0.00005)


def assert_block_matches_fields(config, seeds):
    # Field f of one draw_fields call over the seeds' streams is bit for
    # bit the one-field call on seed f.  Returns the block's counts.
    counts, rows = draw_fields(
        config, (np.random.default_rng(s) for s in seeds), len(seeds))
    assert counts.shape == (len(seeds),)
    assert rows.shape == (3, counts.sum())
    starts = np.cumsum(counts) - counts
    for seed, start, n in zip(seeds, starts, counts):
        count, positions, iwc = field_of(config, seed)
        assert count == n
        mine = rows[:, start:start + n]
        assert np.array_equal(mine[:2].T, positions)
        assert np.array_equal(config.max_iwc_c * mine[2], iwc)
    return counts


def test_draw_fields_block_matches_single_fields_around_empty_fields():
    counts = assert_block_matches_fields(SPARSE, [2, 4, 3, 1, 8])
    # Empty first, in the middle and last.
    assert counts.tolist() == [0, 3, 0, 2, 0]
    # No fields at all: empty counts and (3, 0) rows.
    assert assert_block_matches_fields(SPARSE, []).size == 0


def test_draw_fields_keeps_no_copy_of_its_draw():
    # At its peak a one-field call holds its (3, n) draw, scaled in place:
    # 24 B a cloudlet.  Any second array of the draw alive beside it breaks
    # 32 B: a row scaled out of place (8 B), scaled centres (16 B) or a
    # copy of the rows (24 B).
    config = CloudConfig(density_lambda_s=5.0)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        (count,), rows = draw_fields(config, [rng], 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 100010 and rows.shape == (3, count)
    assert peak / count < 32


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
    # One centre row and one content per cloudlet.
    count, positions, iwc = field_of(CloudConfig(), 5)
    assert count > 0
    assert positions.shape == (count, 2)
    assert iwc.shape == (count,)


# ============================================================
# Drift
# ============================================================

def centres_of(config, rng):
    """The (n, 2) centres [m] of one field drawn from ``rng``."""
    return draw_fields(config, [rng], 1)[1][:2].T


def assert_inside(centres, cfg):
    assert np.all(centres[:, 0] >= 0.0)
    assert np.all(centres[:, 0] <= cfg.width_w)
    assert np.all(centres[:, 1] >= 0.0)
    assert np.all(centres[:, 1] <= cfg.thickness_d)


def test_step_keeps_cloudlets_inside():
    cfg = CloudConfig()
    rng = np.random.default_rng(11)
    centres = centres_of(cfg, rng)
    for _ in range(20):
        centres = step_field(centres, cfg, 0.05, rng)
        assert_inside(centres, cfg)


def test_step_preserves_count_radius_iwc():
    # A step moves the centres of a draw's rows and nothing else: the
    # count, and the content row, stay as they were; the input is intact.
    cfg = CloudConfig()
    rng = np.random.default_rng(1)
    (count,), rows = draw_fields(cfg, [rng], 1)
    before = rows.copy()
    stepped = step_field(rows[:2].T, cfg, 0.5, rng)
    assert stepped.shape == (count, 2)
    assert not np.array_equal(stepped, rows[:2].T)
    np.testing.assert_array_equal(rows, before)


def test_step_is_deterministic():
    # Two generators of one seed give the same step.
    cfg = CloudConfig()
    _, centres, _ = field_of(cfg, 9)
    a = step_field(centres, cfg, 0.25, np.random.default_rng(10))
    b = step_field(centres, cfg, 0.25, np.random.default_rng(10))
    assert not np.array_equal(a, centres)
    np.testing.assert_array_equal(a, b)


def test_step_streams_differ_per_step_index():
    # Successive steps from one generator draw different displacements.
    cfg = CloudConfig()
    rng = np.random.default_rng(9)
    centres = centres_of(cfg, rng)
    first = step_field(centres, cfg, 0.25, rng)
    second = step_field(first, cfg, 0.25, rng)
    assert not np.array_equal(first - centres, second - first)


def test_step_draws_two_uniform_displacements_per_centre():
    # dx for every centre, then dy, each uniform on [-V_b dt, V_b dt].
    cfg = CloudConfig(drift_speed_vb=1.0)
    centres = np.array([[10.0, 500.0], [5.0, 200.0], [12.0, 700.0]])
    stepped = step_field(centres, cfg, 0.5, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    dx, dy = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
    np.testing.assert_array_equal(stepped, centres + np.column_stack([dx, dy]))


def test_step_displacement_bound_respected():
    cfg = CloudConfig(drift_speed_vb=10.0)
    rng = np.random.default_rng(2)
    centres = centres_of(cfg, rng)
    dt = 0.1
    stepped = step_field(centres, cfg, dt, rng)
    # Reflection can flip a displacement but never grow it beyond the
    # per-step bound while both points stay inside the rectangle.
    delta = np.abs(stepped - centres)
    assert np.all(delta <= cfg.drift_speed_vb * dt + 1e-12)


def test_step_zero_dt_only_advances_counters():
    # A zero step, or a step of no centres, draws nothing and moves
    # nothing.
    cfg = CloudConfig()
    rng = np.random.default_rng(4)
    centres = centres_of(cfg, rng)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(step_field(centres, cfg, 0.0, rng),
                                  centres)
    assert step_field(np.empty((0, 2)), cfg, 0.5, rng).shape == (0, 2)
    assert rng.bit_generator.state == state


def test_step_rejects_negative_dt():
    cfg = CloudConfig()
    rng = np.random.default_rng(0)
    centres = centres_of(cfg, rng)
    with pytest.raises(ConfigurationError):
        step_field(centres, cfg, -0.1, rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False))
def test_step_closure_for_arbitrary_step_sizes(seed, dt):
    # Even steps whose displacement bound exceeds the rectangle size must
    # keep every centre inside.
    cfg = CloudConfig(drift_speed_vb=1000.0)
    rng = np.random.default_rng(seed)
    centres = centres_of(cfg, rng)
    assert_inside(step_field(centres, cfg, dt, rng), cfg)
