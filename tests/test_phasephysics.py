"""Tests for the permittivity mixing rule and phase accumulation."""
import math

import numpy as np
import pytest

from cloudmimo import (CloudConfig, CloudField, ConfigurationError,
                       DEFAULT_ICE_SPHERE_VOLUME, PhysicsParams, Segment2D,
                       mixture_coefficient, path_phase)
from cloudmimo.phasephysics import block_phases
from cloudmimo.raygeometry import chord_lengths

# Independently evaluated expectations (high-precision arithmetic, frozen).
WAVELENGTH_73_5_GHZ = 0.0040788089523809524        # c / 73.5e9 [m]
ICE_SPHERE_VOLUME = 4.188790204786391e-12          # (4/3) pi (1e-4)^3 [m^3]
MIXTURE_COEF_DEFAULT = 3.2551441952858099e-07      # [m^3/g] at defaults
EXCESS_EPS_AT_04 = 1.3020576781143239e-07          # coef * 0.4
PHASE_100M_1E6 = 0.15404460911344861               # 2 pi 100 / lambda0 * 1e-6


def synthetic_field(positions, iwc, radius=5.0):
    return CloudField(config=CloudConfig(), positions=np.asarray(positions,
                                                                 dtype=float),
                      iwc=np.asarray(iwc, dtype=float), radius=radius)


def one_cloudlet_phase(chord, iwc):
    """Phase of a ray through the centre of one cloudlet of diameter chord."""
    field = synthetic_field([[10.0, 500.0]], [iwc], radius=chord / 2.0)
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    return path_phase(field, [seg], PhysicsParams()).per_ray_phase[0]


# ============================================================
# Parameters
# ============================================================

def test_default_wavelength_derived_from_frequency():
    params = PhysicsParams()
    assert params.wavelength_lambda0 == pytest.approx(WAVELENGTH_73_5_GHZ,
                                                      rel=1e-15)


def test_default_sphere_volume():
    assert DEFAULT_ICE_SPHERE_VOLUME == pytest.approx(ICE_SPHERE_VOLUME,
                                                      rel=1e-15)


def test_consistent_explicit_wavelength_accepted():
    params = PhysicsParams(wavelength_lambda0=WAVELENGTH_73_5_GHZ)
    assert params.wavelength_lambda0 == pytest.approx(WAVELENGTH_73_5_GHZ)


def test_inconsistent_wavelength_rejected():
    with pytest.raises(ConfigurationError):
        PhysicsParams(wavelength_lambda0=0.005)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        PhysicsParams(sphere_density_n=-1.0)
    with pytest.raises(ConfigurationError):
        PhysicsParams(sphere_volume_vice=0.0)
    with pytest.raises(ConfigurationError):
        PhysicsParams(ice_permittivity_real=1.0)
    with pytest.raises(ConfigurationError):
        PhysicsParams(carrier_frequency=0.0)


# ============================================================
# Mixing rule
# ============================================================

def test_mixture_coefficient_value():
    assert mixture_coefficient(PhysicsParams()) == pytest.approx(
        MIXTURE_COEF_DEFAULT, rel=1e-14)


def test_mixture_permittivity_scalar_and_array():
    # A cloudlet's excess permittivity is the coefficient times its content.
    coefficient = mixture_coefficient(PhysicsParams())
    assert coefficient * 0.4 == pytest.approx(EXCESS_EPS_AT_04, rel=1e-14)
    arr = coefficient * np.array([0.0, 0.2, 0.4])
    assert arr[0] == 0.0
    assert arr[2] == pytest.approx(EXCESS_EPS_AT_04, rel=1e-14)
    assert arr[1] == pytest.approx(EXCESS_EPS_AT_04 / 2.0, rel=1e-14)


def test_mixture_permittivity_linear_in_iwc():
    a = one_cloudlet_phase(100.0, 0.123)
    b = one_cloudlet_phase(100.0, 0.246)
    assert b == pytest.approx(2.0 * a, rel=1e-14)


# ============================================================
# Per-chord phase
# ============================================================

def test_phase_through_chord_value():
    # excess permittivity 1e-6 over a 100 m chord
    iwc = 1e-6 / mixture_coefficient(PhysicsParams())
    phase = one_cloudlet_phase(100.0, iwc)
    assert phase == pytest.approx(PHASE_100M_1E6, rel=1e-14)


def test_phase_linear_in_chord_and_permittivity():
    iwc = 1e-6 / mixture_coefficient(PhysicsParams())
    base = one_cloudlet_phase(100.0, iwc)
    assert one_cloudlet_phase(200.0, iwc) \
        == pytest.approx(2.0 * base, rel=1e-12)
    assert one_cloudlet_phase(100.0, 3.0 * iwc) \
        == pytest.approx(3.0 * base, rel=1e-12)
    assert one_cloudlet_phase(100.0, 0.0) == 0.0


# ============================================================
# Per-ray accumulation
# ============================================================



def test_path_phase_single_cloudlet_manual():
    params = PhysicsParams()
    field = synthetic_field([[10.0, 500.0]], [0.3])
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    result = path_phase(field, [seg], params)
    eps = mixture_coefficient(params) * 0.3
    expected = 2.0 * math.pi * 10.0 / params.wavelength_lambda0 * eps
    assert result.per_ray_phase[0] == pytest.approx(expected, rel=1e-12)
    assert result.per_ray_cloudlet_count[0] == 1


def test_path_phase_additive_over_disjoint_cloudlets():
    params = PhysicsParams()
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    both = synthetic_field([[10.0, 200.0], [10.0, 800.0]], [0.1, 0.3])
    first = synthetic_field([[10.0, 200.0]], [0.1])
    second = synthetic_field([[10.0, 800.0]], [0.3])
    phi_both = path_phase(both, [seg], params).per_ray_phase[0]
    phi_sum = path_phase(first, [seg], params).per_ray_phase[0] \
        + path_phase(second, [seg], params).per_ray_phase[0]
    assert phi_both == pytest.approx(phi_sum, rel=1e-12)
    assert path_phase(both, [seg], params).per_ray_cloudlet_count[0] == 2


def test_path_phase_linear_in_iwc_scaling():
    params = PhysicsParams()
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, [20.0, 1000.0], (30, 2))
    iwc = rng.uniform(0.0, 0.4, 30)
    phi = path_phase(synthetic_field(positions, iwc), [seg],
                     params).per_ray_phase[0]
    phi2 = path_phase(synthetic_field(positions, 2.0 * iwc), [seg],
                      params).per_ray_phase[0]
    assert phi2 == pytest.approx(2.0 * phi, rel=1e-12)


def test_path_phase_overlapping_cloudlets_sum_independently():
    params = PhysicsParams()
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    # two cloudlets at the same centre act like one with summed content
    stacked = synthetic_field([[10.0, 500.0], [10.0, 500.0]], [0.1, 0.2])
    merged = synthetic_field([[10.0, 500.0]], [0.3])
    phi_stacked = path_phase(stacked, [seg], params).per_ray_phase[0]
    phi_merged = path_phase(merged, [seg], params).per_ray_phase[0]
    assert phi_stacked == pytest.approx(phi_merged, rel=1e-12)


def test_path_phase_zero_segment_and_empty_field():
    params = PhysicsParams()
    zero_seg = Segment2D(start=np.array([10.0, 0.0]),
                         end=np.array([10.0, 0.0]))
    field = synthetic_field([[10.0, 500.0]], [0.3])
    result = path_phase(field, [zero_seg], params)
    assert result.per_ray_phase[0] == 0.0
    assert result.per_ray_cloudlet_count[0] == 0
    empty = synthetic_field(np.empty((0, 2)), np.empty(0))
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    result = path_phase(empty, [seg], params)
    assert result.per_ray_phase[0] == 0.0


def test_path_phase_multiple_segments_independent():
    params = PhysicsParams()
    field = synthetic_field([[5.0, 500.0]], [0.4])
    hit_seg = Segment2D(start=np.array([5.0, 0.0]), end=np.array([5.0, 1000.0]))
    miss_seg = Segment2D(start=np.array([15.0, 0.0]),
                         end=np.array([15.0, 1000.0]))
    result = path_phase(field, [hit_seg, miss_seg], params)
    assert result.per_ray_phase[0] > 0.0
    assert result.per_ray_phase[1] == 0.0
    assert list(result.per_ray_cloudlet_count) == [1, 0]


def test_block_phases_leave_inputs_unmodified():
    rng = np.random.default_rng(3)
    positions = rng.random((300, 2)) * (20.0, 1000.0)
    iwc = rng.random((2, 300)) * 0.4
    segments = [Segment2D(start=np.array([x, 0.0]), end=np.array([x, 1000.0]))
                for x in (9.5, 10.5)]
    params = PhysicsParams()
    # All but the first layout hold empty fields: first, in the middle,
    # last and throughout.  reduceat would mis-sum them if they got a
    # start, and rejects a start equal to n.
    for counts in ([100, 120, 80], [0, 150, 0, 150, 0], [0, 0, 300],
                   [300, 0, 0], [0, 0]):
        n = sum(counts)
        counts = np.array(counts)
        inputs = (positions[:n], iwc[:, :n], counts)
        before = [a.copy() for a in inputs]
        fresh = block_phases(*inputs, 2.5, segments, params)
        work = np.full((5, 400), np.nan)
        reused = block_phases(*inputs, 2.5, segments, params, work)
        for array, copy in zip(inputs, before):
            assert np.array_equal(array, copy)
        assert fresh.per_ray_phase.shape == (2, len(counts), 2)
        assert np.array_equal(fresh.per_ray_phase, reused.per_ray_phase)
        assert np.array_equal(fresh.per_ray_cloudlet_count,
                              reused.per_ray_cloudlet_count)
        # each variant of each field equals a trace of that field alone
        starts = np.cumsum(counts) - counts
        for f, (start, count) in enumerate(zip(starts, counts)):
            mine = slice(start, start + count)
            assert (np.all(fresh.per_ray_phase[:, f] > 0.0) if count
                    else np.all(fresh.per_ray_phase[:, f] == 0.0))
            for j in range(2):
                field = CloudField(config=CloudConfig(),
                                   positions=positions[mine],
                                   iwc=iwc[j, mine], radius=2.5)
                alone = path_phase(field, segments, params)
                assert np.array_equal(alone.per_ray_phase,
                                      fresh.per_ray_phase[j, f])
                assert np.array_equal(alone.per_ray_cloudlet_count,
                                      fresh.per_ray_cloudlet_count[j, f])
            for r, seg in enumerate(segments):
                chords = chord_lengths(seg, positions[mine], 2.5)
                assert (fresh.per_ray_cloudlet_count[:, f, r]
                        == np.count_nonzero(chords > 0.0)).all()
