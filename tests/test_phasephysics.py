"""Tests for the permittivity mixing rule and phase accumulation."""
import math

import numpy as np
import pytest

from cloudmimo import (ConfigurationError, DEFAULT_ICE_SPHERE_VOLUME,
                       MimoScenario, PhysicsParams, mixture_coefficient)
from cloudmimo.phasephysics import block_phases
from cloudmimo.raygeometry import chord_lengths

# Independently evaluated expectations (high-precision arithmetic, frozen).
WAVELENGTH_73_5_GHZ = 0.0040788089523809524        # c / 73.5e9 [m]
ICE_SPHERE_VOLUME = 4.188790204786391e-12          # (4/3) pi (1e-4)^3 [m^3]
MIXTURE_COEF_DEFAULT = 3.2551441952858099e-07      # [m^3/g] at defaults
EXCESS_EPS_AT_04 = 1.3020576781143239e-07          # coef * 0.4
PHASE_100M_1E6 = 0.15404460911344861               # 2 pi 100 / lambda0 * 1e-6


def vertical_rays(*hs):
    """Rays straight through a 1000 m layer at each h [m]: (rays, 2, 2)."""
    return np.array([[[h, 0.0], [h, 1000.0]] for h in hs])


def synthetic_field(positions, iwc, radius=5.0):
    """One field: its (n, 2) centres [m], (n,) contents and radius [m]."""
    return (np.asarray(positions, dtype=float), np.asarray(iwc, dtype=float),
            radius)


def phase_rate(params):
    """The trial kernel's phase rate on the default 73.5 GHz link."""
    return (2.0 * math.pi / MimoScenario().wavelength
            * mixture_coefficient(params))


def field_phases(field, segments, params):
    """(rays,) phases and pierced counts of one field, a block of one."""
    positions, iwc, radius = field
    phases, pierced = block_phases(positions, iwc, [len(iwc)], radius,
                                   segments, phase_rate(params))
    return phases[0], pierced[0]


def one_cloudlet_phase(chord, iwc):
    """Phase of a ray through the centre of one cloudlet of diameter chord."""
    field = synthetic_field([[10.0, 500.0]], [iwc], radius=chord / 2.0)
    return field_phases(field, vertical_rays(10.0), PhysicsParams())[0][0]


# ============================================================
# Parameters
# ============================================================

def test_default_sphere_volume():
    assert DEFAULT_ICE_SPHERE_VOLUME == pytest.approx(ICE_SPHERE_VOLUME,
                                                      rel=1e-15)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        PhysicsParams(sphere_density_n=-1.0)
    with pytest.raises(ConfigurationError):
        PhysicsParams(sphere_volume_vice=0.0)
    with pytest.raises(ConfigurationError):
        PhysicsParams(ice_permittivity_real=1.0)
    # The carrier is the link's (MimoScenario), not a physics constant.
    with pytest.raises(TypeError):
        PhysicsParams(carrier_frequency=73.5e9)


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
    phases, pierced = field_phases(field, vertical_rays(10.0), params)
    eps = mixture_coefficient(params) * 0.3
    expected = 2.0 * math.pi * 10.0 / WAVELENGTH_73_5_GHZ * eps
    assert phases[0] == pytest.approx(expected, rel=1e-12)
    assert pierced[0] == 1


def test_path_phase_additive_over_disjoint_cloudlets():
    params = PhysicsParams()
    both = synthetic_field([[10.0, 200.0], [10.0, 800.0]], [0.1, 0.3])
    first = synthetic_field([[10.0, 200.0]], [0.1])
    second = synthetic_field([[10.0, 800.0]], [0.3])
    (phi_both,), (pierced,) = field_phases(both, vertical_rays(10.0), params)
    phi_sum = field_phases(first, vertical_rays(10.0), params)[0][0] \
        + field_phases(second, vertical_rays(10.0), params)[0][0]
    assert phi_both == pytest.approx(phi_sum, rel=1e-12)
    assert pierced == 2


def test_path_phase_linear_in_iwc_scaling():
    params = PhysicsParams()
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.0, [20.0, 1000.0], (30, 2))
    iwc = rng.uniform(0.0, 0.4, 30)
    rays = vertical_rays(10.0)
    phi = field_phases(synthetic_field(positions, iwc), rays, params)[0][0]
    phi2 = field_phases(synthetic_field(positions, 2.0 * iwc), rays,
                        params)[0][0]
    assert phi2 == pytest.approx(2.0 * phi, rel=1e-12)


def test_path_phase_overlapping_cloudlets_sum_independently():
    params = PhysicsParams()
    # two cloudlets at the same centre act like one with summed content
    stacked = synthetic_field([[10.0, 500.0], [10.0, 500.0]], [0.1, 0.2])
    merged = synthetic_field([[10.0, 500.0]], [0.3])
    phi_stacked = field_phases(stacked, vertical_rays(10.0), params)[0][0]
    phi_merged = field_phases(merged, vertical_rays(10.0), params)[0][0]
    assert phi_stacked == pytest.approx(phi_merged, rel=1e-12)


def test_path_phase_zero_segment_and_empty_field():
    params = PhysicsParams()
    zero_seg = np.array([[[10.0, 0.0], [10.0, 0.0]]])
    field = synthetic_field([[10.0, 500.0]], [0.3])
    phases, pierced = field_phases(field, zero_seg, params)
    assert phases[0] == 0.0
    assert pierced[0] == 0
    empty = synthetic_field(np.empty((0, 2)), np.empty(0))
    phases, pierced = field_phases(empty, vertical_rays(10.0), params)
    assert phases[0] == 0.0
    assert pierced[0] == 0


def test_path_phase_multiple_segments_independent():
    params = PhysicsParams()
    field = synthetic_field([[5.0, 500.0]], [0.4])
    # the first ray hits the cloudlet, the second misses it
    phases, pierced = field_phases(field, vertical_rays(5.0, 15.0), params)
    assert phases[0] > 0.0
    assert phases[1] == 0.0
    assert list(pierced) == [1, 0]


def test_block_phases_match_exact_sums_at_pairwise_block_edges():
    # Field sizes at the edges of numpy's pairwise summation (8
    # accumulators, 128-term blocks), with empty fields first, in the
    # middle and last.
    counts = np.array([0, 1, 7, 0, 8, 129, 0, 1000, 0])
    n = counts.sum()
    rng = np.random.default_rng(16)
    # Both rays pierce every cloudlet, so one counted in a neighbouring
    # field moves both fields' phases by a whole term.
    positions = np.column_stack([rng.uniform(9.6, 10.4, n),
                                 rng.uniform(0.0, 1000.0, n)])
    iwc = rng.random((2, n)) * 0.4
    segments = vertical_rays(9.9, 10.1)
    params = PhysicsParams()
    scale = phase_rate(params)
    starts = np.cumsum(counts) - counts
    for j in range(2):
        phases, pierced = block_phases(positions, iwc[j], counts, 2.5,
                                       segments, scale)
        for f, (start, count) in enumerate(zip(starts, counts)):
            mine = slice(start, start + count)
            assert pierced[f].tolist() == [count, count]
            for r, seg in enumerate(segments):
                chords = chord_lengths(seg, positions[mine], 2.5)
                terms = [scale * w * l for w, l in zip(iwc[j, mine], chords)]
                bound = 4.0 * np.finfo(float).eps * math.fsum(map(abs, terms))
                assert abs(phases[f, r] - math.fsum(terms)) <= bound


def test_block_phases_leave_inputs_unmodified():
    rng = np.random.default_rng(3)
    positions = rng.random((300, 2)) * (20.0, 1000.0)
    iwc = rng.random((2, 300)) * 0.4
    segments = vertical_rays(9.5, 10.5)
    params = PhysicsParams()
    # All but the first layout hold empty fields: first, in the middle,
    # last and throughout.
    for counts in ([100, 120, 80], [0, 150, 0, 150, 0], [0, 0, 300],
                   [300, 0, 0], [0, 0]):
        n = sum(counts)
        counts = np.array(counts)
        starts = np.cumsum(counts) - counts
        for j in range(2):
            inputs = (positions[:n], iwc[j, :n], counts)
            before = [a.copy() for a in inputs]
            phases, pierced = block_phases(*inputs, 2.5, segments,
                                           phase_rate(params))
            for array, copy in zip(inputs, before):
                assert np.array_equal(array, copy)
            assert phases.shape == (len(counts), 2)
            assert pierced.shape == (len(counts), 2)
            # each field equals a trace of that field alone
            for f, (start, count) in enumerate(zip(starts, counts)):
                mine = slice(start, start + count)
                assert (np.all(phases[f] > 0.0) if count
                        else np.all(phases[f] == 0.0))
                field = (positions[mine], iwc[j, mine], 2.5)
                alone, alone_pierced = field_phases(field, segments, params)
                assert np.array_equal(alone, phases[f])
                assert np.array_equal(alone_pierced, pierced[f])
                for r, seg in enumerate(segments):
                    chords = chord_lengths(seg, positions[mine], 2.5)
                    assert pierced[f, r] == np.count_nonzero(chords > 0.0)
