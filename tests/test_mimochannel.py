"""Tests for the LoS channel, capacity and sub-channel correlation."""
import math

import numpy as np
import pytest

from cloudmimo import (ChannelMatrix, ConfigurationError, MimoScenario,
                       NumericError, PathPhase, capacity_bits, los_channel,
                       pair_distances, rayleigh_distance)
from cloudmimo.mimochannel import ensemble_mean, subchannel_coherence

# Independently evaluated expectations (frozen).
RAYLEIGH_TABLE3 = 18142.178131879488      # 2 (6.0827)^2 / lambda0 [m]
CAPACITY_IDENTITY = 11.344850683942991    # 2 log2(51) at 20 dB
CAPACITY_ORTHOGONAL = 13.316422965503589  # 2 log2(101) at 20 dB
CAPACITY_RANK_ONE = 7.6510516911789286    # log2(201) at 20 dB
ORTHOGONALITY_DISTANCE = 2982.58637314    # d_t d_r N / lambda0 [m]


def compensated(h) -> ChannelMatrix:
    """A bare matrix, or a stack, as a channel that is used as-is."""
    h = np.asarray(h)
    return ChannelMatrix(entries=h, distances=np.ones(h.shape[-2:]),
                         compensated=True)


# ============================================================
# Scenario and distances
# ============================================================

def test_scenario_defaults_and_wavelength():
    scen = MimoScenario()
    assert scen.wavelength == pytest.approx(0.0040788089523809524, rel=1e-15)


def test_scenario_validation_collects_problems():
    with pytest.raises(ConfigurationError) as err:
        MimoScenario(num_tx=0, tx_spacing=-1.0, link_distance=0.0)
    message = str(err.value)
    assert "array sizes" in message
    assert "spacings" in message
    assert "link_distance" in message


def test_pair_distances_exact_2x2():
    scen = MimoScenario(link_distance=40000.0)
    d = pair_distances(scen)
    assert d.shape == (2, 2)
    near = math.sqrt(40000.0 ** 2 + ((6.0827 - 1.0) / 2.0) ** 2)
    far = math.sqrt(40000.0 ** 2 + ((6.0827 + 1.0) / 2.0) ** 2)
    assert d[0, 0] == pytest.approx(near, rel=1e-15)
    assert d[1, 1] == pytest.approx(near, rel=1e-15)
    assert d[0, 1] == pytest.approx(far, rel=1e-15)
    assert d[1, 0] == pytest.approx(far, rel=1e-15)


def test_pair_distances_exceed_link_distance():
    scen = MimoScenario()
    assert np.all(pair_distances(scen) >= scen.link_distance)


# ============================================================
# Channel entries
# ============================================================

def test_compensated_entries_are_unit_modulus():
    scen = MimoScenario(compensated=True)
    h = los_channel(scen).entries
    np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-14)


def test_uncompensated_entries_carry_inverse_distance():
    scen = MimoScenario(compensated=False)
    cm = los_channel(scen)
    np.testing.assert_allclose(np.abs(cm.entries), 1.0 / cm.distances,
                               rtol=1e-14)


def test_entry_phase_matches_distance():
    scen = MimoScenario(compensated=True)
    cm = los_channel(scen)
    expected = np.exp(-1j * 2.0 * np.pi * cm.distances / scen.wavelength)
    np.testing.assert_allclose(cm.entries, expected, rtol=1e-12)


def test_zero_cloud_phase_is_exactly_transparent():
    scen = MimoScenario(compensated=True)
    clear = los_channel(scen)
    zero = PathPhase(per_ray_phase=np.zeros(4),
                     per_ray_cloudlet_count=np.zeros(4, dtype=int))
    with_zero = los_channel(scen, zero)
    np.testing.assert_array_equal(with_zero.entries, clear.entries)


def test_cloud_phase_rotates_entries():
    scen = MimoScenario(compensated=True)
    phases = PathPhase(per_ray_phase=np.array([0.1, 0.2, 0.3, 0.4]),
                       per_ray_cloudlet_count=np.ones(4, dtype=int))
    cm = los_channel(scen, phases)
    clear = los_channel(scen)
    rotation = cm.entries / clear.entries
    np.testing.assert_allclose(
        np.angle(rotation).ravel(), [-0.1, -0.2, -0.3, -0.4], atol=1e-12)


def test_cloud_phase_ray_count_mismatch():
    scen = MimoScenario()
    bad = PathPhase(per_ray_phase=np.zeros(3),
                    per_ray_cloudlet_count=np.zeros(3, dtype=int))
    with pytest.raises(ConfigurationError):
        los_channel(scen, bad)


# ============================================================
# Capacity
# ============================================================

def test_capacity_identity_channel():
    assert capacity_bits(compensated(np.eye(2)), 20.0) == pytest.approx(
        CAPACITY_IDENTITY, rel=1e-12)


def test_capacity_orthogonal_unit_modulus():
    h = compensated([[1.0, 1.0], [1.0, -1.0]])
    assert capacity_bits(h, 20.0) == pytest.approx(CAPACITY_ORTHOGONAL,
                                                   rel=1e-12)


def test_capacity_rank_one_bound():
    h = compensated(np.ones((2, 2), dtype=complex))
    assert capacity_bits(h, 20.0) == pytest.approx(CAPACITY_RANK_ONE,
                                                   rel=1e-12)


def test_capacity_bare_matrix_used_as_is():
    # a compensated channel is not normalized, so scaling changes the
    # capacity
    h = compensated(2.0 * np.eye(2))
    assert capacity_bits(h, 20.0) == pytest.approx(2.0 * math.log2(201.0),
                                                   rel=1e-12)


def test_capacity_uncompensated_normalization_removes_path_loss():
    # the same phase structure at unit gains and at inverse-distance gains
    # gives (almost exactly) the same capacity after normalization
    scen_c = MimoScenario(compensated=True)
    scen_u = MimoScenario(compensated=False)
    cap_c = capacity_bits(los_channel(scen_c), 20.0)
    cap_u = capacity_bits(los_channel(scen_u), 20.0)
    assert cap_u == pytest.approx(cap_c, rel=1e-6)


def test_capacity_at_orthogonality_distance():
    scen = MimoScenario(link_distance=ORTHOGONALITY_DISTANCE,
                        compensated=True)
    assert capacity_bits(los_channel(scen), 20.0) == pytest.approx(
        CAPACITY_ORTHOGONAL, abs=1e-4)


def test_capacity_zero_channel():
    assert capacity_bits(compensated(np.zeros((2, 2), dtype=complex)),
                         20.0) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_capacity_rejects_non_finite():
    h = compensated(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NumericError):
        capacity_bits(h, 20.0)


def test_capacity_monotone_in_snr():
    h = compensated([[1.0, 1.0], [1.0, -1.0]])
    caps = [capacity_bits(h, snr) for snr in (0.0, 10.0, 20.0, 30.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_capacity_of_a_stack_equals_each_matrix_alone():
    # A single matrix is a stack of one: the batched evaluation must give
    # every matrix's own capacity bit for bit, normalized or not.
    rng = np.random.default_rng(3)
    phases = PathPhase(per_ray_phase=rng.normal(0.0, 1.0, (2, 5, 4)),
                       per_ray_cloudlet_count=np.zeros((2, 5, 4), dtype=int))
    for compensated in (True, False):
        stack = los_channel(MimoScenario(compensated=compensated), phases)
        caps = capacity_bits(stack, 20.0)
        assert caps.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                alone = ChannelMatrix(entries=stack.entries[i, j],
                                      distances=stack.distances,
                                      compensated=compensated)
                assert caps[i, j] == capacity_bits(alone, 20.0)


def test_stacked_cloud_phases_give_stacked_channels():
    scen = MimoScenario()
    phases = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]])
    stack = los_channel(scen, PathPhase(
        per_ray_phase=phases, per_ray_cloudlet_count=np.zeros((2, 4), int)))
    assert stack.entries.shape == (2, 2, 2)
    one = los_channel(scen, PathPhase(per_ray_phase=phases[0],
                                      per_ray_cloudlet_count=np.zeros(4)))
    assert np.array_equal(stack.entries[0], one.entries)
    assert np.array_equal(stack.entries[1], los_channel(scen).entries)


# ============================================================
# Rayleigh distance
# ============================================================

def test_rayleigh_distance_value():
    assert rayleigh_distance(MimoScenario()) == pytest.approx(
        RAYLEIGH_TABLE3, abs=1e-6)


def test_rayleigh_distance_uses_larger_aperture():
    scen = MimoScenario(num_tx=2, num_rx=2, tx_spacing=8.0, rx_spacing=2.0)
    assert rayleigh_distance(scen) == pytest.approx(
        2.0 * 64.0 / scen.wavelength, rel=1e-12)


def test_rayleigh_distance_classification():
    boundary = rayleigh_distance(MimoScenario())
    assert 10000.0 < boundary
    assert 40000.0 > boundary


# ============================================================
# Sub-channel correlation
# ============================================================

def test_correlation_identical_columns_is_one():
    h = compensated([[1.0, 1.0], [1.0j, 1.0j]])
    assert subchannel_coherence(h) == pytest.approx(1.0, rel=1e-14)


def test_correlation_orthogonal_columns_is_zero():
    h = compensated([[1.0, 1.0], [1.0, -1.0]])
    assert subchannel_coherence(h) == pytest.approx(0.0, abs=1e-14)


def test_correlation_all_equal_ensemble_is_exact():
    # The correlation sweep's reduction: the ensemble mean of identical
    # coherences is the common value, bit for bit.
    scen = MimoScenario(link_distance=12345.0, compensated=True)
    single = subchannel_coherence(los_channel(scen))
    phases = PathPhase(per_ray_phase=np.zeros((7, 4)),
                       per_ray_cloudlet_count=np.zeros((7, 4), dtype=int))
    many = subchannel_coherence(los_channel(scen, phases))
    assert many.shape == (7,)
    assert ensemble_mean(many) == single   # bitwise, no averaging drift


def test_correlation_bounded_for_unit_phase_ensembles():
    rng = np.random.default_rng(17)
    stack = compensated(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi,
                                                (200, 2, 2))))
    value = ensemble_mean(subchannel_coherence(stack))
    assert 0.0 <= value <= 1.0


def test_correlation_rejects_unusable_input():
    with pytest.raises(ConfigurationError):
        subchannel_coherence(compensated(np.ones((2, 1), dtype=complex)))


def test_coherence_of_a_stack_equals_each_matrix_alone():
    rng = np.random.default_rng(5)
    stack = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (6, 2, 2)))
    stack[4, :, 0] = 0.0    # a zero-norm column reads NaN
    values = subchannel_coherence(compensated(stack))
    assert values.shape == (6,)
    assert np.isnan(values[4])
    for i in (0, 1, 2, 3, 5):
        assert values[i] == subchannel_coherence(compensated(stack[i]))
