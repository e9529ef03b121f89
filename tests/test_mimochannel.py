"""Tests for the LoS channel, capacity and sub-channel correlation."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cloudmimo import (ConfigurationError, MimoScenario, NumericError,
                       capacity_bits, los_channel, pair_distances,
                       rayleigh_distance)
from cloudmimo.mimochannel import ensemble_mean, subchannel_coherence

# Independently evaluated expectations (frozen).
RAYLEIGH_TABLE3 = 18142.178131879488      # 2 (6.0827)^2 / lambda0 [m]
CAPACITY_IDENTITY = 11.344850683942991    # 2 log2(51) at 20 dB
CAPACITY_ORTHOGONAL = 13.316422965503589  # 2 log2(101) at 20 dB
CAPACITY_RANK_ONE = 7.6510516911789286    # log2(201) at 20 dB
ORTHOGONALITY_DISTANCE = 2982.58637314    # d_t d_r N / lambda0 [m]

# Array shapes besides the 2x2 of both profiles: Nr x Nt.
OTHER_SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4)]


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
    h = los_channel(scen)
    np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-14)


def test_uncompensated_entries_carry_inverse_distance():
    scen = MimoScenario(compensated=False)
    h = los_channel(scen)
    np.testing.assert_allclose(np.abs(h),
                               1.0 / pair_distances(scen), rtol=1e-14)


def test_entry_phase_matches_distance():
    scen = MimoScenario(compensated=True)
    h = los_channel(scen)
    expected = np.exp(-1j * 2.0 * np.pi * pair_distances(scen)
                      / scen.wavelength)
    np.testing.assert_allclose(h, expected, rtol=1e-12)


def test_zero_cloud_phase_is_exactly_transparent():
    scen = MimoScenario(compensated=True)
    clear = los_channel(scen)
    with_zero = los_channel(scen, np.zeros(4))
    np.testing.assert_array_equal(with_zero, clear)


def test_cloud_phase_rotates_entries():
    scen = MimoScenario(compensated=True)
    h = los_channel(scen, np.array([0.1, 0.2, 0.3, 0.4]))
    rotation = h / los_channel(scen)
    np.testing.assert_allclose(
        np.angle(rotation).ravel(), [-0.1, -0.2, -0.3, -0.4], atol=1e-12)


def test_cloud_phase_ray_count_mismatch():
    scen = MimoScenario()
    with pytest.raises(ConfigurationError):
        los_channel(scen, np.zeros(3))


# ============================================================
# Capacity
# ============================================================

def test_capacity_identity_channel():
    assert capacity_bits(np.eye(2), 20.0, True) == pytest.approx(
        CAPACITY_IDENTITY, rel=1e-12)


def test_capacity_orthogonal_unit_modulus():
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert capacity_bits(h, 20.0, True) == pytest.approx(
        CAPACITY_ORTHOGONAL, rel=1e-12)


def test_capacity_rank_one_bound():
    h = np.ones((2, 2), dtype=complex)
    assert capacity_bits(h, 20.0, True) == pytest.approx(CAPACITY_RANK_ONE,
                                                         rel=1e-12)


def test_capacity_bare_matrix_used_as_is():
    # a compensated channel is not normalized, so scaling changes the
    # capacity
    h = 2.0 * np.eye(2)
    assert capacity_bits(h, 20.0, True) == pytest.approx(
        2.0 * math.log2(201.0), rel=1e-12)


def test_capacity_uncompensated_normalization_removes_path_loss():
    # the same phase structure at unit gains and at inverse-distance gains
    # gives (almost exactly) the same capacity after normalization
    scen_c = MimoScenario(compensated=True)
    scen_u = MimoScenario(compensated=False)
    cap_c = capacity_bits(los_channel(scen_c), 20.0, True)
    cap_u = capacity_bits(los_channel(scen_u), 20.0, False)
    assert cap_u == pytest.approx(cap_c, rel=1e-6)


def test_capacity_at_orthogonality_distance():
    scen = MimoScenario(link_distance=ORTHOGONALITY_DISTANCE,
                        compensated=True)
    assert capacity_bits(los_channel(scen), 20.0, True) == pytest.approx(
        CAPACITY_ORTHOGONAL, abs=1e-4)


def test_capacity_zero_channel():
    assert capacity_bits(np.zeros((2, 2), dtype=complex), 20.0,
                         True) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_capacity_rejects_non_finite():
    h = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericError):
        capacity_bits(h, 20.0, True)


def test_capacity_monotone_in_snr():
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    caps = [capacity_bits(h, snr, True) for snr in (0.0, 10.0, 20.0, 30.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_capacity_of_a_stack_equals_each_matrix_alone():
    # A single matrix is a stack of one: the batched evaluation must give
    # every matrix's own capacity bit for bit, normalized or not, on every
    # array shape.
    for num_rx, num_tx in ((2, 2), *OTHER_SHAPES):
        rng = np.random.default_rng(3)
        phases = rng.normal(0.0, 1.0, (2, 5, num_rx * num_tx))
        for compensated in (True, False):
            stack = los_channel(MimoScenario(
                num_tx=num_tx, num_rx=num_rx, compensated=compensated),
                phases)
            caps = capacity_bits(stack, 20.0, compensated)
            assert caps.shape == (2, 5)
            for i in range(2):
                for j in range(5):
                    assert caps[i, j] == capacity_bits(stack[i, j], 20.0,
                                                       compensated)


def slogdet_capacity(h: np.ndarray, snr_db: float,
                     compensated: bool) -> np.ndarray:
    """The capacity of an (S, Nr, Nt) stack by LAPACK's log-determinant."""
    num_rx, num_tx = h.shape[-2:]
    if not compensated:
        power = np.sum(np.abs(h) ** 2, axis=(-2, -1), keepdims=True)
        power = np.where(power > 0.0, power, num_rx * num_tx)
        h = h * np.sqrt(num_rx * num_tx / power)
    rho = 10.0 ** (snr_db / 10.0)
    gram = np.eye(num_rx) + (rho / num_tx) * (h @ np.conj(h).swapaxes(-1, -2))
    sign, logdet = np.linalg.slogdet(gram)
    return sign.real * logdet / np.log(2.0)


@pytest.mark.parametrize("num_rx,num_tx", [(2, 2), *OTHER_SHAPES])
@pytest.mark.parametrize("snr_db", [0.0, 20.0])
@pytest.mark.parametrize("compensated", [True, False])
def test_capacity_matches_a_slogdet_oracle(num_rx, num_tx, snr_db,
                                           compensated):
    rng = np.random.default_rng(18)
    shape = (200, num_rx, num_tx)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h[0] = 0.0          # the all-zero matrix: capacity 0, normalized or not
    h[1] = h[2] * 0.5   # the same matrix at half the amplitude
    # the LoS channel itself, off and at its orthogonality distance
    for row, distance in ((3, 40000.0), (4, ORTHOGONALITY_DISTANCE)):
        scen = MimoScenario(num_tx=num_tx, num_rx=num_rx,
                            link_distance=distance, compensated=compensated)
        h[row] = los_channel(scen)
    caps = capacity_bits(h, snr_db, compensated)
    assert caps.shape == (200,)
    assert caps[0] == 0.0
    np.testing.assert_allclose(caps, slogdet_capacity(h, snr_db, compensated),
                               rtol=1e-13, atol=0.0)
    if compensated:
        assert caps[1] < caps[2]
    else:
        assert caps[1] == caps[2]   # a power-of-2 gain scales exactly
    h[5, -1, -1] = np.nan
    with pytest.raises(NumericError, match="not finite for 1 of 200"):
        capacity_bits(h, snr_db, compensated)


def exact_capacity(h: np.ndarray, snr_db: float) -> float:
    """``log2 det(I + (rho / Nt) H H^H)`` of one compensated (Nr, Nt)
    matrix, with the matrix and its determinant taken exactly.

    Each entry is a pair (real, imaginary) of fractions; the determinant
    is the product of the pivots of Gaussian elimination, which a
    Hermitian positive definite matrix needs no pivoting for.
    """
    num_rx, num_tx = h.shape
    scale = Fraction(10.0 ** (snr_db / 10.0)) / num_tx
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in h]
    m = [[(Fraction(i == k) + scale * sum(a * c + b * d for (a, b), (c, d)
                                           in zip(rows[i], rows[k])),
           scale * sum(b * c - a * d for (a, b), (c, d)
                       in zip(rows[i], rows[k])))
          for k in range(num_rx)] for i in range(num_rx)]
    det = (Fraction(1), Fraction(0))
    for j in range(num_rx):
        pr, pi = m[j][j]
        det = (det[0] * pr - det[1] * pi, det[0] * pi + det[1] * pr)
        norm = pr * pr + pi * pi
        for i in range(j + 1, num_rx):
            ar, ai = m[i][j]
            fr, fi = (ar * pr + ai * pi) / norm, (ai * pr - ar * pi) / norm
            for k in range(j + 1, num_rx):
                (br, bi), (cr, ci) = m[j][k], m[i][k]
                m[i][k] = (cr - (fr * br - fi * bi), ci - (fr * bi + fi * br))
    assert det[1] == 0 and det[0] > 0
    return math.log2(det[0])


@pytest.mark.parametrize("num_rx,num_tx", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_capacity_matches_an_exact_determinant(num_rx, num_tx):
    # With more receive than transmit antennas the Nr x Nr matrix has
    # Nr - Nt unit eigenvalues; factoring it loses digits that the
    # Nt x Nt matrix of Sylvester's identity keeps.
    rng = np.random.default_rng(40)
    h = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (20, num_rx, num_tx)))
    caps = capacity_bits(h, 40.0, True)
    for cap, matrix in zip(caps, h):
        exact = exact_capacity(matrix, 40.0)
        assert abs(cap - exact) <= 1e-14 * exact, (cap, exact)


def test_stacked_cloud_phases_give_stacked_channels():
    scen = MimoScenario()
    phases = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]])
    stack = los_channel(scen, phases)
    assert stack.shape == (2, 2, 2)
    assert np.array_equal(stack[0], los_channel(scen, phases[0]))
    assert np.array_equal(stack[1], los_channel(scen))


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
    h = np.array([[1.0, 1.0], [1.0j, 1.0j]])
    assert subchannel_coherence(h) == pytest.approx(1.0, rel=1e-14)


def test_correlation_orthogonal_columns_is_zero():
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert subchannel_coherence(h) == pytest.approx(0.0, abs=1e-14)


def test_correlation_all_equal_ensemble_is_exact():
    # The correlation sweep's reduction: the ensemble mean of identical
    # coherences is the common value, bit for bit.
    scen = MimoScenario(link_distance=12345.0, compensated=True)
    single = subchannel_coherence(los_channel(scen))
    many = subchannel_coherence(los_channel(scen, np.zeros((7, 4))))
    assert many.shape == (7,)
    assert ensemble_mean(many) == single   # bitwise, no averaging drift


def test_correlation_bounded_for_unit_phase_ensembles():
    rng = np.random.default_rng(17)
    stack = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (200, 2, 2)))
    value = ensemble_mean(subchannel_coherence(stack))
    assert 0.0 <= value <= 1.0


def test_correlation_rejects_unusable_input():
    with pytest.raises(ConfigurationError):
        subchannel_coherence(np.ones((2, 1), dtype=complex))


def test_coherence_of_a_stack_equals_each_matrix_alone():
    rng = np.random.default_rng(5)
    stack = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (6, 2, 2)))
    stack[4, :, 0] = 0.0    # a zero-norm column reads NaN
    values = subchannel_coherence(stack)
    assert values.shape == (6,)
    assert np.isnan(values[4])
    for i in (0, 1, 2, 3, 5):
        assert values[i] == subchannel_coherence(stack[i])
