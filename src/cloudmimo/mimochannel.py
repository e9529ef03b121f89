"""Line-of-sight MIMO channel, capacity, and sub-channel correlation.

The channel between broadside uniform linear arrays is purely geometric:
every entry is a unit (or inverse-distance) gain at a phase set by the exact
antenna-pair distance, plus any cloud-induced excess phase.  Capacity is the
log-determinant of the usual equal-power allocation, taken from a Cholesky
factorization that runs over a whole stack of channels at once, and
sub-channel correlation is the normalized column coherence that cloud
phase noise is expected to erode.  Both metrics take every inner product
from one real-arithmetic Gram matrix, so neither depends on the SIMD
kernels numpy picks per CPU, except for the capacity's ``np.log``.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigurationError, NumericError

SPEED_OF_LIGHT = 299_792_458.0   # [m/s]

# Carrier frequency of the measured link [Hz]; it sets the cloud phases too.
DEFAULT_CARRIER_FREQUENCY = 73.5e9


@dataclasses.dataclass(frozen=True)
class MimoScenario:
    """Array layout and link budget of one LoS MIMO link."""

    num_tx: int = 2
    num_rx: int = 2
    tx_spacing: float = 1.0        # transmit element spacing [m]
    rx_spacing: float = 6.0827     # receive element spacing [m]
    carrier_frequency: float = DEFAULT_CARRIER_FREQUENCY   # [Hz]
    snr_db: float = 20.0           # per-receive-antenna SNR [dB]
    link_distance: float = 40000.0  # distance between array centres [m]
    compensated: bool = False      # True: unit gains; False: 1/d gains

    def __post_init__(self) -> None:
        problems = []
        if self.num_tx < 1 or self.num_rx < 1:
            problems.append(
                f"array sizes must be >= 1, got {self.num_tx}x{self.num_rx}")
        if self.tx_spacing < 0.0 or self.rx_spacing < 0.0:
            problems.append("antenna spacings must be >= 0")
        if self.carrier_frequency <= 0.0:
            problems.append(
                f"carrier_frequency must be > 0, got {self.carrier_frequency}")
        if self.link_distance <= 0.0:
            problems.append(
                f"link_distance must be > 0, got {self.link_distance}")
        with np.errstate(over="ignore"):
            linear_snr = np.power(10.0, self.snr_db / 10.0)
        if not np.isfinite(linear_snr):
            problems.append(f"snr_db must give a finite linear SNR "
                            f"10 ** (snr_db / 10), got {self.snr_db}")
        if problems:
            raise ConfigurationError("; ".join(problems))

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    def element_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Transmit and receive element offsets from each array's centre [m].

        Both arrays are uniform, broadside and centred on the link axis;
        the offsets run along the shared perpendicular to the axis.
        """
        tx = (np.arange(self.num_tx) - (self.num_tx - 1) / 2.0) \
            * self.tx_spacing
        rx = (np.arange(self.num_rx) - (self.num_rx - 1) / 2.0) \
            * self.rx_spacing
        return tx, rx


def pair_distances(scenario: MimoScenario) -> np.ndarray:
    """Exact Euclidean antenna-pair distances for broadside arrays.

    Both arrays are perpendicular to the link axis and centred on it, so a
    pair's distance depends only on the link distance and the difference of
    the element offsets along the shared perpendicular.
    """
    tx_off, rx_off = scenario.element_offsets()
    delta = rx_off[:, None] - tx_off[None, :]
    return np.sqrt(scenario.link_distance ** 2 + delta ** 2)


def los_channel(scenario: MimoScenario, phases=None) -> np.ndarray:
    """Complex channel entries with optional per-ray cloud phases.

    Entry (i, j) couples transmit antenna j to receive antenna i and sees
    the total phase ``2 pi d_ij / lambda + phi_cloud(i, j)``; the cloud
    phases [rad] are (rays,), indexed row-major to match the ray ordering
    of the geometry module, or a stack (..., rays) that gives a stack of
    channels (..., Nr, Nt).  In compensated mode all gains are unity,
    otherwise they fall off as the inverse distance.
    """
    d = pair_distances(scenario)
    phase = 2.0 * np.pi * d / scenario.wavelength
    if phases is not None:
        extra = np.asarray(phases, dtype=float)
        if extra.shape[-1:] != (d.size,):
            raise ConfigurationError(
                f"cloud phases carry {extra.shape[-1:]} rays but the "
                f"scenario has {d.size} antenna pairs")
        phase = phase + extra.reshape(extra.shape[:-1] + d.shape)
    gain = np.ones_like(d) if scenario.compensated else 1.0 / d
    return gain * np.exp(-1j * phase)


def capacity_bits(h: np.ndarray, snr_db: float, compensated: bool):
    """Equal-power capacity in bit/s/Hz.

    ``h`` holds the channel entries, (Nr, Nt) or a stack (..., Nr, Nt);
    returns values of the stack's shape, shape () for one matrix.
    ``compensated`` is the gain convention of :class:`MimoScenario`.  An
    uncompensated channel is first normalized to unit mean squared entry
    magnitude, so inverse-distance gains do not fold the free-space path
    loss into the capacity and the SNR keeps its average meaning at every
    distance.  A compensated channel is used as-is.  The capacity is
    ``log2 det(I + (rho / Nt) H H^H)``, from a Cholesky factorization of
    that matrix (see :func:`_log_det`), or of ``I + (rho / Nt) H^T conj(H)``
    when Nr > Nt: both have the same determinant (Sylvester's identity),
    and the smaller one is factored.
    """
    stack, shape = _stack(h)
    num_rx, num_tx = stack.shape[1:]
    re, im = _gram(stack.transpose(0, 2, 1) if num_rx > num_tx else stack)
    size = len(re)
    scale = 10.0 ** (snr_db / 10.0) / num_tx
    if not compensated:
        # The normalization scales the Gram matrix by num_rx num_tx over
        # its trace, the power of H; an all-zero matrix stays as it is.
        power = sum(re[i, i] for i in range(size))
        power = np.where(power > 0.0, power, num_rx * num_tx)
        scale = scale * (num_rx * num_tx / power)
    re *= scale
    im *= scale
    re[range(size), range(size)] += 1.0
    capacity = (_log_det(re, im) / np.log(2.0)).reshape(shape)[()]
    finite = np.isfinite(capacity)
    if not np.all(finite):
        bad = np.size(finite) - np.count_nonzero(finite)
        raise NumericError(f"capacity is not finite for {bad} of "
                           f"{np.size(finite)} channel(s)")
    return capacity


def _stack(h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The (S, Nr, Nt) stack of channel entries (Nr, Nt) or (..., Nr, Nt),
    and the shape for its (S,) values: ``values.reshape(shape)[()]`` is a
    scalar for one matrix.  One matrix is a stack of one, so its metrics
    do not depend on the stack around it."""
    h = np.atleast_2d(h)
    return h.reshape(-1, *h.shape[-2:]), h.shape[:-2]


def _gram(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``H H^H`` of an (S, M, K) stack.

    Both are (M, M, S): the stack is the last axis of every intermediate
    here and in :func:`_log_det`, so each operation runs along it.  Entry
    (a, b) is ``sum_k h[a, k] conj(h[b, k])``, summed in column order from
    correctly rounded multiplies and adds: every inner product either
    channel metric uses, with bytes that do not depend on the CPU.
    """
    hr = h.real.transpose(1, 2, 0).copy()     # (M, K, S)
    hi = h.imag.transpose(1, 2, 0).copy()
    re = np.zeros((h.shape[1], h.shape[1], len(h)))
    im = np.zeros_like(re)
    for t in range(h.shape[2]):
        xr, xi = hr[:, None, t], hi[:, None, t]
        yr, yi = hr[None, :, t], hi[None, :, t]
        re += xr * yr + xi * yi
        im += xi * yr - xr * yi
    return re, im


def _log_det(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``ln det A`` of a stack of Hermitian matrices with eigenvalues >= 1.

    ``re`` and ``im`` are A's real and imaginary parts, (Nr, Nr, S), and
    are overwritten.  Such an A is positive definite, so its Cholesky
    factorization ``A = L L^H`` needs no pivoting and cannot break down
    (Golub & Van Loan, *Matrix Computations*, 4th ed., sec. 4.2).  It runs
    in the square-root-free outer-product form, one column at a time over
    the whole stack: column j's pivot ``d_j = L_jj^2`` is its diagonal
    entry after the earlier columns' updates, and ``ln det A`` is the sum
    of ``ln d_j``.
    """
    log_det = np.zeros(re.shape[-1])
    for j in range(len(re)):
        pivot = re[j, j]
        log_det += np.log(pivot)
        # Subtract column j's outer product a a^H / d_j from the rest.
        ar, ai = re[j + 1:, j], im[j + 1:, j]
        br, bi = (ar / pivot)[:, None], (ai / pivot)[:, None]
        re[j + 1:, j + 1:] -= br * ar + bi * ai
        im[j + 1:, j + 1:] -= bi * ar - br * ai
    return log_det


def rayleigh_distance(scenario: MimoScenario) -> float:
    """Far-field boundary ``2 L^2 / lambda`` of the larger array aperture."""
    aperture = max((scenario.num_tx - 1) * scenario.tx_spacing,
                   (scenario.num_rx - 1) * scenario.rx_spacing)
    return 2.0 * aperture ** 2 / scenario.wavelength


def subchannel_coherence(h: np.ndarray):
    """Normalized coherence of the first two transmit columns.

    ``|<c1, c2>| / (|c1| |c2|)`` of the channel entries ``h``, of shape
    (Nr, Nt) or a stack (..., Nr, Nt); values of the stack's shape, shape
    () for one matrix.  NaN where a column has zero norm.  It is
    ``sqrt(re G01^2 + im G01^2) / (sqrt(G00) sqrt(G11))`` of the two
    columns' Gram matrix ``G`` (:func:`_gram`), all correctly rounded.
    """
    stack, shape = _stack(h)
    if stack.shape[-1] < 2:
        raise ConfigurationError(
            "sub-channel correlation needs at least two transmit columns")
    re, im = _gram(stack[:, :, :2].transpose(0, 2, 1))
    inner = np.sqrt(re[0, 1] * re[0, 1] + im[0, 1] * im[0, 1])
    norms = np.sqrt(re[0, 0]) * np.sqrt(re[1, 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        coherence = np.where(norms > 0.0, inner / norms, np.nan)
    return coherence.reshape(shape)[()]


def ensemble_mean(values) -> float:
    """Mean of an ensemble; exactly the common value if all samples agree.

    The sweep runner fills every trial of a distance none of whose rays
    reaches the layer with its clear-sky coherence, so this branch keeps
    that distance's mean exactly the clear value, which a pairwise sum
    divided by the count need not give.
    """
    arr = np.asarray(values, dtype=float)
    if np.all(arr == arr[0]):
        return float(arr[0])
    return float(arr.mean())
