"""Line-of-sight MIMO channel, capacity, and sub-channel correlation.

The channel between broadside uniform linear arrays is purely geometric:
every entry is a unit (or inverse-distance) gain at a phase set by the exact
antenna-pair distance, plus any cloud-induced excess phase.  Capacity is the
log-determinant of the usual equal-power allocation, and sub-channel
correlation is the normalized column coherence that cloud phase noise is
expected to erode.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigurationError, NumericError
from .phasephysics import DEFAULT_CARRIER_FREQUENCY, SPEED_OF_LIGHT, PathPhase


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


@dataclasses.dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel entries plus the antenna-pair distances behind them."""

    entries: np.ndarray     # (Nr, Nt) complex gains, or a stack (..., Nr, Nt)
    distances: np.ndarray   # (Nr, Nt) antenna-pair distances [m]
    compensated: bool = True   # True: unit gains, no capacity normalization


def pair_distances(scenario: MimoScenario) -> np.ndarray:
    """Exact Euclidean antenna-pair distances for broadside arrays.

    Both arrays are perpendicular to the link axis and centred on it, so a
    pair's distance depends only on the link distance and the difference of
    the element offsets along the shared perpendicular.
    """
    tx_off = (np.arange(scenario.num_tx)
              - (scenario.num_tx - 1) / 2.0) * scenario.tx_spacing
    rx_off = (np.arange(scenario.num_rx)
              - (scenario.num_rx - 1) / 2.0) * scenario.rx_spacing
    delta = rx_off[:, None] - tx_off[None, :]
    return np.sqrt(scenario.link_distance ** 2 + delta ** 2)


def los_channel(scenario: MimoScenario,
                cloud_phases: PathPhase | None = None) -> ChannelMatrix:
    """Channel matrix with optional per-ray cloud phases.

    Entry (i, j) couples transmit antenna j to receive antenna i and sees
    the total phase ``2 pi d_ij / lambda + phi_cloud(i, j)``; cloud phases
    are indexed row-major to match the ray ordering of the geometry module.
    Stacked cloud phases (..., rays) give a stack of channels (..., Nr, Nt).
    In compensated mode all gains are unity, otherwise they fall off as the
    inverse distance.
    """
    d = pair_distances(scenario)
    phase = 2.0 * np.pi * d / scenario.wavelength
    if cloud_phases is not None:
        extra = np.asarray(cloud_phases.per_ray_phase, dtype=float)
        if extra.shape[-1:] != (d.size,):
            raise ConfigurationError(
                f"cloud phases carry {extra.shape[-1:]} rays but the "
                f"scenario has {d.size} antenna pairs")
        phase = phase + extra.reshape(extra.shape[:-1] + d.shape)
    gain = np.ones_like(d) if scenario.compensated else 1.0 / d
    return ChannelMatrix(entries=gain * np.exp(-1j * phase), distances=d,
                         compensated=scenario.compensated)


def _single_or_stack(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def capacity_bits(channel: ChannelMatrix, snr_db: float):
    """Equal-power capacity in bit/s/Hz.

    The channel's entries are (Nr, Nt) or a stack (..., Nr, Nt); returns a
    float for one matrix and an array of the stack's shape otherwise.  An
    uncompensated channel is first normalized to unit mean squared entry
    magnitude, so inverse-distance gains do not fold the free-space path
    loss into the capacity and the SNR keeps its average meaning at every
    distance.  A compensated channel is used as-is.
    """
    h = np.atleast_2d(channel.entries).astype(complex)
    num_rx, num_tx = h.shape[-2:]
    if not channel.compensated:
        power = np.sum(np.abs(h) ** 2, axis=(-2, -1), keepdims=True)
        # an all-zero matrix stays as it is
        power = np.where(power > 0.0, power, num_rx * num_tx)
        h = h * np.sqrt(num_rx * num_tx / power)
    rho = 10.0 ** (snr_db / 10.0)
    gram = np.eye(num_rx) \
        + (rho / num_tx) * (h @ np.conj(h).swapaxes(-1, -2))
    sign, logdet = np.linalg.slogdet(gram)
    capacity = np.real(sign) * logdet / np.log(2.0)
    finite = np.isfinite(capacity)
    if not np.all(finite):
        bad = np.size(finite) - np.count_nonzero(finite)
        raise NumericError(f"capacity is not finite for {bad} of "
                           f"{np.size(finite)} channel(s)")
    return _single_or_stack(capacity)


def rayleigh_distance(scenario: MimoScenario) -> float:
    """Far-field boundary ``2 L^2 / lambda`` of the larger array aperture."""
    aperture = max((scenario.num_tx - 1) * scenario.tx_spacing,
                   (scenario.num_rx - 1) * scenario.rx_spacing)
    return 2.0 * aperture ** 2 / scenario.wavelength


def subchannel_coherence(channel: ChannelMatrix):
    """Normalized coherence of the first two transmit columns.

    ``|<c1, c2>| / (|c1| |c2|)`` of the channel's entries, of shape
    (Nr, Nt) or a stack (..., Nr, Nt); a float for one matrix and an array
    of the stack's shape otherwise.  NaN where a column has zero norm.
    """
    h = channel.entries
    if h.shape[-1] < 2:
        raise ConfigurationError(
            "sub-channel correlation needs at least two transmit columns")
    c1, c2 = h[..., :, 0], h[..., :, 1]
    norms = np.linalg.norm(c1, axis=-1) * np.linalg.norm(c2, axis=-1)
    inner = np.abs(np.sum(np.conj(c1) * c2, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(norms > 0.0, inner / norms, np.nan)
    return _single_or_stack(values)


def ensemble_mean(values) -> float:
    """Mean of an ensemble; exactly the common value if all samples agree."""
    arr = np.asarray(values, dtype=float)
    if np.all(arr == arr[0]):
        return float(arr[0])
    return float(arr.mean())
