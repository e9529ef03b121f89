"""Stochastic cloud layer built from equal-radius spherical cloudlets.

The cloud layer is modelled as a 2-D vertical cross-section of width W and
thickness D.  Cloudlet centres follow a homogeneous Poisson point process on
the rectangle [0, W] x [0, D]; every cloudlet shares one radius derived from
the layer geometry, and carries an ice water content drawn uniformly on
[0, C].  Where cloudlets overlap, their ice water contents add.
``draw_fields`` is the one field draw: it draws a block of fields, one
generator each, and returns their counts and their x, y and content rows,
centres in metres and contents unit, the fields' (3, n) draws
concatenated.  Drift is modelled by bounded random centre displacements
with reflection at the rectangle boundary: ``step_field`` steps an array
of centres forward in time without cloudlets escaping the layer.  Nothing
here holds a seed: every function that draws takes its generator from
its caller.

Units: metres for lengths, g/m^3 for ice water content, seconds for time.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

# Safety cap on the expected cloudlet count of a single field realization.
DEFAULT_CLOUDLET_CAP = 10_000_000


# ============================================================
# Configuration
# ============================================================

@dataclasses.dataclass(frozen=True)
class CloudConfig:
    """Geometry, altitude and statistics of one cloud layer realization."""

    width_w: float = 20.0              # layer cross-section width W [m]
    thickness_d: float = 1000.0        # layer thickness D [m]
    upper_altitude: float = 8000.0     # layer top, above its bottom [m]
    max_thickness_dmax: float = 1000.0  # reference thickness D_max [m]
    density_lambda_s: float = 0.002    # Poisson intensity of centres [1/m^2]
    smoothness_alpha: float = 0.5      # radius fraction alpha in (0, 1]
    max_iwc_c: float = 0.4             # IWC upper bound C [g/m^3]
    drift_speed_vb: float = 1000.0     # cloudlet drift speed bound V_b [m/s]

    def __post_init__(self) -> None:
        problems = []
        if not (self.width_w > 0.0):
            problems.append(f"width_w must be > 0, got {self.width_w}")
        lower = self.upper_altitude - self.thickness_d
        if not (self.thickness_d > 0.0):
            problems.append(f"thickness_d must be > 0, got {self.thickness_d}")
        elif not self.upper_altitude > lower:
            problems.append(f"cloud_upper_altitude ({self.upper_altitude}) "
                            f"must exceed cloud_lower_altitude ({lower})")
        if not (self.max_thickness_dmax > 0.0):
            problems.append(
                f"max_thickness_dmax must be > 0, got {self.max_thickness_dmax}")
        if self.thickness_d > self.max_thickness_dmax:
            problems.append(
                f"thickness_d ({self.thickness_d}) must not exceed "
                f"max_thickness_dmax ({self.max_thickness_dmax})")
        if self.density_lambda_s < 0.0:
            problems.append(
                f"density_lambda_s must be >= 0, got {self.density_lambda_s}")
        if not (0.0 < self.smoothness_alpha <= 1.0):
            problems.append(
                f"smoothness_alpha must be in (0, 1], got {self.smoothness_alpha}")
        if self.max_iwc_c < 0.0:
            problems.append(f"max_iwc_c must be >= 0, got {self.max_iwc_c}")
        if self.drift_speed_vb < 0.0:
            problems.append(
                f"drift_speed_vb must be >= 0, got {self.drift_speed_vb}")
        if problems:
            raise ConfigurationError("; ".join(problems))


def cloudlet_radius(config: CloudConfig) -> float:
    """Shared cloudlet radius for a layer configuration.

    The radius scales with the cross-section width and with the square root
    of the thickness ratio, so thinner layers carry proportionally smaller
    cloudlets.

    Returns
    -------
    float
        Radius in metres; always in (0, W/2] for a valid configuration.
    """
    ratio = config.thickness_d / config.max_thickness_dmax
    return config.smoothness_alpha * config.width_w * math.sqrt(ratio) / 2.0


# ============================================================
# Field realization
# ============================================================

def draw_fields(config: CloudConfig, streams,
                fields: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the next ``fields`` fields for ``config``, one per generator.

    Each field takes the next generator of ``streams``.  Its count n is
    Poisson with mean ``lambda_s * W * D``; one ``random((3, n))`` call
    then gives its uniform variates on [0, 1), one row each for x, y and
    ice water content, the same bits as three draws of n.  The x and y
    rows are scaled to metres in place: W * u is bit for bit what
    ``rng.uniform(0, W, n)`` returns.  The content row stays unit, so a
    sweep over C can rescale a single draw; C * u is the field's contents.

    Returns
    -------
    counts : ndarray
        (fields,) cloudlet count of each field.
    rows : ndarray
        (3, counts.sum()) centre x and y [m] and unit content rows, field
        after field: the fields' draws concatenated, or a single field's
        draw itself.

    Raises
    ------
    ResourceLimitError
        If the expected or a realized cloudlet count exceeds
        ``DEFAULT_CLOUDLET_CAP``.
    """
    mean_count = (config.density_lambda_s
                  * config.width_w * config.thickness_d)
    if mean_count > DEFAULT_CLOUDLET_CAP:
        raise ResourceLimitError(
            f"expected cloudlet count {mean_count:.3g} exceeds the cap "
            f"{DEFAULT_CLOUDLET_CAP}; reduce density_lambda_s or the layer "
            f"size")
    counts, parts = [], []
    for rng in itertools.islice(streams, fields):
        n = int(rng.poisson(mean_count))
        if n > DEFAULT_CLOUDLET_CAP:
            raise ResourceLimitError(
                f"realized cloudlet count {n} exceeds the cap "
                f"{DEFAULT_CLOUDLET_CAP}")
        counts.append(n)
        parts.append(rng.random((3, n)))
    counts = np.array(counts, dtype=np.intp)
    if len(parts) == 1:     # one field's draw is its rows; no copy
        rows = parts[0]
    else:
        rows = np.concatenate([np.empty((3, 0)), *parts], axis=1)
    rows[0] *= config.width_w
    rows[1] *= config.thickness_d
    return counts, rows


def _displace_with_reflection(coords: np.ndarray, delta: np.ndarray,
                              upper: float) -> np.ndarray:
    """Apply displacements on [0, upper], reflecting at the boundaries.

    A displacement that would leave the interval has its sign inverted.  If
    the inverted displacement still leaves the interval (possible when the
    bound on a single step exceeds the interval length) the coordinate is
    folded back by triangle-wave reflection, which keeps the closure
    guarantee for arbitrarily large steps.
    """
    moved = coords + delta
    out = (moved < 0.0) | (moved > upper)
    moved = np.where(out, coords - delta, moved)
    out = (moved < 0.0) | (moved > upper)
    if np.any(out):
        folded = np.mod(moved[out], 2.0 * upper)
        folded = np.where(folded > upper, 2.0 * upper - folded, folded)
        moved[out] = folded
    return moved


def step_field(centres: np.ndarray, config: CloudConfig, dt: float,
               rng: np.random.Generator) -> np.ndarray:
    """Centres [m] after ``dt`` seconds of drift, drawn from ``rng``.

    ``centres`` is an (n, 2) array of x and y, such as the transposed
    centre rows of a :func:`draw_fields` draw.  Each coordinate receives
    an independent displacement uniform on [-V_b dt, V_b dt];
    displacements that would leave the rectangle are reflected.  Returns
    a new (n, 2) array; ``centres`` is not modified.  A zero step, or no
    centres, draws nothing and returns ``centres`` itself.
    """
    if dt < 0.0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    n = len(centres)
    if dt == 0.0 or n == 0:
        return centres
    bound = config.drift_speed_vb * dt
    dx = rng.uniform(-bound, bound, n)
    dy = rng.uniform(-bound, bound, n)
    return np.column_stack([
        _displace_with_reflection(centres[:, 0], dx, config.width_w),
        _displace_with_reflection(centres[:, 1], dy, config.thickness_d)])
