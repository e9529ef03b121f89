"""Stochastic cloud layer built from equal-radius spherical cloudlets.

The cloud layer is modelled as a 2-D vertical cross-section of width W and
thickness D.  Cloudlet centres follow a homogeneous Poisson point process on
the rectangle [0, W] x [0, D]; every cloudlet shares one radius derived from
the layer geometry, and carries an ice water content drawn uniformly on
[0, C].  Where cloudlets overlap, their ice water contents add.
``draw_fields`` draws a block of fields, one generator each, and returns
their counts and unit x, y and content rows; ``generate_field`` is its
one-field case and builds a ``CloudField``, and the experiment's trial
kernel scales each block's rows in place.  Drift is modelled by bounded
random centre displacements with reflection at the rectangle boundary, so
a field can be stepped forward in time without cloudlets escaping the
layer.

Units: metres for lengths, g/m^3 for ice water content, seconds for time.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

# Safety cap on the expected cloudlet count of a single field realization.
DEFAULT_CLOUDLET_CAP = 10_000_000

# Salt mixed into the seed stream used for drift steps so displacement draws
# never collide with the generation draws of the same seed.
_STEP_STREAM_SALT = 0x5D21F


# ============================================================
# Configuration
# ============================================================

@dataclasses.dataclass(frozen=True)
class CloudConfig:
    """Geometry and statistics of one cloud layer realization."""

    width_w: float = 20.0              # layer cross-section width W [m]
    thickness_d: float = 1000.0        # layer thickness D [m]
    max_thickness_dmax: float = 1000.0  # reference thickness D_max [m]
    density_lambda_s: float = 0.002    # Poisson intensity of centres [1/m^2]
    smoothness_alpha: float = 0.5      # radius fraction alpha in (0, 1]
    max_iwc_c: float = 0.4             # IWC upper bound C [g/m^3]
    drift_speed_vb: float = 1000.0     # cloudlet drift speed bound V_b [m/s]
    rng_seed: int = 0                  # seed for generation and drift draws

    def __post_init__(self) -> None:
        problems = []
        if not (self.width_w > 0.0):
            problems.append(f"width_w must be > 0, got {self.width_w}")
        if not (self.thickness_d > 0.0):
            problems.append(f"thickness_d must be > 0, got {self.thickness_d}")
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
        if self.rng_seed < 0:
            problems.append(f"rng_seed must be >= 0, got {self.rng_seed}")
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

@dataclasses.dataclass(frozen=True)
class CloudField:
    """Immutable snapshot of a cloud layer at one instant.

    Centre coordinates and ice water contents are stored as arrays in draw
    order, one row per cloudlet.
    """

    config: CloudConfig
    positions: np.ndarray   # (n, 2) cloudlet centres [m]
    iwc: np.ndarray         # (n,) ice water content per cloudlet [g/m^3]
    radius: float           # shared cloudlet radius [m]
    elapsed_time: float = 0.0  # simulated drift time [s]
    step_index: int = 0        # number of drift steps applied

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])


def draw_fields(config: CloudConfig, streams, fields: int,
                cloudlet_cap: int = DEFAULT_CLOUDLET_CAP
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draw the next ``fields`` fields for ``config``, one per generator.

    Each field takes the next generator of ``streams``.  Its count n is
    Poisson with mean ``lambda_s * W * D``; one ``random`` call then gives
    its 3n uniform variates on [0, 1), n each for x, y and ice water
    content, the same bits as three draws of n.  Scaling them by W, D and C
    gives the field's centres and contents; W * u is bit for bit what
    ``rng.uniform(0, W, n)`` returns, and unit contents let a sweep over C
    rescale a single draw.

    Returns
    -------
    counts : ndarray
        (fields,) cloudlet count of each field.
    unit : ndarray
        (3, counts.sum()) unit x, y and content rows, field after field.

    Raises
    ------
    ResourceLimitError
        If the expected or a realized cloudlet count exceeds ``cloudlet_cap``.
    """
    mean_count = (config.density_lambda_s
                  * config.width_w * config.thickness_d)
    if mean_count > cloudlet_cap:
        raise ResourceLimitError(
            f"expected cloudlet count {mean_count:.3g} exceeds the cap "
            f"{cloudlet_cap}; reduce density_lambda_s or the layer size")
    # Each field fills a (3, n) slot of one flat buffer, after the fields
    # before it.  The buffer starts at twice the expected total and grows
    # past what a field needs when it outgrows it.
    slots = np.empty(3 * math.ceil(2.0 * fields * mean_count))
    counts = []
    size = 0
    for rng in itertools.islice(streams, fields):
        n = int(rng.poisson(mean_count))
        if n > cloudlet_cap:
            raise ResourceLimitError(
                f"realized cloudlet count {n} exceeds the cap {cloudlet_cap}")
        if 3 * (size + n) > slots.size:
            grown = np.empty(6 * (size + n))
            grown[:3 * size] = slots[:3 * size]
            slots = grown
        rng.random(out=slots[3 * size:3 * (size + n)])
        counts.append(n)
        size += n
    counts = np.array(counts, dtype=np.intp)
    # Field f's slot starts at 3 * start_f, so cloudlet j of the block (of
    # field f) sits at j + 2 * start_f in its x row, and n_f and 2 n_f
    # further on in its y and content rows.
    spans = np.repeat(counts, counts)
    index = np.arange(size) + np.repeat(2 * (np.cumsum(counts) - counts),
                                        counts)
    unit = np.empty((3, size))
    for row in unit:
        # The indices are in range; "clip" spares take buffering out.
        np.take(slots, index, out=row, mode="clip")
        index += spans
    return counts, unit


def generate_field(config: CloudConfig,
                   cloudlet_cap: int = DEFAULT_CLOUDLET_CAP,
                   rng: np.random.Generator | None = None) -> CloudField:
    """Draw a fresh field realization for ``config``.

    The cloudlet count is Poisson with mean ``lambda_s * W * D``; centres are
    i.i.d. uniform on the rectangle and each ice water content is uniform on
    [0, C] (see :func:`draw_fields`, of which this is the one-field case).
    The draw is fully determined by ``config.rng_seed``, or comes from
    ``rng`` when one is given.

    Raises
    ------
    ResourceLimitError
        If the expected or realized cloudlet count exceeds ``cloudlet_cap``.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    _, unit = draw_fields(config, [rng], 1, cloudlet_cap)
    positions = unit[:2].T * (config.width_w, config.thickness_d)
    iwc = config.max_iwc_c * unit[2]
    return CloudField(config=config, positions=positions, iwc=iwc,
                      radius=cloudlet_radius(config))


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


def step_field(field: CloudField, dt: float,
               rng: np.random.Generator | None = None) -> CloudField:
    """Advance cloudlet drift by ``dt`` seconds.

    Each centre coordinate receives an independent displacement uniform on
    [-V_b dt, V_b dt]; displacements that would leave the rectangle are
    reflected.  Radii and ice water contents are untouched.  Without an
    explicit ``rng`` the displacement stream is derived from the config seed
    and the step counter, so repeated stepping is reproducible.
    """
    if dt < 0.0:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    if dt == 0.0 or field.count == 0:
        return dataclasses.replace(field, elapsed_time=field.elapsed_time + dt,
                                   step_index=field.step_index + 1)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(
            [field.config.rng_seed, _STEP_STREAM_SALT, field.step_index]))
    bound = field.config.drift_speed_vb * dt
    n = field.count
    dx = rng.uniform(-bound, bound, n)
    dy = rng.uniform(-bound, bound, n)
    new_x = _displace_with_reflection(field.positions[:, 0], dx,
                                      field.config.width_w)
    new_y = _displace_with_reflection(field.positions[:, 1], dy,
                                      field.config.thickness_d)
    return dataclasses.replace(field,
                               positions=np.column_stack([new_x, new_y]),
                               elapsed_time=field.elapsed_time + dt,
                               step_index=field.step_index + 1)


# ============================================================
# Serialization
# ============================================================

def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def save_field(field: CloudField, csv_path) -> None:
    """Write a field to CSV plus a JSON sidecar.

    The CSV holds one row per cloudlet with full-precision decimals; the
    sidecar records the generating configuration and drift state so the file
    pair reconstructs the exact field.
    """
    csv_path = Path(csv_path)
    lines = ["x_m,y_m,radius_m,iwc_g_m3"]
    for (x, y), w in zip(field.positions, field.iwc):
        lines.append(f"{float(x)!r},{float(y)!r},"
                     f"{float(field.radius)!r},{float(w)!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "config": dataclasses.asdict(field.config),
        "radius_m": field.radius,
        "elapsed_time_s": field.elapsed_time,
        "step_index": field.step_index,
        "count": field.count,
    }
    _sidecar_path(csv_path).write_text(json.dumps(sidecar, indent=2) + "\n")


def load_field(csv_path) -> CloudField:
    """Read a field written by :func:`save_field`."""
    csv_path = Path(csv_path)
    sidecar = json.loads(_sidecar_path(csv_path).read_text())
    config = CloudConfig(**sidecar["config"])
    rows = csv_path.read_text().strip().split("\n")
    header, body = rows[0], rows[1:]
    if header != "x_m,y_m,radius_m,iwc_g_m3":
        raise ConfigurationError(f"unrecognized field CSV header: {header}")
    xs, ys, ws = [], [], []
    for line in body:
        x, y, _, w = line.split(",")
        xs.append(float(x))
        ys.append(float(y))
        ws.append(float(w))
    positions = (np.column_stack([np.array(xs), np.array(ys)])
                 if xs else np.empty((0, 2)))
    return CloudField(config=config, positions=positions,
                      iwc=np.array(ws), radius=float(sidecar["radius_m"]),
                      elapsed_time=float(sidecar["elapsed_time_s"]),
                      step_index=int(sidecar["step_index"]))
