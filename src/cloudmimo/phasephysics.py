"""Excess propagation phase accumulated along chords through cloudlets.

Each cloudlet is treated as a dilute suspension of small ice spheres in air.
A Rayleigh mixing rule turns the local ice water content into an excess
relative permittivity; the excess permittivity shortens the local wavelength
and therefore advances the carrier phase in proportion to the chord length
travelled inside the cloudlet.  Per-ray phases are the unwrapped sum of the
per-chord contributions.

Units: metres, g/m^3, radians.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .cloudfield import CloudField
from .errors import ConfigurationError
from .raygeometry import Segment2D, chord_lengths

SPEED_OF_LIGHT = 299_792_458.0   # [m/s]

# Volume of one ice sphere of 0.1 mm radius [m^3].
DEFAULT_ICE_SPHERE_VOLUME = 4.0 / 3.0 * np.pi * (1e-4) ** 3

# Carrier frequency of the measured link [Hz]; the channel's default too.
DEFAULT_CARRIER_FREQUENCY = 73.5e9

# Reference ice water content of a fully dense suspension [g/m^3]; the
# mixing rule scales the sphere volume fraction by iwc relative to this, and
# a relative water content of 1 means this ice water content bound.
REFERENCE_IWC = 0.6


# ============================================================
# Physical parameters
# ============================================================

@dataclasses.dataclass(frozen=True)
class PhysicsParams:
    """Carrier and ice-suspension constants.

    ``wavelength_lambda0`` may be omitted, in which case it is derived from
    the carrier frequency; if both are given they must agree.
    """

    sphere_density_n: float = 30000.0        # ice spheres per m^3
    sphere_volume_vice: float = DEFAULT_ICE_SPHERE_VOLUME   # [m^3]
    ice_permittivity_real: float = 3.15      # real part of ice permittivity
    carrier_frequency: float = DEFAULT_CARRIER_FREQUENCY   # [Hz]
    wavelength_lambda0: float | None = None  # free-space wavelength [m]

    def __post_init__(self) -> None:
        problems = []
        if self.sphere_density_n < 0.0:
            problems.append(
                f"sphere_density_n must be >= 0, got {self.sphere_density_n}")
        if self.sphere_volume_vice <= 0.0:
            problems.append(
                f"sphere_volume_vice must be > 0, got {self.sphere_volume_vice}")
        if self.ice_permittivity_real <= 1.0:
            problems.append(
                f"ice_permittivity_real must exceed 1, got "
                f"{self.ice_permittivity_real}")
        if self.carrier_frequency <= 0.0:
            problems.append(
                f"carrier_frequency must be > 0, got {self.carrier_frequency}")
        if problems:
            raise ConfigurationError("; ".join(problems))
        derived = SPEED_OF_LIGHT / self.carrier_frequency
        if self.wavelength_lambda0 is None:
            object.__setattr__(self, "wavelength_lambda0", derived)
        elif abs(self.wavelength_lambda0 - derived) > 1e-9 * derived:
            raise ConfigurationError(
                f"wavelength_lambda0 ({self.wavelength_lambda0}) is "
                f"inconsistent with carrier_frequency (expected {derived})")


def mixture_coefficient(params: PhysicsParams) -> float:
    """Excess permittivity per unit ice water content [m^3/g].

    Rayleigh mixing for a dilute suspension of identical spheres: the excess
    is linear in the sphere volume fraction, which itself is linear in the
    ice water content.
    """
    eps = params.ice_permittivity_real
    return (3.0 * params.sphere_density_n * params.sphere_volume_vice
            * (1.0 / REFERENCE_IWC) * (eps - 1.0) / (eps + 1.0))


# ============================================================
# Per-ray phase accumulation
# ============================================================

@dataclasses.dataclass(frozen=True)
class PathPhase:
    """Cloud-induced excess phase of every ray of a bundle.

    Both arrays are (num_rays,) for one field, or stacks (..., num_rays).
    """

    per_ray_phase: np.ndarray           # unwrapped phase [rad]
    per_ray_cloudlet_count: np.ndarray  # pierced cloudlets


def block_phases(positions: np.ndarray, iwc: np.ndarray, counts,
                 radius: float, segments: list[Segment2D],
                 params: PhysicsParams) -> PathPhase:
    """Accumulate cloud phases of a ray bundle through a block of fields.

    ``positions`` (n, 2) holds the cloudlets of ``len(counts)`` fields one
    after another, ``counts[f]`` of them for field f (which may be 0).
    ``iwc`` is (n,), or (k, n) for k ice water content variants of the
    same cloudlets, which share the chord tracing.  Each segment is traced
    through all cloudlets at once; each chord contributes
    ``2 pi l / lambda0`` times the cloudlet's excess permittivity, and a
    field's contributions add without wrapping in cloudlet order, so its
    phases do not depend on the other fields of the block.  Overlapping
    cloudlets contribute independently, which matches the additive overlap
    rule of the field model.  Each call allocates its own weights row.

    Returns per-ray phases and pierced-cloudlet counts of shape
    (fields, rays), or (k, fields, rays).
    """
    k0 = 2.0 * np.pi / params.wavelength_lambda0
    coefficient = mixture_coefficient(params)
    iwc = np.asarray(iwc, dtype=float)
    variants = np.atleast_2d(iwc)
    (k, n), rays = variants.shape, len(segments)
    counts = np.asarray(counts, dtype=np.intp)
    fields = counts.size
    owner = np.repeat(np.arange(fields), counts)
    # Where each non-empty field starts: reduceat sums the cloudlets from
    # one start to the next, and rejects a start equal to n.
    filled = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[filled]
    weights = np.empty(n)
    phases = np.zeros((k, fields, rays))
    pierced = np.zeros((fields, rays), dtype=int)
    for idx, seg in enumerate(segments):
        chords = chord_lengths(seg, positions, radius)
        if filled.size:
            # The hit mask as 0/1 weights: its sums are exact counts in
            # any order of addition.
            np.greater(chords, 0.0, out=weights)
            pierced[filled, idx] = np.add.reduceat(weights, starts)
        chords *= k0
        # One row of weights per variant: (k0 l) times the excess
        # permittivity.  A missed cloudlet adds an exact zero, so summing
        # over every cloudlet gives each field the sum over its pierced
        # ones.  bincount adds in cloudlet order, which fixes the bits.
        for j, variant in enumerate(variants):
            np.multiply(variant, coefficient, out=weights)
            weights *= chords
            phases[j, :, idx] = np.bincount(owner, weights=weights,
                                            minlength=fields)
    shape = iwc.shape[:-1] + (fields, rays)
    pierced = np.broadcast_to(pierced, shape).copy()
    return PathPhase(per_ray_phase=phases.reshape(shape),
                     per_ray_cloudlet_count=pierced)


def path_phase(field: CloudField, segments: list[Segment2D],
               params: PhysicsParams) -> PathPhase:
    """Accumulate cloud phases for a bundle of in-layer segments.

    A single field is a block of one (see :func:`block_phases`).
    """
    block = block_phases(field.positions, field.iwc, [field.count],
                         field.radius, segments, params)
    return PathPhase(per_ray_phase=block.per_ray_phase[0],
                     per_ray_cloudlet_count=block.per_ray_cloudlet_count[0])
