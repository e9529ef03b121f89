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
    """Carrier and ice-suspension constants."""

    sphere_density_n: float = 30000.0        # ice spheres per m^3
    sphere_volume_vice: float = DEFAULT_ICE_SPHERE_VOLUME   # [m^3]
    ice_permittivity_real: float = 3.15      # real part of ice permittivity
    carrier_frequency: float = DEFAULT_CARRIER_FREQUENCY   # [Hz]

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

    @property
    def wavelength_lambda0(self) -> float:
        """Free-space wavelength of the carrier [m]."""
        return SPEED_OF_LIGHT / self.carrier_frequency


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

def block_phases(positions: np.ndarray, iwc: np.ndarray, counts,
                 radius: float, segments: list[Segment2D],
                 params: PhysicsParams) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate cloud phases of a ray bundle through a block of fields.

    ``positions`` (n, 2) holds the cloudlets of ``len(counts)`` fields one
    after another, ``counts[f]`` of them for field f (which may be 0).
    ``iwc`` is (k, n): k ice water content variants of the same cloudlets,
    which share the chord tracing.  Each segment is traced through all
    cloudlets at once; each chord contributes ``2 pi l / lambda0`` times
    the cloudlet's excess permittivity, and a field's contributions add
    without wrapping in cloudlet order, so its phases do not depend on the
    other fields of the block.  Overlapping cloudlets contribute
    independently, which matches the additive overlap rule of the field
    model.  Each call allocates its own weights row.

    Returns
    -------
    phases : ndarray
        (k, fields, rays) unwrapped phase of each variant [rad].
    pierced : ndarray
        (fields, rays) count of the cloudlets each ray pierces, which is
        the same for every variant.
    """
    k0 = 2.0 * np.pi / params.wavelength_lambda0
    coefficient = mixture_coefficient(params)
    (k, n), rays = iwc.shape, len(segments)
    counts = np.asarray(counts, dtype=np.intp)
    fields = counts.size
    owner = np.repeat(np.arange(fields), counts)
    weights = np.empty(n)
    phases = np.empty((k, fields, rays))
    pierced = np.empty((fields, rays), dtype=np.intp)
    for idx, seg in enumerate(segments):
        chords = chord_lengths(seg, positions, radius)
        # The hit mask as 0/1 weights: exact sums, and no gather of the
        # hit owners, which is slower at the ~50 % hit rates of the
        # profiles.
        pierced[:, idx] = np.bincount(owner, weights=chords > 0.0,
                                      minlength=fields)
        chords *= k0
        # One row of weights per variant: (k0 l) times the excess
        # permittivity.  A missed cloudlet adds an exact zero, so summing
        # over every cloudlet gives each field the sum over its pierced
        # ones.  bincount adds in cloudlet order, which fixes the bits.
        for j, variant in enumerate(iwc):
            np.multiply(variant, coefficient, out=weights)
            weights *= chords
            phases[j, :, idx] = np.bincount(owner, weights=weights,
                                            minlength=fields)
    return phases, pierced

