"""Excess propagation phase accumulated along chords through cloudlets.

Each cloudlet is treated as a dilute suspension of small ice spheres in air.
A Rayleigh mixing rule turns the local ice water content into an excess
relative permittivity; the excess permittivity shortens the local wavelength
and therefore advances the carrier phase in proportion to the chord length
travelled inside the cloudlet.  Per-ray phases are the unwrapped sum of the
per-chord contributions.  The carrier is the link's (``MimoScenario``), so
callers pass in the phase rate it gives; this module holds no carrier.

Units: metres, g/m^3, radians.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigurationError
from .raygeometry import chord_lengths

# Volume of one ice sphere of 0.1 mm radius [m^3].
DEFAULT_ICE_SPHERE_VOLUME = 4.0 / 3.0 * np.pi * (1e-4) ** 3

# Reference ice water content of a fully dense suspension [g/m^3]; the
# mixing rule scales the sphere volume fraction by iwc relative to this, and
# a relative water content of 1 means this ice water content bound.
REFERENCE_IWC = 0.6


# ============================================================
# Physical parameters
# ============================================================

@dataclasses.dataclass(frozen=True)
class PhysicsParams:
    """Ice-suspension constants."""

    sphere_density_n: float = 30000.0        # ice spheres per m^3
    sphere_volume_vice: float = DEFAULT_ICE_SPHERE_VOLUME   # [m^3]
    ice_permittivity_real: float = 3.15      # real part of ice permittivity

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
        if problems:
            raise ConfigurationError("; ".join(problems))


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

def block_phases(positions: np.ndarray, contents: np.ndarray, counts,
                 radius: float, segments: np.ndarray,
                 rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate cloud phases of a ray bundle through a block of fields.

    ``positions`` (n, 2) holds the cloudlets of ``len(counts)`` fields one
    after another, ``counts[f]`` of them for field f (which may be 0), and
    ``contents`` (n,) their ice water contents u.  ``segments`` (rays, 2,
    2) holds each ray's in-layer start and end.  Each ray is traced
    through all cloudlets at once, and alone, so its phases do not depend
    on the other rays; a field's phase on a ray is ``P = rate * sum(u *
    l)`` over its cloudlets' chords l, with ``rate`` the carrier's ``2 pi
    / lambda0`` times the mixture coefficient.  A missed cloudlet adds an
    exact zero, and a field's terms add without wrapping over its own slice
    alone (``np.add.reduceat``: the first term plus numpy's pairwise sum
    of the rest), so its phases do not depend on the other fields of the
    block.  Overlapping cloudlets contribute independently, which matches
    the additive overlap rule of the field model.  The phase is linear in
    the contents: the trial kernel traces unit contents, and the sweep
    runner scales P by each content bound.

    Returns
    -------
    phases : ndarray
        (fields, rays) unwrapped phase of each field on each ray [rad].
    pierced : ndarray
        (fields, rays) count of the cloudlets each ray pierces.
    """
    counts = np.asarray(counts, dtype=np.intp)
    # reduceat gives an empty slice the element at its start, so only the
    # non-empty fields get a start; the empty ones keep their zero rows.
    full = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[full]
    phases = np.zeros((counts.size, len(segments)))
    pierced = np.zeros((counts.size, len(segments)), dtype=np.intp)
    for idx, seg in enumerate(segments):
        chords = chord_lengths(seg, positions, radius)
        pierced[full, idx] = np.add.reduceat(chords > 0.0, starts,
                                             dtype=np.intp)
        phases[full, idx] = np.add.reduceat(contents * chords, starts)
    phases *= rate
    return phases, pierced
