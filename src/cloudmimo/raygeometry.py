"""Ray tracing of the broadside link through the cloud layer.

The link lies in one vertical plane with coordinates (x, z): x horizontal,
z altitude.  The ground array is centred at the origin and the airborne
array's centre lies ``link_distance`` metres along the elevation ray.  Both
arrays are broadside: their elements sit along the perpendicular
``(-sin, cos)`` of the link axis, at the offsets of
:meth:`cloudmimo.mimochannel.MimoScenario.element_offsets`.  Each
transmit/receive antenna pair defines one straight ray; the portion of a
ray inside the cloud altitude band is mapped into the 2-D cross-section
frame of :mod:`cloudmimo.cloudfield` as (h, height above the layer bottom),
where chord lengths through individual cloudlets are computed exactly.

h is x measured from the transmit array centre, pointing towards the
receive array centre.  For a vertical link, whose centres lie within 1e-9 m
of each other horizontally, the transmit array fixes the direction instead:
h points from its first element to its last, which is -x.  With a single
transmit element (or zero spacing) the receive array does the same, and
with neither h is +x.
"""
from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

import numpy as np

from .cloudfield import CloudConfig
from .errors import ConfigurationError

if TYPE_CHECKING:
    from .mimochannel import MimoScenario

_DEGENERATE_LENGTH = 1e-9   # shortest separation or span taken as nonzero [m]


@dataclasses.dataclass(frozen=True)
class Segment2D:
    """In-layer portion of a ray in cross-section coordinates."""

    start: np.ndarray   # (2,) [m]
    end: np.ndarray     # (2,) [m]

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


def map_rays_to_field(scenario: MimoScenario, elevation_deg: float,
                      cloud_upper_altitude: float,
                      cloud: CloudConfig) -> list[Segment2D]:
    """In-layer segments of a broadside link's rays, with one shared anchor.

    One segment per antenna pair, receive index outermost: segment
    ``i * Nt + j`` belongs to the ray from transmit antenna ``j`` to
    receive antenna ``i``.  The layer is ``cloud.thickness_d`` thick below
    ``cloud_upper_altitude``.  All in-layer segments are translated by the
    same offset, chosen so the mean segment midpoint lands at W/2.  Sharing
    the anchor preserves the relative geometry between rays, which is what
    lets nearby paths pierce the same cloudlets.  Rays that never reach the
    layer, or whose in-layer piece is shorter than ``_DEGENERATE_LENGTH``,
    map to zero-length segments at (W/2, 0) and take no part in the
    anchor.  ``elevation_deg`` must lie in (0, 90], and the layer's top
    must exceed its bottom in floating point;
    :class:`cloudmimo.experiment.ExperimentSpec` checks both.

    Raises
    ------
    ConfigurationError
        If a transmit and a receive antenna coincide, or a segment falls
        outside the layer width.
    """
    upper = cloud_upper_altitude
    lower = upper - cloud.thickness_d
    theta = math.radians(elevation_deg)
    axis = np.array([math.cos(theta), math.sin(theta)])
    perp = np.array([-math.sin(theta), math.cos(theta)])
    tx_off, rx_off = scenario.element_offsets()
    tx = tx_off[:, None] * perp                    # (Nt, 2) (x, z) [m]
    rx = scenario.link_distance * axis + rx_off[:, None] * perp
    tx_centre = tx.mean(axis=0)[0]
    spans = (rx.mean(axis=0)[0] - tx_centre, tx[-1, 0] - tx[0, 0],
             rx[-1, 0] - rx[0, 0])
    sign = next((math.copysign(1.0, span) for span in spans
                 if abs(span) > _DEGENERATE_LENGTH), 1.0)
    coords = []
    mids = []
    for r in rx:
        for t in tx:
            diff = r - t
            length = float(np.linalg.norm(diff))
            if length < _DEGENERATE_LENGTH:
                raise ConfigurationError(
                    f"transmit and receive antennas coincide at {t}")
            direction = diff / length
            # Arc lengths where the ray is inside the altitude band.
            z0, dz = float(t[1]), float(direction[1])
            if abs(dz) < 1e-15:
                s_lo, s_hi = 0.0, length
                crosses = lower <= z0 <= upper
            else:
                s_a = (lower - z0) / dz
                s_b = (upper - z0) / dz
                s_lo = max(min(s_a, s_b), 0.0)
                s_hi = min(max(s_a, s_b), length)
                crosses = s_hi - s_lo >= _DEGENERATE_LENGTH
            if not crosses:
                coords.append(None)
                continue
            entry, exit_ = t + s_lo * direction, t + s_hi * direction
            h0 = sign * (entry[0] - tx_centre)
            h1 = sign * (exit_[0] - tx_centre)
            coords.append((h0, entry[1] - lower, h1, exit_[1] - lower))
            mids.append((h0 + h1) / 2.0)
    half_w = cloud.width_w / 2.0
    shift = half_w - float(np.mean(mids)) if mids else 0.0
    segments = []
    for entry in coords:
        if entry is None:
            segments.append(Segment2D(start=np.array([half_w, 0.0]),
                                      end=np.array([half_w, 0.0])))
            continue
        h0, y0, h1, y1 = entry
        for h in (h0 + shift, h1 + shift):
            if not (-1e-9 <= h <= cloud.width_w + 1e-9):
                raise ConfigurationError(
                    f"mapped ray coordinate {h:.4g} m falls outside the "
                    f"layer width [0, {cloud.width_w:.4g}] m; increase "
                    f"width_w or steepen the elevation")
        segments.append(Segment2D(start=np.array([h0 + shift, y0]),
                                  end=np.array([h1 + shift, y1])))
    return segments


# ============================================================
# Chord lengths
# ============================================================

def chord_lengths(segment: Segment2D, centres: np.ndarray,
                  radius: float) -> np.ndarray:
    """Chord length of a segment through each of a set of equal discs.

    Parameters
    ----------
    segment : Segment2D
        Probe segment.
    centres : ndarray, shape (n, 2)
        Disc centres.
    radius : float
        Shared disc radius.

    Returns
    -------
    ndarray, shape (n,)
        Length of the intersection of the segment with each closed disc;
        0 where they do not meet.  One of the four scratch rows the call
        allocates.
    """
    centres = np.atleast_2d(np.asarray(centres, dtype=float))
    n = centres.shape[0]
    length = segment.length
    if length == 0.0 or n == 0:
        return np.zeros(n)
    ux, uy = (segment.end - segment.start) / length
    # Four (n,) rows, not one (4, n) array: the chords returned live in
    # the t row, and the other three are freed on return, where a view
    # into one array would keep all four alive.
    wx, wy, t, tmp = (np.empty(n) for _ in range(4))
    # Written out per element (not ``w @ u``, whose BLAS kernel may fuse
    # the multiply-add) so a disc's chord never depends on the other discs.
    np.subtract(centres[:, 0], segment.start[0], out=wx)
    np.subtract(centres[:, 1], segment.start[1], out=wy)
    np.multiply(wx, ux, out=t)
    t += np.multiply(wy, uy, out=tmp)    # t = w . u
    wx *= wx
    wy *= wy
    wx += wy
    wx -= np.multiply(t, t, out=tmp)     # squared distance from the line
    half = np.subtract(radius * radius, wx, out=wx)
    # A disc the line misses or touches gets half = 0, so (for finite
    # input) its chord is min(t, length) - max(t, 0) clamped at 0: an exact
    # +0.0, with no mask.
    np.sqrt(np.maximum(half, 0.0, out=half), out=half)
    s_lo = np.maximum(np.subtract(t, half, out=wy), 0.0, out=wy)
    chords = np.minimum(np.add(t, half, out=t), length, out=t)
    chords -= s_lo
    return np.maximum(chords, 0.0, out=chords)
