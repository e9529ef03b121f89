"""Ray tracing of the broadside link through the cloud layer.

The link lies in one vertical plane with coordinates (x, z): x horizontal,
z altitude.  The ground array is centred at the origin and the airborne
array's centre lies ``link_distance`` metres along the ray at the
scenario's ``elevation_deg``.  Both arrays are broadside: their elements
sit along the perpendicular ``(-sin, cos)`` of the link axis, at the
offsets of :meth:`cloudmimo.mimochannel.MimoScenario.element_offsets`.
Each transmit/receive antenna pair defines one straight ray; the portion
of a ray inside the cloud's altitude band, ``thickness_d`` below its
``upper_altitude``, is mapped into the 2-D cross-section frame of
:mod:`cloudmimo.cloudfield` as (h, height above the layer bottom), where
chord lengths through individual cloudlets are computed exactly.  Both
parts check their own geometry, so every input the tracer takes is one
it can trace.

h is x measured from the transmit array centre, pointing towards the
receive array centre.  For a vertical link, whose centres lie within 1e-9 m
of each other horizontally, the transmit array fixes the direction instead:
h points from its first element to its last, which is -x.  With a single
transmit element (or zero spacing) the receive array does the same, and
with neither h is +x.
"""
from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from .cloudfield import CloudConfig
from .errors import ConfigurationError

if TYPE_CHECKING:
    from .mimochannel import MimoScenario

_DEGENERATE_LENGTH = 1e-9   # shortest separation or span taken as nonzero [m]


def map_rays_to_field(scenario: MimoScenario,
                      cloud: CloudConfig) -> np.ndarray:
    """In-layer segments of a broadside link's rays, with one shared anchor.

    A (rays, 2, 2) array: row r holds ray r's segment start and end, each
    (h, y) in metres.  One ray per antenna pair, receive index outermost:
    ray ``i * Nt + j`` runs from transmit antenna ``j`` to receive antenna
    ``i``.  The link rises at ``scenario.elevation_deg``, and the layer is
    ``cloud.thickness_d`` thick below ``cloud.upper_altitude``.  All
    in-layer segments are translated by the same offset, chosen so the
    mean segment midpoint lands at W/2.  Sharing the anchor preserves the
    relative geometry between rays, which is what lets nearby paths pierce
    the same cloudlets.  Rays that never reach the layer, or whose
    in-layer piece is shorter than ``_DEGENERATE_LENGTH``, map to
    zero-length segments at (W/2, 0) and take no part in the anchor.

    Raises
    ------
    ConfigurationError
        If a transmit and a receive antenna coincide, or a segment falls
        outside the layer width.
    """
    upper = cloud.upper_altitude
    lower = upper - cloud.thickness_d
    theta = math.radians(scenario.elevation_deg)
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
    segments = np.empty((len(rx) * len(tx), 2, 2))
    crossed = np.zeros(len(segments), dtype=bool)
    for ray, (r, t) in enumerate(itertools.product(rx, tx)):
        diff = r - t
        length = _length(*diff.tolist())
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
            continue
        crossed[ray] = True
        for end, arc in zip(segments[ray], (s_lo, s_hi)):
            point = t + arc * direction
            end[:] = sign * (point[0] - tx_centre), point[1] - lower
    # The shared anchor: the mean in-layer midpoint lands at W/2.
    h = segments[crossed, :, 0]
    if h.size:
        h += cloud.width_w / 2.0 - float(np.mean(h.mean(axis=1)))
    outside = h[~((h >= -1e-9) & (h <= cloud.width_w + 1e-9))]
    if outside.size:
        raise ConfigurationError(
            f"mapped ray coordinate {outside[0]:.4g} m falls outside the "
            f"layer width [0, {cloud.width_w:.4g}] m; increase width_w or "
            f"steepen the elevation")
    segments[crossed, :, 0] = h
    segments[~crossed] = (cloud.width_w / 2.0, 0.0)
    return segments


def _length(dx: float, dz: float) -> float:
    """Length of a segment with the given extents [m], on Python floats:
    numpy's vector norm is a BLAS dot product, whose kernel (fused
    multiply-add or not) OpenBLAS picks per CPU."""
    return math.sqrt(dx * dx + dz * dz)


# ============================================================
# Chord lengths
# ============================================================

def chord_lengths(segment: np.ndarray, centres: np.ndarray,
                  radius: float) -> np.ndarray:
    """Chord length of a segment through each of a set of equal discs.

    Parameters
    ----------
    segment : ndarray, shape (2, 2)
        Probe segment: its start and end points.
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
    start, end = segment
    length = _length(*(end - start).tolist())
    if length == 0.0 or n == 0:
        return np.zeros(n)
    ux, uy = (end - start) / length
    # Four (n,) rows, not one (4, n) array: the chords returned live in
    # the t row, and the other three are freed on return, where a view
    # into one array would keep all four alive.
    wx, wy, t, tmp = (np.empty(n) for _ in range(4))
    # Written out per element (not ``w @ u``, whose BLAS kernel may fuse
    # the multiply-add) so a disc's chord never depends on the other discs.
    np.subtract(centres[:, 0], start[0], out=wx)
    np.subtract(centres[:, 1], start[1], out=wy)
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
