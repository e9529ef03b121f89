"""Link geometry and ray tracing through the cloud layer.

Antennas live in 3-D (x horizontal along the link, y across the link,
z altitude).  Each transmit/receive antenna pair defines one straight ray;
the portion of a ray inside the cloud altitude slab is mapped into the 2-D
cross-section frame of :mod:`cloudmimo.cloudfield`, where chord lengths
through individual cloudlets are computed exactly.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cloudfield import CloudConfig
from .errors import ConfigurationError, GeometryError

_DEGENERATE_LENGTH = 1e-9   # minimum antenna separation [m]


# ============================================================
# Link geometry
# ============================================================

@dataclasses.dataclass(frozen=True)
class LinkGeometry:
    """Terminal positions and the altitude band of the cloud layer."""

    tx_positions: np.ndarray      # (Nt, 3) transmit antenna coordinates [m]
    rx_positions: np.ndarray      # (Nr, 3) receive antenna coordinates [m]
    cloud_lower_altitude: float   # layer bottom altitude [m]
    cloud_upper_altitude: float   # layer top altitude [m]
    elevation_deg: float          # link elevation above horizontal [deg]
    link_distance: float          # distance between array centres [m]

    def __post_init__(self) -> None:
        problems = []
        tx = np.asarray(self.tx_positions, dtype=float)
        rx = np.asarray(self.rx_positions, dtype=float)
        if tx.ndim != 2 or tx.shape[1] != 3 or tx.shape[0] == 0:
            problems.append("tx_positions must be a non-empty (Nt, 3) array")
        if rx.ndim != 2 or rx.shape[1] != 3 or rx.shape[0] == 0:
            problems.append("rx_positions must be a non-empty (Nr, 3) array")
        if not (self.cloud_upper_altitude > self.cloud_lower_altitude):
            problems.append(
                f"cloud_upper_altitude ({self.cloud_upper_altitude}) must "
                f"exceed cloud_lower_altitude ({self.cloud_lower_altitude})")
        if not (0.0 < self.elevation_deg <= 90.0):
            problems.append(
                f"elevation_deg must be in (0, 90], got {self.elevation_deg}")
        if not (self.link_distance > 0.0):
            problems.append(
                f"link_distance must be > 0, got {self.link_distance}")
        if problems:
            raise ConfigurationError("; ".join(problems))
        object.__setattr__(self, "tx_positions", tx)
        object.__setattr__(self, "rx_positions", rx)

    @property
    def layer_thickness(self) -> float:
        return self.cloud_upper_altitude - self.cloud_lower_altitude

    @property
    def tx_centre(self) -> np.ndarray:
        return self.tx_positions.mean(axis=0)

    @property
    def rx_centre(self) -> np.ndarray:
        return self.rx_positions.mean(axis=0)


def broadside_link(num_tx: int, num_rx: int, tx_spacing: float,
                   rx_spacing: float, link_distance: float,
                   elevation_deg: float, cloud_upper_altitude: float,
                   layer_thickness: float) -> LinkGeometry:
    """Build a ground-to-air link with broadside uniform linear arrays.

    The ground array centre sits at the origin; the airborne array centre
    sits ``link_distance`` metres along the ray at ``elevation_deg`` above
    horizontal.  Both arrays are perpendicular to the link axis and lie in
    the vertical plane containing it, centred on the axis.
    """
    if num_tx < 1 or num_rx < 1:
        raise ConfigurationError(
            f"array sizes must be >= 1, got num_tx={num_tx}, num_rx={num_rx}")
    theta = math.radians(elevation_deg)
    axis = np.array([math.cos(theta), 0.0, math.sin(theta)])
    perp = np.array([-math.sin(theta), 0.0, math.cos(theta)])
    tx_off = (np.arange(num_tx) - (num_tx - 1) / 2.0) * tx_spacing
    rx_off = (np.arange(num_rx) - (num_rx - 1) / 2.0) * rx_spacing
    tx = tx_off[:, None] * perp[None, :]
    rx = link_distance * axis[None, :] + rx_off[:, None] * perp[None, :]
    return LinkGeometry(tx_positions=tx, rx_positions=rx,
                        cloud_lower_altitude=cloud_upper_altitude - layer_thickness,
                        cloud_upper_altitude=cloud_upper_altitude,
                        elevation_deg=elevation_deg,
                        link_distance=link_distance)


# ============================================================
# Rays and the altitude slab
# ============================================================

@dataclasses.dataclass(frozen=True)
class Ray:
    """Straight path from one transmit antenna to one receive antenna."""

    origin: np.ndarray        # (3,) transmit antenna position [m]
    direction: np.ndarray     # (3,) unit direction towards the receiver
    length: float             # total path length [m]
    layer_entry_s: float      # arc length where the path enters the layer [m]
    layer_exit_s: float       # arc length where the path leaves the layer [m]

    @property
    def in_layer_length(self) -> float:
        return self.layer_exit_s - self.layer_entry_s

    def point_at(self, s: float) -> np.ndarray:
        return self.origin + s * self.direction


def _slab_interval(z0: float, dz: float, length: float,
                   lower: float, upper: float) -> tuple[float, float]:
    # Intersection of the path parameter range [0, length] with the altitude
    # slab; an empty intersection collapses to a zero-length interval.
    if abs(dz) < 1e-15:
        if lower <= z0 <= upper:
            return 0.0, length
        return 0.0, 0.0
    s_a = (lower - z0) / dz
    s_b = (upper - z0) / dz
    s_lo, s_hi = min(s_a, s_b), max(s_a, s_b)
    s_lo = max(s_lo, 0.0)
    s_hi = min(s_hi, length)
    if s_hi <= s_lo:
        return 0.0, 0.0
    return s_lo, s_hi


def build_rays(link: LinkGeometry) -> list[Ray]:
    """One ray per antenna pair, receive index outermost.

    Ray ``i * Nt + j`` runs from transmit antenna ``j`` to receive antenna
    ``i``.  Rays that never reach the layer carry a zero-length in-layer
    interval.
    """
    rays = []
    for rx in link.rx_positions:
        for tx in link.tx_positions:
            diff = rx - tx
            length = float(np.linalg.norm(diff))
            if length < _DEGENERATE_LENGTH:
                raise GeometryError(
                    f"transmit and receive antennas coincide at {tx}")
            direction = diff / length
            s_lo, s_hi = _slab_interval(float(tx[2]), float(direction[2]),
                                        length, link.cloud_lower_altitude,
                                        link.cloud_upper_altitude)
            rays.append(Ray(origin=tx.copy(), direction=direction,
                            length=length, layer_entry_s=s_lo,
                            layer_exit_s=s_hi))
    return rays


# ============================================================
# Mapping into the 2-D cross-section frame
# ============================================================

@dataclasses.dataclass(frozen=True)
class Segment2D:
    """In-layer portion of a ray in cross-section coordinates."""

    start: np.ndarray   # (2,) [m]
    end: np.ndarray     # (2,) [m]

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


def _horizontal_axis(link: LinkGeometry) -> np.ndarray:
    # Horizontal direction of the vertical model plane.  For a vertical link
    # the plane is fixed by the array axis instead; with neither available
    # the x axis is used.
    for span in (link.rx_centre - link.tx_centre,
                 link.tx_positions[-1] - link.tx_positions[0],
                 link.rx_positions[-1] - link.rx_positions[0]):
        h = np.array([span[0], span[1], 0.0])
        norm = np.linalg.norm(h)
        if norm > _DEGENERATE_LENGTH:
            return h / norm
    return np.array([1.0, 0.0, 0.0])


def _plane_coords(link: LinkGeometry, ray: Ray, axis_h: np.ndarray,
                  s: float) -> tuple[float, float]:
    p = ray.point_at(s)
    h = float(np.dot(p - link.tx_centre, axis_h))
    return h, float(p[2]) - link.cloud_lower_altitude


def map_rays_to_field(rays: list[Ray], link: LinkGeometry,
                      config: CloudConfig) -> list[Segment2D]:
    """Map a ray bundle into the cross-section with one shared anchor.

    All in-layer segments are translated by the same offset, chosen so the
    mean segment midpoint lands at W/2.  Sharing the anchor preserves the
    relative geometry between rays, which is what lets nearby paths pierce
    the same cloudlets.  Rays that never reach the layer map to zero-length
    segments.
    """
    axis_h = _horizontal_axis(link)
    coords = []
    mids = []
    for ray in rays:
        if ray.in_layer_length <= 0.0:
            coords.append(None)
            continue
        h0, y0 = _plane_coords(link, ray, axis_h, ray.layer_entry_s)
        h1, y1 = _plane_coords(link, ray, axis_h, ray.layer_exit_s)
        coords.append((h0, y0, h1, y1))
        mids.append((h0 + h1) / 2.0)
    half_w = config.width_w / 2.0
    if not mids:
        return [Segment2D(start=np.array([half_w, 0.0]),
                          end=np.array([half_w, 0.0])) for _ in rays]
    shift = half_w - float(np.mean(mids))
    segments = []
    for entry in coords:
        if entry is None:
            segments.append(Segment2D(start=np.array([half_w, 0.0]),
                                      end=np.array([half_w, 0.0])))
            continue
        h0, y0, h1, y1 = entry
        for h in (h0 + shift, h1 + shift):
            if not (-1e-9 <= h <= config.width_w + 1e-9):
                raise ConfigurationError(
                    f"mapped ray coordinate {h:.4g} m falls outside the "
                    f"layer width [0, {config.width_w:.4g}] m; increase "
                    f"width_w or steepen the elevation")
        segments.append(Segment2D(start=np.array([h0 + shift, y0]),
                                  end=np.array([h1 + shift, y1])))
    return segments


# ============================================================
# Chord lengths
# ============================================================

def chord_lengths(segment: Segment2D, centres: np.ndarray, radius: float,
                  work: np.ndarray | None = None) -> np.ndarray:
    """Chord length of a segment through each of a set of equal discs.

    Parameters
    ----------
    segment : Segment2D
        Probe segment.
    centres : ndarray, shape (n, 2)
        Disc centres.
    radius : float
        Shared disc radius.
    work : ndarray, shape (4, m) with m >= n, optional
        Work space for the computation, so that repeated calls can reuse
        one allocation.  The chords are then returned as a view into it,
        valid until ``work`` is used again.

    Returns
    -------
    ndarray, shape (n,)
        Length of the intersection of the segment with each closed disc;
        0 where they do not meet.
    """
    centres = np.atleast_2d(np.asarray(centres, dtype=float))
    n = centres.shape[0]
    length = segment.length
    if length == 0.0 or n == 0:
        return np.zeros(n)
    ux, uy = (segment.end - segment.start) / length
    wx, wy, t, tmp = np.empty((4, n)) if work is None else work[:4, :n]
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
