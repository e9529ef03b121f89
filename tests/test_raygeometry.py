"""Tests for the link's rays, slab crossing, frame mapping and chords."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cloudmimo
from cloudmimo import (CloudConfig, ConfigurationError, MimoScenario,
                       pair_distances)
from cloudmimo.raygeometry import chord_lengths, map_rays_to_field

# Independently evaluated slant quantities for a 1000 m thick layer.
SLANT_LENGTH_85_14 = 1003.60828728      # 1000 / sin(85.14 deg) [m]
HORIZONTAL_EXTENT_85_14 = 85.0270210113  # 1000 / tan(85.14 deg) [m]


def link_segments(distance=40000.0, elevation=90.0, upper=8000.0,
                  thickness=1000.0, width=20.0, **arrays):
    """Mapped (rays, 2, 2) segments of a broadside link, 2x2 at 1 m /
    6.0827 m spacing unless ``arrays`` overrides the scenario's array
    fields."""
    scenario = MimoScenario(**{**dict(num_tx=2, num_rx=2, tx_spacing=1.0,
                                      rx_spacing=6.0827,
                                      link_distance=distance,
                                      elevation_deg=elevation), **arrays})
    cloud = CloudConfig(width_w=width, thickness_d=thickness,
                        max_thickness_dmax=thickness, upper_altitude=upper)
    return map_rays_to_field(scenario, cloud)


def length(segment) -> float:
    """Length of a (2, 2) segment, from its start to its end [m]."""
    return float(np.linalg.norm(segment[1] - segment[0]))


def single_ray(**link):
    return link_segments(num_tx=1, num_rx=1, tx_spacing=0.0,
                         rx_spacing=0.0, **link)


# The parts check the geometry they describe: the tracer would map every
# ray of these to a zero-length segment, so the link would see clear sky.
@pytest.mark.parametrize("elevation", [0.0, -30.0, 120.0, math.nan])
def test_scenario_refuses_an_elevation_outside_0_90(elevation):
    with pytest.raises(ConfigurationError,
                       match=r"elevation_deg must be in \(0, 90\]"):
        MimoScenario(elevation_deg=elevation)


@pytest.mark.parametrize("upper", [1e300, math.nan])
def test_cloud_refuses_a_top_not_above_its_bottom(upper):
    with pytest.raises(ConfigurationError, match=(
            r"cloud_upper_altitude \(.+\) must exceed "
            r"cloud_lower_altitude \(.+\)")):
        CloudConfig(upper_altitude=upper)


# ============================================================
# Link construction
# ============================================================

def whole_link(**link):
    # A layer from 1000 m below ground to 50 km holds every ray whole, so
    # each segment runs from its transmit to its receive antenna.
    return link_segments(upper=50000.0, thickness=51000.0, **link)


def test_broadside_vertical_centres():
    [seg] = whole_link(num_tx=1, num_rx=1)
    # ground centre at altitude 0, airborne centre 40 km straight above
    assert seg[0].tolist() == pytest.approx([10.0, 1000.0], abs=1e-9)
    assert seg[1].tolist() == pytest.approx([10.0, 41000.0], abs=1e-9)


def test_broadside_array_spans():
    # A vertical link's arrays are horizontal.
    first, second = whole_link(num_rx=1)
    assert second[0, 0] - first[0, 0] == pytest.approx(1.0, rel=1e-12)
    first, second = whole_link(num_tx=1)
    assert second[1, 0] - first[1, 0] == pytest.approx(6.0827, rel=1e-12)


def test_broadside_slant_centre_altitude():
    [seg] = whole_link(num_tx=1, num_rx=1, distance=20000.0, elevation=30.0,
                       width=40000.0)
    assert seg[1, 1] - seg[0, 1] == pytest.approx(10000.0, rel=1e-12)


# ============================================================
# Ray order and slab crossing
# ============================================================

def test_ray_count_and_ordering():
    segments = whole_link(num_rx=3)
    assert segments.shape == (6, 2, 2)
    # receive index outermost: segment i*Nt + j starts at transmit antenna
    # j and ends at receive antenna i
    for i in range(3):
        for j in range(2):
            assert segments[i * 2 + j][0, 0] == segments[j][0, 0]
            assert segments[i * 2 + j][1, 0] == segments[i * 2][1, 0]
    assert segments[0][0, 0] != segments[1][0, 0]
    assert len({seg[1, 0] for seg in segments}) == 3


def test_ray_lengths_match_pair_distances():
    scenario = MimoScenario(num_tx=2, num_rx=3, tx_spacing=1.0,
                            rx_spacing=6.0827, link_distance=40000.0)
    lengths = [length(seg) for seg in whole_link(num_rx=3)]
    np.testing.assert_allclose(lengths, pair_distances(scenario).ravel(),
                               rtol=1e-15)


def test_vertical_in_layer_length():
    for seg in link_segments():
        # antenna-pair tilt adds a few parts in 1e9 to the vertical crossing
        assert 1000.0 <= length(seg) <= 1000.0 + 1e-4


def test_slant_in_layer_length():
    [seg] = single_ray(distance=20000.0, elevation=85.14, width=100.0)
    assert length(seg) == pytest.approx(SLANT_LENGTH_85_14, rel=1e-9)


def test_link_below_layer_never_crosses():
    for seg in link_segments(distance=2000.0):
        assert length(seg) == 0.0


def test_link_ending_inside_layer_crosses_partially():
    for seg in link_segments(distance=7500.0):
        # pair tilt lengthens the crossing by a few tens of micrometres
        assert 500.0 <= length(seg) <= 500.0 + 1e-3
    # At 30 deg the receive centre sits at 15000 sin(30) = 7500 m.
    [seg] = single_ray(distance=15000.0, elevation=30.0, width=2000.0)
    assert length(seg) == pytest.approx(1000.0, rel=1e-12)


def test_horizontal_ray_inside_layer():
    # Receive antenna 0 sits at 1000 (cos 45, sin 45) - 1000 (-sin 45,
    # cos 45), level with the transmitter, inside the layer: ray 0 runs
    # in it along its whole length 1000 sqrt(2).
    segments = link_segments(distance=1000.0, elevation=45.0, upper=500.0,
                             width=5000.0, num_tx=1, tx_spacing=0.0,
                             rx_spacing=2000.0)
    assert length(segments[0]) == pytest.approx(1000.0 * math.sqrt(2.0),
                                              rel=1e-12)
    assert segments[0][0, 1] == pytest.approx(500.0, abs=1e-9)
    assert length(segments[1]) == pytest.approx(500.0, rel=1e-9)


def test_coincident_antennas_raise():
    with pytest.raises(ConfigurationError, match="coincide"):
        single_ray(distance=1e-12)


# ============================================================
# Mapping into the cross-section frame
# ============================================================

def test_single_vertical_ray_maps_to_centre():
    [segment] = single_ray()
    assert segment[0, 0] == pytest.approx(10.0, abs=1e-9)
    assert segment[1, 0] == pytest.approx(10.0, abs=1e-9)
    assert segment[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert segment[1, 1] == pytest.approx(1000.0, abs=1e-6)


def test_slant_segment_length_and_extent():
    [segment] = single_ray(distance=20000.0, elevation=85.14, width=100.0)
    assert length(segment) == pytest.approx(SLANT_LENGTH_85_14, rel=1e-9)
    extent = abs(segment[1, 0] - segment[0, 0])
    assert extent == pytest.approx(HORIZONTAL_EXTENT_85_14, rel=1e-9)
    # segment midpoint is anchored at W/2
    mid = (segment[0, 0] + segment[1, 0]) / 2.0
    assert mid == pytest.approx(50.0, abs=1e-9)


def test_narrow_layer_rejects_wide_slant():
    with pytest.raises(ConfigurationError) as err:
        single_ray(distance=20000.0, elevation=85.14, width=20.0)
    assert "width_w" in str(err.value)


def test_bundle_anchor_centres_mean_midpoint():
    mids = [(seg[0, 0] + seg[1, 0]) / 2.0 for seg in link_segments()]
    assert np.mean(mids) == pytest.approx(10.0, abs=1e-9)


def test_bundle_below_layer_maps_to_zero_segments():
    for seg in link_segments(distance=2000.0):
        assert seg[0].tolist() == seg[1].tolist() == [10.0, 0.0]


def test_vertical_link_h_runs_along_the_transmit_array():
    # Transmit element j sits at x = -(j - 1/2) 10 m; h = -x grows with j.
    first, second = link_segments(num_rx=1, tx_spacing=10.0, rx_spacing=0.0)
    assert first[0, 0] < 10.0 < second[0, 0]
    assert second[0, 0] - first[0, 0] == pytest.approx(
        10.0 * (1.0 - 7000.0 / 40000.0), rel=1e-9)
    # With one transmit element the receive array sets the same direction.
    first, second = link_segments(num_tx=1, tx_spacing=0.0, rx_spacing=10.0)
    assert first[1, 0] < second[1, 0]


def closed_form_crossings(num_tx, num_rx, tx_spacing, rx_spacing, distance,
                          elevation, upper, thickness):
    """Each ray's in-layer end points (x, height above the layer bottom),
    or None, receive index outermost: the ray is tx + u (rx - tx) for u in
    [0, 1], and it is in the layer where its altitude is in the band.  As
    in the mapping, an in-layer piece shorter than 1e-9 m is a miss."""
    c, s = math.cos(math.radians(elevation)), math.sin(math.radians(elevation))
    lower = upper - thickness
    crossings = []
    for i in range(num_rx):
        b = (i - (num_rx - 1) / 2.0) * rx_spacing
        rx = (distance * c - b * s, distance * s + b * c)
        for j in range(num_tx):
            a = (j - (num_tx - 1) / 2.0) * tx_spacing
            tx = (-a * s, a * c)
            dx, dz = rx[0] - tx[0], rx[1] - tx[1]
            u_lo, u_hi = sorted(((lower - tx[1]) / dz, (upper - tx[1]) / dz))
            u_lo, u_hi = max(u_lo, 0.0), min(u_hi, 1.0)
            piece = (u_hi - u_lo) * math.hypot(dx, dz)
            crossings.append(None if piece < 1e-9 else tuple(
                (tx[0] + u * dx, tx[1] + u * dz - lower)
                for u in (u_lo, u_hi)))
    return crossings


@settings(max_examples=200, deadline=None)
@given(num_tx=st.integers(1, 4), num_rx=st.integers(1, 4),
       tx_spacing=st.floats(0.0, 50.0), rx_spacing=st.floats(0.0, 50.0),
       distance=st.floats(2000.0, 60000.0), elevation=st.floats(5.0, 89.0),
       upper=st.floats(-1000.0, 20000.0), thickness=st.floats(10.0, 1000.0),
       width=st.floats(20.0, 20000.0))
# A layer top one subnormal above the transmit centre's element: its ray's
# in-layer piece is a zero-length point, a miss both in the mapping and in
# the closed form, and it must not move the anchor of the other rays.  The
# last example's piece (0.6 nm) is nonzero in both, and still a miss.
@example(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
         distance=2000.0, elevation=5.0, upper=5e-324, thickness=10.0,
         width=20.0)
@example(num_tx=3, num_rx=1, tx_spacing=1.0, rx_spacing=1.0,
         distance=2000.0, elevation=5.0, upper=5e-324, thickness=10.0,
         width=20.0)
@example(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
         distance=2000.0, elevation=5.0, upper=5e-11, thickness=10.0,
         width=20.0)
def test_bundle_preserves_relative_offsets(
        num_tx, num_rx, tx_spacing, rx_spacing, distance, elevation, upper,
        thickness, width):
    # The arrays span under 150 m and the centres rise over 170 m, so no
    # ray is level.  The transmit centre is at x = 0 and the receive
    # centre at x > 0, so h is x plus the shared anchor shift.
    crossings = closed_form_crossings(num_tx, num_rx, tx_spacing,
                                      rx_spacing, distance, elevation,
                                      upper, thickness)
    mids = [(p[0] + q[0]) / 2.0 for p, q in filter(None, crossings)]
    shift = width / 2.0 - (np.mean(mids) if mids else 0.0)
    hs = [p[0] + shift for ends in filter(None, crossings) for p in ends]
    outside = max([max(-h, h - width) for h in hs], default=-1.0)
    assume(abs(outside) > 1e-6)
    scenario = dict(num_tx=num_tx, num_rx=num_rx, tx_spacing=tx_spacing,
                    rx_spacing=rx_spacing)
    if outside > 0.0:
        with pytest.raises(ConfigurationError, match="width_w"):
            link_segments(distance, elevation, upper, thickness, width,
                          **scenario)
        return
    segments = link_segments(distance, elevation, upper, thickness, width,
                             **scenario)
    assert len(segments) == len(crossings)
    for seg, ends in zip(segments, crossings):
        if ends is None:
            assert seg[0].tolist() == seg[1].tolist() == [width / 2, 0.0]
            continue
        (x0, y0), (x1, y1) = ends
        np.testing.assert_allclose(seg[0], [x0 + shift, y0], rtol=0,
                                   atol=1e-9)
        np.testing.assert_allclose(seg[1], [x1 + shift, y1], rtol=0,
                                   atol=1e-9)


# The 2x2 table1 link at 25 km.  While segment lengths were taken by
# np.linalg.norm, a BLAS dot product, ray 3's end h came out 1.1e-13 m
# apart under OpenBLAS's AVX-512 (SkylakeX) and Nehalem kernels.
TABLE1_AT_25_KM = dict(distance=25000.0, elevation=85.14, width=100.0)


def test_mapping_does_not_depend_on_the_blas_core():
    # The child maps the link under OpenBLAS's Nehalem kernels, which the
    # variable selects for that process alone.
    tests = Path(__file__).resolve().parent
    src = Path(cloudmimo.__file__).resolve().parents[1]
    child = ("import sys\n"
             "from test_raygeometry import TABLE1_AT_25_KM, link_segments\n"
             "sys.stdout.write("
             "link_segments(**TABLE1_AT_25_KM).tobytes().hex())\n")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    mapped = subprocess.run([sys.executable, "-c", child], env=env,
                            capture_output=True, text=True, check=True)
    here = link_segments(**TABLE1_AT_25_KM)
    assert np.array_equal(np.frombuffer(bytes.fromhex(mapped.stdout))
                          .reshape(here.shape), here)


# ============================================================
# Chord lengths
# ============================================================

def test_chord_through_centre_is_diameter():
    seg = np.array([[-100.0, 0.0], [100.0, 0.0]])
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(10.0, rel=1e-12)


def test_chord_off_centre_analytic():
    # perpendicular distance p gives chord 2 sqrt(r^2 - p^2)
    seg = np.array([[-100.0, 3.0], [100.0, 3.0]])
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(2.0 * math.sqrt(25.0 - 9.0), rel=1e-12)


def test_chord_tangent_is_zero():
    seg = np.array([[-100.0, 5.0], [100.0, 5.0]])
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_disjoint_is_zero():
    seg = np.array([[-100.0, 9.0], [100.0, 9.0]])
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_segment_fully_inside_disc():
    seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(2.0, rel=1e-12)


def test_chord_clipped_at_segment_end():
    # segment ends at the centre, so only half the diameter is traversed
    seg = np.array([[-100.0, 0.0], [0.0, 0.0]])
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(5.0, rel=1e-12)


def test_chord_zero_length_segment():
    seg = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    seg = rng.uniform(-10, 10, (2, 2))
    centres = rng.uniform(-10, 10, (50, 2))
    vec = chord_lengths(seg, centres, 3.0)
    assert np.count_nonzero(vec) > 5
    for idx in range(50):
        # a disc's chord does not depend on the other discs of the call
        lone = chord_lengths(seg, centres[idx:idx + 1], 3.0)
        assert np.array_equal(lone, vec[idx:idx + 1])


def masked_chord_lengths(segment, centres, radius):
    """The chord formula with an explicit hit mask, kept as a reference.

    The segment's length is taken as ``chord_lengths`` takes it, written
    out on Python floats, so the two agree bit for bit.
    """
    n = centres.shape[0]
    start, end = segment
    dx, dy = (end - start).tolist()
    length = math.sqrt(dx * dx + dy * dy)
    if length == 0.0 or n == 0:
        return np.zeros(n)
    ux, uy = (end - start) / length
    wx = centres[:, 0] - start[0]
    wy = centres[:, 1] - start[1]
    t = wx * ux + wy * uy
    half = radius * radius - (wx * wx + wy * wy - t * t)
    hit = half > 0.0
    half = np.sqrt(np.maximum(half, 0.0))
    chords = np.minimum(t + half, length) - np.maximum(t - half, 0.0)
    chords = np.maximum(chords, 0.0)
    chords[~hit] = 0.0
    return chords


def test_chord_lengths_equal_the_masked_reference():
    rng = np.random.default_rng(23)
    radius = 2.0
    cases = []
    for _ in range(20):
        seg = rng.uniform(-20.0, 20.0, (2, 2))
        cases.append((seg, rng.uniform(-30.0, 30.0, (300, 2))))
    # Axis-aligned segment from (0, 0) to (10, 0): exact tangents above and
    # below, discs behind the start and beyond the end (touching, missing
    # and overlapping), centres on the segment.
    axis = np.array([[0.0, 0.0], [10.0, 0.0]])
    edges = np.array([[5.0, 2.0], [5.0, -2.0], [0.0, 2.0], [10.0, -2.0],
                      [-2.0, 0.0], [-3.0, 0.0], [-1.0, 0.0], [-2.5, 1.0],
                      [12.0, 0.0], [13.0, 0.0], [11.0, 0.0], [12.5, -1.0],
                      [0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [7.3, 0.0],
                      [-50.0, 0.0], [60.0, 1.0]])
    cases.append((axis, edges))
    # Segments whose line the discs touch, slanted and vertical.
    slant = np.array([[0.0, 0.0], [3.0, 4.0]])
    cases.append((slant, np.array([[1.5 + 1.6, 2.0 - 1.2],
                                   [1.5 - 1.6, 2.0 + 1.2], [-1.2, -1.6]])))
    vertical = np.array([[1.0, -5.0], [1.0, 5.0]])
    cases.append((vertical, np.array([[3.0, 0.0], [-1.0, 0.0],
                                      [1.0, 7.0], [1.0, -7.0]])))
    # A zero-length segment, with a disc centred on it.
    point = np.array([[4.0, 4.0], [4.0, 4.0]])
    cases.append((point, np.array([[4.0, 4.0], [4.5, 4.0], [40.0, 4.0]])))
    for seg, centres in cases:
        chords = chord_lengths(seg, centres, radius)
        assert np.array_equal(chords, masked_chord_lengths(seg, centres,
                                                            radius))
        assert not np.any(np.signbit(chords))
    # the first four touch the axis segment: d^2 = r^2 exactly
    tangent = chord_lengths(axis, edges[:4], radius)
    assert np.array_equal(tangent, np.zeros(4))


def test_chord_lengths_leave_centres_unmodified_and_zero_misses():
    rng = np.random.default_rng(11)
    start, end, radius = np.array([0.0, 0.0]), np.array([10.0, 20.0]), 2.0
    seg = np.array([start, end])
    # discs around the segment, beside it and beyond both of its ends
    centres = rng.uniform(-10.0, 30.0, (400, 2))
    before = centres.copy()
    chords = chord_lengths(seg, centres, radius)
    assert np.array_equal(centres, before)
    # distance from each centre to the nearest point of the segment
    u = (end - start) / length(seg)
    along = np.clip((centres - start) @ u, 0.0, length(seg))
    gap = np.linalg.norm(centres - (start + along[:, None] * u), axis=1)
    miss = gap > radius + 1e-9
    assert miss.sum() > 100 and (gap < radius - 1e-9).sum() > 10
    assert np.all(chords[miss] == 0.0)
    assert not np.any(np.signbit(chords[miss]))
    assert np.all(chords[gap < radius - 1e-9] > 0.0)
    # a zero-length segment meets no disc, even one centred on it
    point = np.array([[5.0, 5.0], [5.0, 5.0]])
    zeros = chord_lengths(point, np.vstack([centres, [[5.0, 5.0]]]), radius)
    assert zeros.shape == (401,)
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    assert np.array_equal(centres, before)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chord_against_point_sampling(data):
    # coarse independent oracle; the acceptance suite runs the fine version
    r = data.draw(st.floats(0.5, 8.0))
    cx = data.draw(st.floats(-10.0, 10.0))
    cy = data.draw(st.floats(-10.0, 10.0))
    ax = data.draw(st.floats(-30.0, 30.0))
    ay = data.draw(st.floats(-30.0, 30.0))
    bx = data.draw(st.floats(-30.0, 30.0))
    by = data.draw(st.floats(-30.0, 30.0))
    seg = np.array([[ax, ay], [bx, by]])
    exact = float(chord_lengths(seg, np.array([[cx, cy]]), r)[0])
    ts = np.linspace(0.0, 1.0, 200_001)
    dx = (bx - ax) * ts + (ax - cx)
    dy = (by - ay) * ts + (ay - cy)
    est = np.count_nonzero(dx * dx + dy * dy <= r * r) / ts.size * length(seg)
    assert abs(exact - est) <= max(2e-3 * r, 2.0 * length(seg) / ts.size)


def test_path_intersections_order_and_positivity():
    centres = np.array([[10.0, 900.0], [10.0, 100.0], [500.0, 500.0]])
    seg = np.array([[10.0, 0.0], [10.0, 1000.0]])
    chords = chord_lengths(seg, centres, 5.0)
    assert np.flatnonzero(chords > 0.0).tolist() == [0, 1]
    assert chords[:2] == pytest.approx([10.0, 10.0], rel=1e-12)
    assert chords[2] == 0.0
