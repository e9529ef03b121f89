"""Tests for link geometry, slab crossing, frame mapping and chords."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmimo import (CloudConfig, ConfigurationError, GeometryError,
                       LinkGeometry, Segment2D, broadside_link, build_rays,
                       chord_lengths, map_rays_to_field)

# Independently evaluated slant quantities for a 1000 m thick layer.
SLANT_LENGTH_85_14 = 1003.60828728      # 1000 / sin(85.14 deg) [m]
HORIZONTAL_EXTENT_85_14 = 85.0270210113  # 1000 / tan(85.14 deg) [m]


def vertical_link(distance=40000.0, upper=8000.0, thickness=1000.0,
                  num_tx=2, num_rx=2, tx_spacing=1.0, rx_spacing=6.0827):
    return broadside_link(num_tx=num_tx, num_rx=num_rx,
                          tx_spacing=tx_spacing, rx_spacing=rx_spacing,
                          link_distance=distance, elevation_deg=90.0,
                          cloud_upper_altitude=upper,
                          layer_thickness=thickness)


# ============================================================
# Link construction
# ============================================================

def test_broadside_vertical_centres():
    link = vertical_link()
    np.testing.assert_allclose(link.tx_centre, [0.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(link.rx_centre, [0.0, 0.0, 40000.0],
                               atol=1e-9)


def test_broadside_array_spans():
    link = vertical_link()
    tx_span = np.linalg.norm(link.tx_positions[-1] - link.tx_positions[0])
    rx_span = np.linalg.norm(link.rx_positions[-1] - link.rx_positions[0])
    assert tx_span == pytest.approx(1.0, rel=1e-12)
    assert rx_span == pytest.approx(6.0827, rel=1e-12)


def test_broadside_slant_centre_altitude():
    link = broadside_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
                          link_distance=20000.0, elevation_deg=30.0,
                          cloud_upper_altitude=8000.0, layer_thickness=1000.0)
    assert link.rx_centre[2] == pytest.approx(10000.0, rel=1e-12)


def test_link_validation_collects_problems():
    with pytest.raises(ConfigurationError) as err:
        LinkGeometry(tx_positions=np.zeros((1, 3)),
                     rx_positions=np.zeros((1, 3)),
                     cloud_lower_altitude=8000.0,
                     cloud_upper_altitude=7000.0,
                     elevation_deg=120.0, link_distance=-1.0)
    message = str(err.value)
    assert "cloud_upper_altitude" in message
    assert "elevation_deg" in message
    assert "link_distance" in message


def test_broadside_rejects_empty_arrays():
    with pytest.raises(ConfigurationError):
        broadside_link(num_tx=0, num_rx=1, tx_spacing=1.0, rx_spacing=1.0,
                       link_distance=1000.0, elevation_deg=45.0,
                       cloud_upper_altitude=8000.0, layer_thickness=1000.0)


# ============================================================
# Ray construction and slab crossing
# ============================================================

def test_ray_count_and_ordering():
    link = vertical_link(num_tx=2, num_rx=3)
    rays = build_rays(link)
    assert len(rays) == 6
    # receive index outermost: ray i*Nt + j starts at transmit antenna j
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(rays[i * 2 + j].origin,
                                          link.tx_positions[j])


def test_ray_lengths_match_pair_distances():
    link = vertical_link()
    rays = build_rays(link)
    for i, rx in enumerate(link.rx_positions):
        for j, tx in enumerate(link.tx_positions):
            expected = float(np.linalg.norm(rx - tx))
            assert rays[i * 2 + j].length == pytest.approx(expected,
                                                           rel=1e-15)


def test_vertical_in_layer_length():
    rays = build_rays(vertical_link())
    for ray in rays:
        # antenna-pair tilt adds a few parts in 1e9 to the vertical crossing
        assert 1000.0 <= ray.in_layer_length <= 1000.0 + 1e-4


def test_slant_in_layer_length():
    link = broadside_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
                          link_distance=20000.0, elevation_deg=85.14,
                          cloud_upper_altitude=8000.0, layer_thickness=1000.0)
    ray = build_rays(link)[0]
    assert ray.in_layer_length == pytest.approx(SLANT_LENGTH_85_14, rel=1e-9)


def test_link_below_layer_never_crosses():
    rays = build_rays(vertical_link(distance=2000.0))
    for ray in rays:
        assert ray.in_layer_length == 0.0


def test_link_ending_inside_layer_crosses_partially():
    rays = build_rays(vertical_link(distance=7500.0))
    for ray in rays:
        # pair tilt lengthens the crossing by a few tens of micrometres
        assert 500.0 <= ray.in_layer_length <= 500.0 + 1e-3


def test_horizontal_ray_inside_layer():
    link = LinkGeometry(tx_positions=np.array([[0.0, 0.0, 7500.0]]),
                        rx_positions=np.array([[5000.0, 0.0, 7500.0]]),
                        cloud_lower_altitude=7000.0,
                        cloud_upper_altitude=8000.0,
                        elevation_deg=1.0, link_distance=5000.0)
    ray = build_rays(link)[0]
    assert ray.in_layer_length == pytest.approx(5000.0, rel=1e-12)


def test_coincident_antennas_raise():
    link = LinkGeometry(tx_positions=np.array([[1.0, 2.0, 3.0]]),
                        rx_positions=np.array([[1.0, 2.0, 3.0]]),
                        cloud_lower_altitude=7000.0,
                        cloud_upper_altitude=8000.0,
                        elevation_deg=45.0, link_distance=1.0)
    with pytest.raises(GeometryError):
        build_rays(link)


# ============================================================
# Mapping into the cross-section frame
# ============================================================

def test_single_vertical_ray_maps_to_centre():
    link = vertical_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0)
    config = CloudConfig()
    [segment] = map_rays_to_field(build_rays(link), link, config)
    assert segment.start[0] == pytest.approx(10.0, abs=1e-9)
    assert segment.end[0] == pytest.approx(10.0, abs=1e-9)
    assert segment.start[1] == pytest.approx(0.0, abs=1e-9)
    assert segment.end[1] == pytest.approx(1000.0, abs=1e-6)


def test_slant_segment_length_and_extent():
    link = broadside_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
                          link_distance=20000.0, elevation_deg=85.14,
                          cloud_upper_altitude=8000.0, layer_thickness=1000.0)
    config = CloudConfig(width_w=100.0)
    [segment] = map_rays_to_field(build_rays(link), link, config)
    assert segment.length == pytest.approx(SLANT_LENGTH_85_14, rel=1e-9)
    extent = abs(segment.end[0] - segment.start[0])
    assert extent == pytest.approx(HORIZONTAL_EXTENT_85_14, rel=1e-9)
    # segment midpoint is anchored at W/2
    mid = (segment.start[0] + segment.end[0]) / 2.0
    assert mid == pytest.approx(50.0, abs=1e-9)


def test_narrow_layer_rejects_wide_slant():
    link = broadside_link(num_tx=1, num_rx=1, tx_spacing=0.0, rx_spacing=0.0,
                          link_distance=20000.0, elevation_deg=85.14,
                          cloud_upper_altitude=8000.0, layer_thickness=1000.0)
    with pytest.raises(ConfigurationError) as err:
        map_rays_to_field(build_rays(link), link, CloudConfig(width_w=20.0))
    assert "width_w" in str(err.value)


def test_bundle_anchor_centres_mean_midpoint():
    link = vertical_link()
    config = CloudConfig()
    segments = map_rays_to_field(build_rays(link), link, config)
    mids = [(seg.start[0] + seg.end[0]) / 2.0 for seg in segments]
    assert np.mean(mids) == pytest.approx(10.0, abs=1e-9)


def test_bundle_preserves_relative_offsets():
    link = vertical_link()
    config = CloudConfig()
    rays = build_rays(link)
    segments = map_rays_to_field(rays, link, config)
    # rays from the same transmit antenna to different receive antennas
    # enter the layer at horizontal offsets matching the 3-D geometry
    entry_x = [seg.start[0] for seg in segments]
    span_3d = []
    axis = np.array([1.0, 0.0, 0.0])
    for ray in rays:
        p = ray.point_at(ray.layer_entry_s)
        span_3d.append(float(np.dot(p, axis)))
    diffs_2d = np.sort(np.diff(sorted(entry_x)))
    diffs_3d = np.sort(np.diff(sorted(span_3d)))
    np.testing.assert_allclose(diffs_2d, diffs_3d, atol=1e-9)


def test_bundle_below_layer_maps_to_zero_segments():
    link = vertical_link(distance=2000.0)
    segments = map_rays_to_field(build_rays(link), link, CloudConfig())
    for seg in segments:
        assert seg.length == 0.0
        assert seg.start[0] == pytest.approx(10.0)


# ============================================================
# Chord lengths
# ============================================================

def test_chord_through_centre_is_diameter():
    seg = Segment2D(start=np.array([-100.0, 0.0]), end=np.array([100.0, 0.0]))
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(10.0, rel=1e-12)


def test_chord_off_centre_analytic():
    # perpendicular distance p gives chord 2 sqrt(r^2 - p^2)
    seg = Segment2D(start=np.array([-100.0, 3.0]), end=np.array([100.0, 3.0]))
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(2.0 * math.sqrt(25.0 - 9.0), rel=1e-12)


def test_chord_tangent_is_zero():
    seg = Segment2D(start=np.array([-100.0, 5.0]), end=np.array([100.0, 5.0]))
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_disjoint_is_zero():
    seg = Segment2D(start=np.array([-100.0, 9.0]), end=np.array([100.0, 9.0]))
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_segment_fully_inside_disc():
    seg = Segment2D(start=np.array([-1.0, 0.0]), end=np.array([1.0, 0.0]))
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(2.0, rel=1e-12)


def test_chord_clipped_at_segment_end():
    # segment ends at the centre, so only half the diameter is traversed
    seg = Segment2D(start=np.array([-100.0, 0.0]), end=np.array([0.0, 0.0]))
    chord = chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0]
    assert chord == pytest.approx(5.0, rel=1e-12)


def test_chord_zero_length_segment():
    seg = Segment2D(start=np.array([0.0, 0.0]), end=np.array([0.0, 0.0]))
    assert chord_lengths(seg, np.array([[0.0, 0.0]]), 5.0)[0] == 0.0


def test_chord_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    seg = Segment2D(start=rng.uniform(-10, 10, 2), end=rng.uniform(-10, 10, 2))
    centres = rng.uniform(-10, 10, (50, 2))
    vec = chord_lengths(seg, centres, 3.0)
    assert np.count_nonzero(vec) > 5
    for idx in range(50):
        # a disc's chord does not depend on the other discs of the call
        lone = chord_lengths(seg, centres[idx:idx + 1], 3.0)
        assert np.array_equal(lone, vec[idx:idx + 1])


def masked_chord_lengths(segment, centres, radius):
    """The chord formula with an explicit hit mask, kept as a reference."""
    n = centres.shape[0]
    length = segment.length
    if length == 0.0 or n == 0:
        return np.zeros(n)
    ux, uy = (segment.end - segment.start) / length
    wx = centres[:, 0] - segment.start[0]
    wy = centres[:, 1] - segment.start[1]
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
        seg = Segment2D(start=rng.uniform(-20.0, 20.0, 2),
                        end=rng.uniform(-20.0, 20.0, 2))
        cases.append((seg, rng.uniform(-30.0, 30.0, (300, 2))))
    # Axis-aligned segment from (0, 0) to (10, 0): exact tangents above and
    # below, discs behind the start and beyond the end (touching, missing
    # and overlapping), centres on the segment.
    axis = Segment2D(start=np.array([0.0, 0.0]), end=np.array([10.0, 0.0]))
    edges = np.array([[5.0, 2.0], [5.0, -2.0], [0.0, 2.0], [10.0, -2.0],
                      [-2.0, 0.0], [-3.0, 0.0], [-1.0, 0.0], [-2.5, 1.0],
                      [12.0, 0.0], [13.0, 0.0], [11.0, 0.0], [12.5, -1.0],
                      [0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [7.3, 0.0],
                      [-50.0, 0.0], [60.0, 1.0]])
    cases.append((axis, edges))
    # Segments whose line the discs touch, slanted and vertical.
    slant = Segment2D(start=np.array([0.0, 0.0]), end=np.array([3.0, 4.0]))
    cases.append((slant, np.array([[1.5 + 1.6, 2.0 - 1.2],
                                   [1.5 - 1.6, 2.0 + 1.2], [-1.2, -1.6]])))
    vertical = Segment2D(start=np.array([1.0, -5.0]),
                         end=np.array([1.0, 5.0]))
    cases.append((vertical, np.array([[3.0, 0.0], [-1.0, 0.0],
                                      [1.0, 7.0], [1.0, -7.0]])))
    # A zero-length segment, with a disc centred on it.
    point = Segment2D(start=np.array([4.0, 4.0]), end=np.array([4.0, 4.0]))
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
    seg = Segment2D(start=start, end=end)
    # discs around the segment, beside it and beyond both of its ends
    centres = rng.uniform(-10.0, 30.0, (400, 2))
    before = centres.copy()
    chords = chord_lengths(seg, centres, radius)
    assert np.array_equal(centres, before)
    # distance from each centre to the nearest point of the segment
    u = (end - start) / seg.length
    along = np.clip((centres - start) @ u, 0.0, seg.length)
    gap = np.linalg.norm(centres - (start + along[:, None] * u), axis=1)
    miss = gap > radius + 1e-9
    assert miss.sum() > 100 and (gap < radius - 1e-9).sum() > 10
    assert np.all(chords[miss] == 0.0)
    assert not np.any(np.signbit(chords[miss]))
    assert np.all(chords[gap < radius - 1e-9] > 0.0)
    # a zero-length segment meets no disc, even one centred on it
    point = Segment2D(start=np.array([5.0, 5.0]), end=np.array([5.0, 5.0]))
    zeros = chord_lengths(point, np.vstack([centres, [[5.0, 5.0]]]), radius)
    assert zeros.shape == (401,)
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    assert np.array_equal(centres, before)


def test_chord_lengths_work_space_gives_the_same_bits():
    rng = np.random.default_rng(5)
    seg = Segment2D(start=np.array([1.0, -3.0]), end=np.array([4.0, 9.0]))
    centres = rng.uniform(-5.0, 10.0, (64, 2))
    work = np.full((4, 100), np.nan)
    reused = chord_lengths(seg, centres, 1.5, work)
    assert np.shares_memory(reused, work)
    assert np.array_equal(reused, chord_lengths(seg, centres, 1.5))


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
    seg = Segment2D(start=np.array([ax, ay]), end=np.array([bx, by]))
    exact = float(chord_lengths(seg, np.array([[cx, cy]]), r)[0])
    ts = np.linspace(0.0, 1.0, 200_001)
    dx = (bx - ax) * ts + (ax - cx)
    dy = (by - ay) * ts + (ay - cy)
    est = np.count_nonzero(dx * dx + dy * dy <= r * r) / ts.size * seg.length
    assert abs(exact - est) <= max(2e-3 * r, 2.0 * seg.length / ts.size)


def test_path_intersections_order_and_positivity():
    centres = np.array([[10.0, 900.0], [10.0, 100.0], [500.0, 500.0]])
    seg = Segment2D(start=np.array([10.0, 0.0]), end=np.array([10.0, 1000.0]))
    chords = chord_lengths(seg, centres, 5.0)
    assert np.flatnonzero(chords > 0.0).tolist() == [0, 1]
    assert chords[:2] == pytest.approx([10.0, 10.0], rel=1e-12)
    assert chords[2] == 0.0
