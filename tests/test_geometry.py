import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.geometry import (MERGE_EPS, OrientedBox, corners_of,
                                intersect_area, iou, normalize_angle,
                                point_in_obb, raster_iou_oracle,
                                rotation_matrix, shoelace)


def is_convex(vertices):
    """True if every turn of a vertex ring is counterclockwise, to within
    MERGE_EPS."""
    n = len(vertices)
    if n < 3:
        return False
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cx, cy = vertices[(i + 2) % n]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < -MERGE_EPS:
            return False
    return True


def random_box(rng, lo=4.0, hi=128.0, span=200.0):
    return OrientedBox(rng.uniform(-span, span), rng.uniform(-span, span),
                       rng.uniform(lo, hi), rng.uniform(lo, hi),
                       rng.uniform(-math.pi / 2, math.pi / 2))


class TestOrientedBox:
    def test_rejects_degenerate_extents(self):
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 0, 1, 0)
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 1, -2, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OrientedBox(math.nan, 0, 1, 1, 0)

    def test_angle_normalized(self):
        assert OrientedBox(0, 0, 1, 1, math.pi).theta == pytest.approx(0.0)
        assert OrientedBox(0, 0, 1, 1, math.pi / 2).theta == pytest.approx(-math.pi / 2)
        assert -math.pi / 2 <= OrientedBox(0, 0, 1, 1, 100.0).theta < math.pi / 2

    def test_normalization_preserves_corner_set(self):
        a = OrientedBox(3, 4, 6, 2, 0.3)
        b = OrientedBox(3, 4, 6, 2, 0.3 + math.pi)
        ca = sorted(corners_of(a))
        cb = sorted(corners_of(b))
        for (x1, y1), (x2, y2) in zip(ca, cb):
            assert math.hypot(x1 - x2, y1 - y2) < 1e-9


def _ulps_from(x, n):
    """x moved n ulps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# the ends of the range and their multiples, where the sum and the
# remainder round; huge values, whose remainder is all rounding; subnormals
angles = st.one_of(
    st.just(-0.0),
    st.builds(_ulps_from, st.sampled_from([k * math.pi / 2
                                           for k in range(-6, 7)]),
              st.integers(-4, 4)),
    st.sampled_from([1e16, -1e16]),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None)
@given(st.lists(angles, min_size=1, max_size=16))
def test_normalize_angle_of_array_equals_scalar(thetas):
    got = normalize_angle(np.array(thetas, dtype=np.float64)).tolist()
    want = [normalize_angle(t) for t in thetas]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert all(-math.pi / 2 <= v <= math.pi / 2 for v in want)


def test_normalize_angle_range_is_closed():
    # a sum just below 0 leaves a remainder that rounds to pi
    below = math.nextafter(-math.pi / 2, -4)
    assert normalize_angle(below) == math.pi / 2
    assert normalize_angle(math.pi / 2) == -math.pi / 2


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        v = rotation_matrix(math.pi / 2) @ np.array([1.0, 0.0])
        assert np.allclose(v, [0.0, 1.0])

    def test_eighth_turn(self):
        v = rotation_matrix(math.pi / 4) @ np.array([1.0, 0.0])
        assert np.allclose(v, [math.sqrt(2) / 2, math.sqrt(2) / 2])

    def test_determinant_one(self):
        for theta in np.linspace(-3, 3, 17):
            assert np.linalg.det(rotation_matrix(theta)) == pytest.approx(1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rotation_matrix(math.inf)


class TestCorners:
    def test_axis_aligned(self):
        got = set(corners_of(OrientedBox(0, 0, 2, 2, 0)))
        assert got == {(1, 1), (-1, 1), (-1, -1), (1, -1)}

    def test_quarter_turn_swaps_extents(self):
        got = corners_of(OrientedBox(0, 0, 2, 1, math.pi / 2))
        want = {(0.5, 1), (-0.5, 1), (-0.5, -1), (0.5, -1)}
        for x, y in got:
            assert any(math.hypot(x - wx, y - wy) < 1e-9 for wx, wy in want)

    def test_rotated_matches_matrix_product(self):
        b = OrientedBox(5, 5, 4, 2, math.pi / 4)
        R = rotation_matrix(math.pi / 4)
        got = corners_of(b)
        for lx, ly in ((2, 1), (-2, 1), (-2, -1), (2, -1)):
            x, y = np.array([5.0, 5.0]) + R @ np.array([lx, ly])
            assert any(math.hypot(gx - x, gy - y) < 1e-9 for gx, gy in got)

    def test_counterclockwise_and_convex(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            poly = corners_of(random_box(rng))
            assert shoelace(poly) > 0
            assert is_convex(poly)

    def test_shoelace_area_equals_wh(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            b = random_box(rng)
            assert abs(shoelace(corners_of(b))) == pytest.approx(b.w * b.h,
                                                                 rel=1e-9)


class TestPointInObb:
    def test_center_inside(self):
        b = OrientedBox(3, -2, 5, 2, 0.7)
        assert point_in_obb(b.center, b)

    def test_outside_circumscribed_circle(self):
        b = OrientedBox(0, 0, 4, 2, 0.3)
        r = math.hypot(4, 2) / 2
        assert not point_in_obb((r + 1.0, r + 1.0), b)

    def test_rotated_containment(self):
        b = OrientedBox(0, 0, 4, 2, math.pi / 2)
        assert point_in_obb((0.9, 1.9), b)
        assert not point_in_obb((1.1, 1.9), b)

    def test_edge_midpoints_inside(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            b = random_box(rng)
            vs = corners_of(b)
            for i in range(4):
                x1, y1 = vs[i]
                x2, y2 = vs[(i + 1) % 4]
                assert point_in_obb(((x1 + x2) / 2, (y1 + y2) / 2), b)

    def test_agrees_with_raster_style_check(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            b = random_box(rng, lo=4, hi=40, span=50)
            p = (rng.uniform(-80, 80), rng.uniform(-80, 80))
            c, s = math.cos(b.theta), math.sin(b.theta)
            u = c * (p[0] - b.cx) + s * (p[1] - b.cy)
            v = -s * (p[0] - b.cx) + c * (p[1] - b.cy)
            # skip points too close to the boundary to classify robustly
            if abs(abs(u) - b.w / 2) < 1e-6 or abs(abs(v) - b.h / 2) < 1e-6:
                continue
            want = abs(u) <= b.w / 2 and abs(v) <= b.h / 2
            assert point_in_obb(p, b) == want


class TestIntersectionAndIou:
    def test_self_intersection(self):
        b = OrientedBox(1, 2, 3, 4, 0.5)
        assert intersect_area(b, b) == pytest.approx(12.0, rel=1e-9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(1000, 0, 1, 1, 0)
        assert intersect_area(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_half_overlap_unit_squares(self):
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(0.5, 0, 1, 1, 0)
        assert intersect_area(a, b) == pytest.approx(0.5, rel=1e-9)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-9)
        oracle = raster_iou_oracle(a, b, 1024)
        assert abs(intersect_area(a, b) / 0.5 - 1.0) < 0.005
        assert abs(iou(a, b) - oracle) < 0.005

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v1, v2 = iou(a, b), iou(b, a)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert 0.0 <= v1 <= 1.0
            assert intersect_area(a, b) <= min(a.area, b.area) + 1e-9

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            base = iou(a, b)
            dx, dy, phi = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-3, 3)
            c, s = math.cos(phi), math.sin(phi)

            def move(box):
                x = c * box.cx - s * box.cy + dx
                y = s * box.cx + c * box.cy + dy
                return OrientedBox(x, y, box.w, box.h, box.theta + phi)

            assert abs(iou(move(a), move(b)) - base) < 1e-9

    def test_matches_raster_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = random_box(rng, span=100)
            b = OrientedBox(a.cx + rng.uniform(-60, 60), a.cy + rng.uniform(-60, 60),
                            rng.uniform(4, 128), rng.uniform(4, 128),
                            rng.uniform(-math.pi / 2, math.pi / 2))
            assert abs(iou(a, b) - raster_iou_oracle(a, b, 512)) <= 0.02


class TestRasterOracle:
    def test_identical_boxes(self):
        b = OrientedBox(10, 10, 8, 3, 0.4)
        assert raster_iou_oracle(b, b, 256) == pytest.approx(1.0, abs=1 / 256)

    def test_disjoint(self):
        a = OrientedBox(0, 0, 4, 4, 0)
        b = OrientedBox(100, 100, 4, 4, 0.3)
        assert raster_iou_oracle(a, b, 128) == 0.0

    def test_resolution_floor(self):
        b = OrientedBox(0, 0, 4, 4, 0)
        with pytest.raises(ValueError):
            raster_iou_oracle(b, b, 32)


coords = st.floats(-1000.0, 1000.0)
extents = st.floats(0.01, 500.0)
obbs = st.builds(OrientedBox, coords, coords, extents, extents,
                 st.floats(-4.0, 4.0))


def _rounding_bound(*boxes):
    """How far two clippings of the same overlap can round apart: vertex
    errors of a few ulps of the largest coordinate, which the area of the
    thinnest box magnifies."""
    scale = max(abs(b.cx) + abs(b.cy) + b.w + b.h for b in boxes)
    side = min(min(b.w, b.h) for b in boxes)
    return 8 * sys.float_info.epsilon * (scale / side) ** 2


@settings(max_examples=500, deadline=None)
@given(obbs, obbs)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert abs(v - iou(b, a)) <= _rounding_bound(a, b)


@settings(max_examples=300, deadline=None)
@given(obbs)
def test_iou_with_itself_is_one(a):
    assert abs(iou(a, a) - 1.0) <= _rounding_bound(a)
