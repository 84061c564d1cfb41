"""Exact geometry kernel for oriented (rotated) bounding boxes.

Angles are radians, counterclockwise-positive, normalized to [-pi/2, pi/2);
the box width runs along its local x-axis. All functions are pure and
thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Vertices closer than this are merged after clipping to avoid slivers.
MERGE_EPS = 1e-9
# Intersections smaller than this are reported as exactly zero.
AREA_EPS = 1e-12
# Boundary slack for containment tests: boundary points count as inside.
EDGE_EPS = 1e-9


class FieldError(ValueError):
    """A constructor argument that is rejected; field names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def normalize_angle(theta: float) -> float:
    """Map an angle to [-pi/2, pi/2); rectangles are pi-periodic."""
    return (theta + math.pi / 2.0) % math.pi - math.pi / 2.0


@dataclass(frozen=True)
class OrientedBox:
    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise FieldError(name, f"non-finite {name}: {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise FieldError("w" if self.w <= 0 else "h",
                             f"box extents must be positive, got w={self.w}, h={self.h}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)

    @property
    def area(self) -> float:
        return self.w * self.h

    def translated(self, dx: float, dy: float) -> "OrientedBox":
        return OrientedBox(self.cx + dx, self.cy + dy, self.w, self.h, self.theta)


@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise-ordered convex polygon."""

    vertices: tuple[tuple[float, float], ...]

    def area(self) -> float:
        return abs(shoelace(self.vertices))

    def is_convex(self) -> bool:
        n = len(self.vertices)
        if n < 3:
            return False
        for i in range(n):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % n]
            cx, cy = self.vertices[(i + 2) % n]
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < -MERGE_EPS:
                return False
        return True


def shoelace(vertices) -> float:
    """Signed area; positive for counterclockwise order."""
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * acc


def rotation_matrix(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix [[cos, -sin], [sin, cos]]."""
    if not math.isfinite(theta):
        raise ValueError(f"non-finite angle: {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def corners_of(b: OrientedBox) -> ConvexPolygon:
    """The four corners, counterclockwise: center + R(theta) @ (+-w/2, +-h/2)."""
    c, s = math.cos(b.theta), math.sin(b.theta)
    hw, hh = b.w / 2.0, b.h / 2.0
    local = ((hw, hh), (-hw, hh), (-hw, -hh), (hw, -hh))
    return ConvexPolygon(tuple(
        (b.cx + c * x - s * y, b.cy + s * x + c * y) for x, y in local
    ))


def point_in_obb(p: tuple[float, float], b: OrientedBox) -> bool:
    """True iff p lies inside the box; boundary points count as inside."""
    px, py = p
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError(f"non-finite point: {p!r}")
    c, s = math.cos(b.theta), math.sin(b.theta)
    dx, dy = px - b.cx, py - b.cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return abs(u) <= b.w / 2.0 + EDGE_EPS and abs(v) <= b.h / 2.0 + EDGE_EPS


def _clip_halfplane(vertices, ex1, ey1, ex2, ey2):
    """Keep the part of a polygon left of the directed edge (e1 -> e2)."""
    out = []
    n = len(vertices)
    if n == 0:
        return out
    edx, edy = ex2 - ex1, ey2 - ey1
    sx, sy = vertices[-1]
    s_in = edx * (sy - ey1) - edy * (sx - ex1) >= 0.0
    for px, py in vertices:
        p_in = edx * (py - ey1) - edy * (px - ex1) >= 0.0
        if p_in != s_in:
            # segment crosses the edge line; intersect
            denom = edx * (py - sy) - edy * (px - sx)
            if denom != 0.0:
                t = (edx * (ey1 - sy) - edy * (ex1 - sx)) / denom
                out.append((sx + t * (px - sx), sy + t * (py - sy)))
        if p_in:
            out.append((px, py))
        sx, sy, s_in = px, py, p_in
    return out


def _merge_close(vertices):
    if len(vertices) < 2:
        return vertices
    out = []
    for v in vertices:
        if out and math.hypot(v[0] - out[-1][0], v[1] - out[-1][1]) < MERGE_EPS:
            continue
        out.append(v)
    if len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) < MERGE_EPS:
        out.pop()
    return out


def intersect_polygon(a: OrientedBox, b: OrientedBox) -> ConvexPolygon:
    """Convex intersection of two boxes via Sutherland-Hodgman clipping."""
    verts = list(corners_of(a).vertices)
    clip = corners_of(b).vertices
    for i in range(4):
        x1, y1 = clip[i]
        x2, y2 = clip[(i + 1) % 4]
        verts = _clip_halfplane(verts, x1, y1, x2, y2)
        if not verts:
            break
    return ConvexPolygon(tuple(_merge_close(verts)))


def intersect_area(a: OrientedBox, b: OrientedBox) -> float:
    poly = intersect_polygon(a, b)
    if len(poly.vertices) < 3:
        return 0.0
    area = abs(shoelace(poly.vertices))
    if area < AREA_EPS:
        return 0.0
    return min(area, a.area, b.area)


def iou(a: OrientedBox, b: OrientedBox) -> float:
    inter = intersect_area(a, b)
    union = a.area + b.area - inter
    return inter / union


# iou_rows leaves to the scalar iou every row whose clipped polygon has two
# consecutive vertices (wrap included) closer than this. It is far above
# MERGE_EPS, so on every other row _merge_close drops no vertex.
SCALAR_GAP = 1e-6


def box_rows(boxes) -> np.ndarray:
    """(n, 6) array of rows cx, cy, w, h, cos(theta), sin(theta), one per box.

    The cosine and sine come from math.cos/math.sin, as corners_of takes
    them, so the corners built from a row equal corners_of bit for bit.
    """
    return np.array([(b.cx, b.cy, b.w, b.h, math.cos(b.theta),
                      math.sin(b.theta)) for b in boxes],
                    dtype=float).reshape(-1, 6)


def _corner_arrays(rows):
    """(xs, ys), each (n, 4): corners_of of every box row, same operations."""
    cx, cy, w, h, c, s = (rows[:, k, None] for k in range(6))
    hw, hh = w / 2.0, h / 2.0
    x = np.hstack([hw, -hw, -hw, hw])
    y = np.hstack([hh, hh, -hh, -hh])
    return (cx + c * x) - s * y, (cy + s * x) + c * y


def _clip_rows(xs, ys, n, ex1, ey1, ex2, ey2):
    """_clip_halfplane of every row polygon against its own edge.

    xs, ys: (rows, width) vertices, of which the first n[r] are row r's;
    e*: (rows, 1) edge ends. Each vertex emits, in order, the crossing into
    it (where its side differs from its predecessor's and the denominator
    is nonzero) and then itself if inside. Boolean indexing reads and fills
    in row-major order, so the emitted points keep that order.
    """
    rows, width = xs.shape
    edx, edy = ex2 - ex1, ey2 - ey1
    inside = edx * (ys - ey1) - edy * (xs - ex1) >= 0.0
    last = np.maximum(n - 1, 0)
    sx, sy, s_in = (np.hstack([a[np.arange(rows), last, None], a[:, :-1]])
                    for a in (xs, ys, inside))
    valid = np.arange(width) < n[:, None]
    denom = edx * (ys - sy) - edy * (xs - sx)
    t = (edx * (ey1 - sy) - edy * (ex1 - sx)) / denom
    emit = np.empty((rows, width, 2), dtype=bool)
    emit[:, :, 0] = valid & (inside != s_in) & (denom != 0.0)
    emit[:, :, 1] = valid & inside
    count = emit.sum(axis=(1, 2))
    kept = np.arange(max(int(count.max(initial=0)), 1)) < count[:, None]
    out = []
    for a, sa in ((xs, sx), (ys, sy)):
        points = np.empty((rows, width, 2))
        points[:, :, 0] = sa + t * (a - sa)
        points[:, :, 1] = a
        o = np.zeros(kept.shape)
        o[kept] = points[emit]
        out.append(o)
    return out[0], out[1], count


def _ring(a, n):
    """a shifted left by one vertex within each row's first n vertices:
    column i holds vertex (i + 1) % n."""
    nxt = np.hstack([a[:, 1:], a[:, :1]])
    width = a.shape[1]
    wrap = np.arange(width) + 1 >= n[:, None]
    return np.where(wrap, a[:, :1], nxt)


def iou_rows(a: np.ndarray, b: np.ndarray):
    """iou of each pair of box_rows rows (a[k], b[k]), vectorized.

    Repeats corners_of, intersect_polygon, shoelace, intersect_area and iou
    operation for operation, so each value equals the scalar iou bit for
    bit. Returns (values, scalar): rows where scalar is True, where the
    scalar path's _merge_close could drop a vertex or its division would
    raise, hold no value and must be computed with iou.
    """
    if not len(a):
        return np.zeros(0), np.zeros(0, dtype=bool)
    xs, ys = _corner_arrays(a)
    bx, by = _corner_arrays(b)
    n = np.full(len(a), 4)
    with np.errstate(all="ignore"):
        for i in range(4):
            j = (i + 1) % 4
            xs, ys, n = _clip_rows(xs, ys, n, bx[:, i, None], by[:, i, None],
                                   bx[:, j, None], by[:, j, None])
        valid = np.arange(xs.shape[1]) < n[:, None]
        nx, ny = _ring(xs, n), _ring(ys, n)
        gx, gy = nx - xs, ny - ys
        close = (valid & (gx * gx + gy * gy < SCALAR_GAP ** 2)).any(axis=1)
        acc = np.zeros(len(a))
        for i in range(xs.shape[1]):
            term = xs[:, i] * ny[:, i] - nx[:, i] * ys[:, i]
            acc = np.where(valid[:, i], acc + term, acc)
        area = np.abs(0.5 * acc)
        a_area, b_area = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
        smallest = np.where(a_area < area, a_area, area)
        smallest = np.where(b_area < smallest, b_area, smallest)
        inter = np.where((n < 3) | (area < AREA_EPS), 0.0, smallest)
        union = (a_area + b_area) - inter
        values = inter / union
    scalar = ((n >= 3) & close) | (union == 0.0)
    return values, scalar


def iou_batch(a_boxes, b_boxes) -> list[float]:
    """[iou(a, b) for a, b in zip(a_boxes, b_boxes)], bit for bit, computed
    in one vectorized pass; rows iou_rows cannot settle go to iou."""
    if len(a_boxes) != len(b_boxes):
        raise ValueError(
            f"box lists differ in length: {len(a_boxes)} and {len(b_boxes)}")
    values, scalar = iou_rows(box_rows(a_boxes), box_rows(b_boxes))
    out = values.tolist()
    for k in np.flatnonzero(scalar).tolist():
        out[k] = iou(a_boxes[k], b_boxes[k])
    return out


def raster_iou_oracle(a: OrientedBox, b: OrientedBox, resolution: int = 512) -> float:
    """IoU estimated by point sampling over the pair's bounding rectangle.

    Independent of the clipping path: membership is tested per grid point.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    pts = corners_of(a).vertices + corners_of(b).vertices
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        return 0.0
    gx = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    gy = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    X, Y = np.meshgrid(gx, gy)

    def mask(box):
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx, dy = X - box.cx, Y - box.cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= box.w / 2.0) & (np.abs(v) <= box.h / 2.0)

    in_a = mask(a)
    in_b = mask(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union
