"""Exact geometry kernel for oriented (rotated) bounding boxes.

Angles are radians, counterclockwise-positive, normalized once to [-pi/2,
pi/2) (normalize_angle is idempotent); the box width runs along its local
x-axis. All functions are pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress

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


def normalize_angle(theta):
    """Map an angle, or each angle of a float64 array, to [-pi/2, pi/2);
    rectangles are pi-periodic. Each angle of an array gets the bits of the
    scalar call: np.remainder takes fmod and the divisor's sign as float %
    does.

    The second % maps a remainder that rounds up to pi (theta + pi/2 a
    tiny negative number) to 0, so to -pi/2, and keeps every other, in
    [0, pi), bit for bit: a normalized angle normalizes to itself. A test
    for pi/2 instead would cast bools to float (a resident 64 KB buffer).
    """
    return (theta + math.pi / 2.0) % math.pi % math.pi - math.pi / 2.0


@dataclass(frozen=True, slots=True)
class OrientedBox:
    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            v = getattr(self, name)
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int beyond the float range
                raise FieldError(name, f"{name} out of float range") from None
            if not finite:
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


def corners_of(b: OrientedBox) -> tuple[tuple[float, float], ...]:
    """The four corners, counterclockwise: center + R(theta) @ (+-w/2, +-h/2)."""
    c, s = math.cos(b.theta), math.sin(b.theta)
    hw, hh = b.w / 2.0, b.h / 2.0
    local = ((hw, hh), (-hw, hh), (-hw, -hh), (hw, -hh))
    return tuple(
        (b.cx + c * x - s * y, b.cy + s * x + c * y) for x, y in local
    )


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


def intersect_polygon(a: OrientedBox,
                      b: OrientedBox) -> tuple[tuple[float, float], ...]:
    """Vertices of the convex intersection of two boxes, counterclockwise,
    via Sutherland-Hodgman clipping."""
    verts = list(corners_of(a))
    clip = corners_of(b)
    for i in range(4):
        x1, y1 = clip[i]
        x2, y2 = clip[(i + 1) % 4]
        verts = _clip_halfplane(verts, x1, y1, x2, y2)
        if not verts:
            break
    return tuple(_merge_close(verts))


def intersect_area(a: OrientedBox, b: OrientedBox) -> float:
    poly = intersect_polygon(a, b)
    if len(poly) < 3:
        return 0.0
    area = abs(shoelace(poly))
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


def field_rows(fields, theta) -> np.ndarray:
    """(n, 6) float64 rows cx, cy, w, h, cos(theta), sin(theta) of an (n, 4)
    array of box fields and a float64 array of normalized thetas. The
    cosine and sine come from math.cos/math.sin, as corners_of takes them,
    so the corners built from a row equal corners_of bit for bit."""
    rows = np.empty((len(theta), 6))
    rows[:, :4] = fields
    angles = theta.tolist()
    rows[:, 4] = np.fromiter(map(math.cos, angles), float, len(angles))
    rows[:, 5] = np.fromiter(map(math.sin, angles), float, len(angles))
    return rows


@dataclass(frozen=True)
class BoxColumns:
    """Boxes with ids, as the columns a pair table reads.

    Box k has id ids[k], field_rows row rows[k] and theta theta[k],
    normalized, in a float64 array.
    """
    ids: list
    rows: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def box(self, k) -> OrientedBox:
        """The OrientedBox of box k, with the float fields of its row and
        its theta, which normalizes to itself."""
        return OrientedBox(*self.rows[k, :4].tolist(), float(self.theta[k]))

    def select(self, mask) -> "BoxColumns":
        """The columns of the boxes where mask, a list of bools, is True."""
        return BoxColumns(list(compress(self.ids, mask)),
                          self.rows[mask], self.theta[mask])


def box_columns(ids, boxes) -> BoxColumns:
    """The BoxColumns of boxes, OrientedBoxes, with the ids ids."""
    theta = np.array([b.theta for b in boxes], dtype=float)
    fields = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float)
    return BoxColumns(list(ids), field_rows(fields.reshape(-1, 4), theta),
                      theta)


def concat_columns(parts) -> BoxColumns:
    """The BoxColumns of the boxes of parts, one after another."""
    return BoxColumns(list(chain.from_iterable(p.ids for p in parts)),
                      np.concatenate([p.rows for p in parts]),
                      np.concatenate([p.theta for p in parts]))


def _corner_arrays(rows):
    """(xs, ys), each (n, 4): corners_of of every box row. corners_of's
    products with -w/2 and -h/2 are the negated products with w/2 and h/2,
    and adding a negated term is subtracting it, so each product is taken
    once and each corner has corners_of's value bit for bit."""
    cx, cy, w, h, c, s = rows.T
    hw, hh = w / 2.0, h / 2.0
    cw, sw, ch, sh = c * hw, s * hw, c * hh, s * hh
    xp, xm, yp, ym = cx + cw, cx - cw, cy + sw, cy - sw
    xs, ys = np.empty((len(rows), 4)), np.empty((len(rows), 4))
    for k, (x, dx, y, dy) in enumerate(((xp, -sh, yp, ch), (xm, -sh, ym, ch),
                                         (xm, sh, ym, -ch), (xp, sh, yp, -ch))):
        np.add(x, dx, out=xs[:, k])
        np.add(y, dy, out=ys[:, k])
    return xs, ys


def _clip_rows(xs, ys, n, ex1, ey1, ex2, ey2):
    """_clip_halfplane of every row polygon against its own edge.

    xs, ys: (rows, width) vertices, of which the first n[r] are row r's and
    the rest repeat its last one; e*: (rows,) edge ends. Returns the
    clipped polygons in the same layout, and their vertex counts.

    Each vertex emits, in order, the crossing into it (where its side
    differs from its predecessor's and the denominator is nonzero) and then
    itself if inside. The side test runs on every vertex; the denominator
    and the crossing point only where the side changes, which the repeated
    last vertex never does, and which column 0 finds against the last
    column. The emitted points are gathered in row-major order.
    """
    rows, width = xs.shape
    edx, edy = ex2 - ex1, ey2 - ey1
    inside = (edx[:, None] * (ys - ey1[:, None])
              - edy[:, None] * (xs - ex1[:, None]) >= 0.0)
    s_in = np.empty_like(inside)
    s_in[:, 1:] = inside[:, :-1]
    s_in[:, 0] = inside[:, -1]
    # the vertices whose side changes, as flat indices, and their predecessors
    f = np.flatnonzero(inside != s_in)
    r, i = np.divmod(f, width)
    fs = np.where(i > 0, f - 1, f + (width - 1))
    px, py, sx, sy = xs.take(f), ys.take(f), xs.take(fs), ys.take(fs)
    dx, dy, x1, y1 = edx[r], edy[r], ex1[r], ey1[r]
    denom = dx * (py - sy) - dy * (px - sx)
    t = (dx * (y1 - sy) - dy * (x1 - sx)) / denom
    # emit[r, i] holds vertex i's crossing, then vertex i itself
    emit = np.zeros((rows, width, 2), dtype=bool)
    emit.reshape(-1)[2 * f] = denom != 0.0
    np.logical_and(np.arange(width) < n[:, None], inside, out=emit[:, :, 1])
    slots = np.flatnonzero(emit)
    count = np.bincount(slots // (2 * width), minlength=rows)
    if not len(slots):
        return np.zeros((rows, 1)), np.zeros((rows, 1)), count
    # each row's emitted slots, its last one repeated up to the widest row
    first = np.cumsum(count) - count
    at = slots[first[:, None]
               + np.minimum(np.arange(count.max()), count[:, None] - 1)]
    out = []
    for a, p, s in ((xs, px, sx), (ys, py, sy)):
        points = np.empty((rows, width, 2))
        points[:, :, 1] = a
        points.reshape(-1)[2 * f] = s + t * (p - s)
        out.append(points.take(at))
    return out[0], out[1], count


def iou_rows(a: np.ndarray, b: np.ndarray):
    """iou of each pair of field_rows rows (a[k], b[k]), vectorized.

    Repeats corners_of, intersect_polygon, shoelace, intersect_area and iou
    operation for operation, so each value equals the scalar iou bit for
    bit: _corner_arrays gives the corners, four _clip_rows passes the
    clipped polygon, and the shoelace sum adds each row's terms in vertex
    order from 0.0 (the columns past a row's last vertex add 0.0, which
    can change only the sign of a zero sum, whose absolute value is the
    area). Returns (values, scalar): rows where scalar is True, where the
    scalar path's _merge_close could drop a vertex or its division would
    raise, hold no value and must be computed with iou.
    """
    if not len(a):
        return np.zeros(0), np.zeros(0, dtype=bool)
    n = np.full(len(a), 4)
    with np.errstate(all="ignore"):
        xs, ys = _corner_arrays(a)
        bx, by = _corner_arrays(b)
        for i in range(4):
            j = (i + 1) % 4
            xs, ys, n = _clip_rows(xs, ys, n, bx[:, i], by[:, i],
                                   bx[:, j], by[:, j])
        rows, width = xs.shape
        col = np.arange(width)
        valid = col < n[:, None]
        # vertex i's successor within its row's first n: vertex (i + 1) % n
        succ = (np.where(col + 1 < n[:, None], col + 1, 0)
                + width * np.arange(rows)[:, None])
        nx, ny = xs.take(succ), ys.take(succ)
        gx, gy = nx - xs, ny - ys
        close = (valid & (gx * gx + gy * gy < SCALAR_GAP ** 2)).any(axis=1)
        acc = np.zeros(len(a))
        for term in np.where(valid, xs * ny - nx * ys, 0.0).T:
            acc += term
        area = np.abs(0.5 * acc)
        a_area, b_area = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
        smallest = np.where(a_area < area, a_area, area)
        smallest = np.where(b_area < smallest, b_area, smallest)
        inter = np.where((n < 3) | (area < AREA_EPS), 0.0, smallest)
        union = (a_area + b_area) - inter
        values = inter / union
    scalar = ((n >= 3) & close) | (union == 0.0)
    return values, scalar


def raster_iou_oracle(a: OrientedBox, b: OrientedBox, resolution: int = 512) -> float:
    """IoU estimated by point sampling over the pair's bounding rectangle.

    Independent of the clipping path: membership is tested per grid point.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    pts = corners_of(a) + corners_of(b)
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
