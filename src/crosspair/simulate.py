"""Synthetic misalignment world.

Generates paired IR/RGB oriented-box scenes with a hidden correspondence
(every RGB observation of a real object is its IR partner translated by
the scene's true offset plus bounded jitter), and a closed-form simulated
detector whose only learnable geometric parameter is its belief of the
cross-modality offset.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from .filtering import PROB_SUM_TOL, ScoredBox
from .geometry import (BoxColumns, FieldError, OrientedBox, box_columns,
                       field_rows, normalize_angle)

SPURIOUS = -1


@dataclass(frozen=True)
class ObservedBox(ScoredBox):
    """RGB observation; corr_id links back to the IR source (-1 = spurious)."""
    corr_id: int = SPURIOUS


@dataclass(frozen=True)
class Scene:
    scene_id: int
    canvas: tuple[int, int]
    true_offset: tuple[float, float]
    ir_gt: tuple[tuple[int, OrientedBox, int], ...]  # (id, box, class_id)
    rgb_obs: tuple[ObservedBox, ...]

    @property
    def ir_boxes(self):
        return [(i, b) for i, b, _ in self.ir_gt]

    @property
    def class_count(self) -> int:
        """Length of the RGB class probability vectors. A scene without RGB
        observations has 5 classes, SceneConfig's default, or as many as
        its highest IR class needs."""
        if self.rgb_obs:
            return len(self.rgb_obs[0].class_probs)
        return max([5] + [c + 1 for _, _, c in self.ir_gt])

    @property
    def corr_map(self) -> dict[int, int]:
        """rgb observation id -> ir id (spurious entries excluded)."""
        return {o.source_id: o.corr_id for o in self.rgb_obs if o.corr_id != SPURIOUS}

    @cached_property
    def item_columns(self):
        """(ir ids, ir boxes, rgb ids, rgb boxes): the ids and boxes of
        ir_gt and of rgb_obs as tuples, built once, for the Detections of
        the scene and the LabelTable that holds it."""
        return (tuple([i for i, _, _ in self.ir_gt]),
                tuple([b for _, b, _ in self.ir_gt]),
                tuple([o.source_id for o in self.rgb_obs]),
                tuple([o.box for o in self.rgb_obs]))


@dataclass(frozen=True)
class SceneConfig:
    count: int = 100
    boxes_per_scene: int = 8
    canvas: tuple[int, int] = (640, 640)
    shift_max: float = 15.0
    jitter: float = 0.0
    angle_jitter: float = 0.0
    dropout_rate: float = 0.0
    spurious_rate: float = 0.0
    class_count: int = 5
    seed: int = 0
    size_range: tuple[float, float] = (8.0, 40.0)
    confidence_noise: float = 0.1
    offset_override: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("dropout_rate", "spurious_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.size_range[0] < 4.0:
            raise ValueError("boxes must be at least 4 px")


class GenerationError(RuntimeError):
    """Rejection sampling could not pack the requested boxes."""


def _true_class_probs(rng, class_count, true_class, confidence_noise):
    """Probabilities whose argmax is the true class unless noise dominates."""
    mix = min(1.0, rng.uniform(0.0, 2.0 * confidence_noise))
    flat = rng.dirichlet(np.ones(class_count))
    probs = (1.0 - mix) * np.eye(class_count)[true_class] + mix * flat
    return tuple(float(p) for p in probs / probs.sum())


def _spurious_probs(rng, class_count):
    return tuple(float(p) for p in rng.dirichlet(np.ones(class_count)))


def _scene_rng(cfg: SceneConfig, index: int):
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))


def _override(offset) -> tuple[float, float]:
    return float(offset[0]), float(offset[1])


def generate_scene(cfg: SceneConfig, index: int) -> Scene:
    rng = _scene_rng(cfg, index)
    if cfg.offset_override is not None:
        offset = _override(cfg.offset_override)
    else:
        offset = tuple(float(v) for v in rng.uniform(-cfg.shift_max, cfg.shift_max, 2))
    return _observed_scene(cfg, index, rng, offset,
                           _placed_ir(cfg, index, rng))


def _placed_ir(cfg: SceneConfig, index: int, rng):
    """The ir_gt of scene index: boxes placed by rejection sampling from
    rng, apart by more than the offset and jitter could close."""
    W, H = cfg.canvas
    gap = cfg.shift_max + 2.0 * cfg.jitter + 1.0

    placed = []  # (cx, cy, circumradius)
    ir_gt = []
    budget = 10 * cfg.boxes_per_scene
    attempts = 0
    while len(ir_gt) < cfg.boxes_per_scene:
        if attempts >= budget:
            raise GenerationError(
                f"scene {index}: placed {len(ir_gt)}/{cfg.boxes_per_scene} boxes "
                f"in {budget} attempts; canvas too crowded")
        attempts += 1
        w, h = rng.uniform(*cfg.size_range, 2)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        r = math.hypot(w, h) / 2.0
        margin = r + cfg.shift_max + cfg.jitter
        if 2 * margin >= min(W, H):
            raise GenerationError(f"scene {index}: boxes too large for canvas")
        cx = rng.uniform(margin, W - margin)
        cy = rng.uniform(margin, H - margin)
        if any(math.hypot(cx - px, cy - py) < r + pr + gap for px, py, pr in placed):
            continue
        placed.append((cx, cy, r))
        box_id = len(ir_gt)
        cls = int(rng.integers(cfg.class_count))
        ir_gt.append((box_id, OrientedBox(cx, cy, w, h, theta), cls))
    return tuple(ir_gt)


def _observed_scene(cfg: SceneConfig, index: int, rng, offset, ir_gt):
    """Scene index with the IR boxes ir_gt and the RGB observations drawn
    from rng: each IR box moved by offset plus jitter unless dropped, then
    the spurious boxes."""
    W, H = cfg.canvas
    obs = []
    next_id = 0
    for ir_id, box, cls in ir_gt:
        if rng.random() < cfg.dropout_rate:
            continue
        nx, ny = rng.uniform(-cfg.jitter, cfg.jitter, 2)
        dth = rng.uniform(-cfg.angle_jitter, cfg.angle_jitter) if cfg.angle_jitter else 0.0
        moved = OrientedBox(box.cx + offset[0] + nx, box.cy + offset[1] + ny,
                            box.w, box.h, box.theta + dth)
        obs.append(ObservedBox(moved, _true_class_probs(rng, cfg.class_count, cls,
                                                        cfg.confidence_noise),
                               next_id, corr_id=ir_id))
        next_id += 1
    n_spurious = int(rng.binomial(cfg.boxes_per_scene, cfg.spurious_rate))
    for _ in range(n_spurious):
        w, h = rng.uniform(*cfg.size_range, 2)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        r = math.hypot(w, h) / 2.0
        cx = rng.uniform(r, W - r)
        cy = rng.uniform(r, H - r)
        obs.append(ObservedBox(OrientedBox(cx, cy, w, h, theta),
                               _spurious_probs(rng, cfg.class_count),
                               next_id, corr_id=SPURIOUS))
        next_id += 1
    return Scene(index, (W, H), offset, ir_gt, tuple(obs))


def generate_scenes(cfg: SceneConfig):
    """Deterministic scene stream; per-scene seeds derived from (seed, index)."""
    return [generate_scene(cfg, i) for i in range(cfg.count)]


def shifted_scenes(cfg: SceneConfig, offsets):
    """For each offset of offsets, the scenes of
    generate_scenes(replace(cfg, offset_override=offset)), whatever
    cfg.offset_override is.

    An offset override draws nothing from a scene's generator, and the IR
    boxes are placed before any draw the offset moves, so each scene's
    boxes are placed once, and each offset's scenes continue from a copy of
    the generator state left after the placement.
    """
    placed = []
    for index in range(cfg.count):
        rng = _scene_rng(cfg, index)
        placed.append((_placed_ir(cfg, index, rng), rng.bit_generator.state))
    for offset in offsets:
        offset = _override(offset)
        scenes = []
        for index, (ir_gt, state) in enumerate(placed):
            bits = np.random.PCG64()
            bits.state = state
            scenes.append(_observed_scene(cfg, index, np.random.Generator(bits),
                                          offset, ir_gt))
        yield scenes


# ---------------------------------------------------------------------------
# Simulated detector


@dataclass(frozen=True)
class SimDetectorParams:
    offset_estimate: tuple[float, float] = (0.0, 0.0)
    confidence_noise: float = 0.1

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.offset_estimate):
            raise ValueError("non-finite offset estimate")

    def as_vector(self) -> np.ndarray:
        return np.array(self.offset_estimate, dtype=float)


# Keyed detector noise: each uniform is a SplitMix64 hash (Steele, Lea and
# Flood, OOPSLA 2014) of its key, a counter-based stream in the manner of
# Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
_MODALITY_CODE = {"ir": 1, "rgb": 2}
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U64 = (1 << 64) - 1


def _mix(x):
    """SplitMix64 of a uint64 array, in a new array: add the golden gamma,
    then the finalizer. Arithmetic wraps modulo 2**64."""
    x = x + _GAMMA
    x ^= x >> 30
    x *= _MUL1
    x ^= x >> 27
    x *= _MUL2
    x ^= x >> 31
    return x


def _uniform(h):
    """Doubles in (0, 1) of uint64 hashes: the top 52 bits plus one half,
    times 2**-52, from 2**-53 to 1 - 2**-53. (With 53 bits, the largest
    hash would give 2**53 - 0.5, which rounds to 2**53 and so to 1.0.)"""
    return ((h >> 12).astype(np.float64) + 0.5) * 2.0 ** -52


@lru_cache(maxsize=64)
def _one_hot(k, cls):
    """The one-hot row of class cls of k; IndexError when cls is not in
    [-k, k), as indexing a table of the rows would raise. Cached, so that
    the boxes of one class share their row."""
    row = [0.0] * k
    row[cls] = 1.0
    return tuple(row)


def _clean_rows(scene: Scene, modality: str):
    """The class probability rows of a scene's boxes before noise."""
    if modality == "ir":
        k = scene.class_count
        return [_one_hot(k, cls) for _, _, cls in scene.ir_gt]
    return [o.class_probs for o in scene.rgb_obs]


def perturbed_rows(scenes, modality: str, scale: float, salt: int = 0):
    """Per scene, (rows, scores): the class probabilities of its detections
    in one modality, a float64 array with a row per box, and their maxima.

    The clean rows are the one-hot classes of scene.ir_gt ("ir") or the
    class_probs of scene.rgb_obs ("rgb"), of one length per scene. A row p
    of k classes becomes ((1 - m) p + m d) / total: d is a flat Dirichlet
    draw, the spacings of the sorted uniforms u_1 .. u_(k-1) on [0, 1],
    m = min(1, scale u_0), and total is the sum of the mixed row, added left
    to right. Uniform j of box b is a pure function of (scene_id, salt,
    modality, b, j), a SplitMix64 hash in wrapping uint64, so a scene's rows
    are the same bit for bit alone or in any batch, in any order, and its IR
    and RGB rows draw apart. Only correctly rounded float operations and a
    sort touch the uniforms, so the bits do not depend on numpy's SIMD code
    paths. With scale <= 0 the rows are the clean rows. Every row holds
    floats in [0, 1] that add up to 1 within rounding, as ScoredBox accepts.

    To draw the same scenes many times, build one NoiseRows and call its
    rows for each (scale, salt).
    """
    return list(NoiseRows(scenes, modality).rows(scale, salt))


class NoiseRows:
    """The keyed noise of fixed scenes in one modality, drawn many times.

    From its first draw or flat_index call on, it holds what no draw
    changes: the clean rows as one float64 array per class count, each
    box's scene and box index, each scene's place in those arrays, and each
    scene's base key. Each rows call is one draw.
    """
    __slots__ = ("_scenes", "_modality", "_arrays")

    def __init__(self, scenes, modality: str):
        if modality not in _MODALITY_CODE:
            raise ValueError(f"unknown modality: {modality!r}")
        self._scenes = tuple(scenes)
        self._modality = modality
        self._arrays = None

    def rows(self, scale: float, salt: int = 0) -> NoiseDraw:
        """The items of perturbed_rows(scenes, modality, scale, salt), one
        scene at a time, in new arrays on every call. The noise of all
        scenes is mixed in numpy at once, here."""
        base, groups, places, size = self._layout()
        scene_key = _mix(_mix(base ^ np.uint64(salt & _U64))
                         ^ np.uint64(_MODALITY_CODE[self._modality]))
        values = np.empty(size)
        drawn = {None: (np.zeros((0, 0)), np.zeros(0))}
        for k, (clean, scene_of, box_of, v) in groups.items():
            rows = values[v:v + clean.size].reshape(clean.shape)
            if scale <= 0:
                rows[...] = clean
            else:
                _mixed_rows(clean, _mix(scene_key[scene_of] ^ box_of), scale,
                            rows)
            # the maxima of rows.max(axis=1), a column at a time
            scores = rows[:, 0].copy()
            for j in range(1, k):
                np.maximum(scores, rows[:, j], out=scores)
            drawn[k] = rows, scores
        draw = NoiseDraw((drawn[k][0][a:b] for k, a, b in places),
                         (drawn[k][1][a:b] for k, a, b in places))
        draw.values = values
        return draw

    def flat_index(self, picks):
        """The positions in a draw's values of the entries picks names, per
        scene an iterable of (row, column), as an intp array. A column in
        [-k, 0) of a row of k entries counts from the end, as in indexing."""
        groups, places = self._layout()[1:3]
        return np.fromiter((groups[k][3] + (a + row) * k + col % k
                            for (k, a, _), entries in zip(places, picks)
                            for row, col in entries), dtype=np.intp)

    def _layout(self):
        if self._arrays is None:
            self._arrays = self._columns()
        return self._arrays

    def _columns(self):
        """(base keys, per class count k the (clean rows, scene index, box
        index) of the boxes of k classes and the position of their first row
        in a draw's values, per scene its (k, start, stop) in them, k None for
        a scene without boxes, and the size of values)."""
        groups, places = {}, []
        for i, scene in enumerate(self._scenes):
            rows = _clean_rows(scene, self._modality)
            widths = sorted(set(map(len, rows)))
            if len(widths) != 1:
                if widths:
                    raise ValueError(f"scene {scene.scene_id}: class "
                                     f"probability rows of {widths} entries")
                places.append((None, 0, 0))
                continue
            clean, scene_of, box_of = groups.setdefault(widths[0], ([], [], []))
            places.append((widths[0], len(clean), len(clean) + len(rows)))
            clean += rows
            scene_of += [i] * len(rows)
            box_of += range(len(rows))
        v = 0
        for k, (clean, scene_of, box_of) in groups.items():
            groups[k] = (np.array(clean, dtype=np.float64),
                         np.array(scene_of, dtype=np.intp),
                         np.array(box_of, dtype=np.uint64), v)
            v += len(clean) * k
        base = _mix(np.array([s.scene_id & _U64 for s in self._scenes],
                             dtype=np.uint64))
        return base, groups, places, v


class NoiseDraw(zip):
    """One draw of a NoiseRows: the zip of each scene's rows and scores.
    The rows are views of values, which holds the rows of all scenes in one
    float64 array, those of each class count after those of the counts met
    before it in scene order."""
    __slots__ = ("values",)


def _mixed_rows(clean, box_key, scale, out=None):
    """The rows of clean, each mixed with the flat Dirichlet draw and the
    weight of its box's keyed uniforms and renormalized, in out if given."""
    n, k = clean.shape
    u = _uniform(_mix(box_key[:, None] ^ np.arange(k, dtype=np.uint64)))
    # fmin: a NaN scale mixes in all noise, as min(1.0, nan) does
    m = np.fmin(1.0, scale * u[:, :1])
    edges = np.concatenate([np.zeros((n, 1)), np.sort(u[:, 1:], axis=1),
                            np.ones((n, 1))], axis=1)
    mixed = (1.0 - m) * clean + m * (edges[:, 1:] - edges[:, :-1])
    total = mixed[:, 0].copy()
    for j in range(1, k):
        total += mixed[:, j]
    # a row of zeros whose noise weight underflowed stays zeros
    total[total == 0.0] = 1.0
    return np.divide(mixed, total[:, None], out=out)


class Detections(Sequence):
    """The detections of one scene in one modality, as columns: boxes and
    ids, tuples, and the (rows, scores) of perturbed_rows. A read-only
    sequence of ScoredBoxes, which indexing and iteration build: the
    ScoredBox of box k is ScoredBox.trusted(boxes[k], the tuple of rows[k],
    ids[k]). Equal to a Detections or a list with the same ScoredBoxes.
    """
    __slots__ = ("boxes", "ids", "rows", "scores")

    def __init__(self, boxes, ids, rows, scores):
        self.boxes, self.ids, self.rows, self.scores = boxes, ids, rows, scores

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return ScoredBox.trusted(self.boxes[k], tuple(self.rows[k].tolist()),
                                 self.ids[k])

    def __iter__(self):
        return map(ScoredBox.trusted, self.boxes,
                   map(tuple, self.rows.tolist()), self.ids)

    def __eq__(self, other):
        if isinstance(other, (Detections, list)):
            return list(self) == list(other)
        return NotImplemented

    def kept(self, keep):
        """The items whose flag in keep, a list of bools, is set."""
        if all(keep):
            return self
        at = [k for k, flag in enumerate(keep) if flag]
        return Detections(tuple([self.boxes[k] for k in at]),
                          tuple([self.ids[k] for k in at]),
                          self.rows.take(at, axis=0), self.scores.take(at))


def _drawn(params, scene, modality, salt, rows):
    """The scene's Detections in one modality, its boxes unmoved."""
    if modality not in _MODALITY_CODE:
        raise ValueError(f"unknown modality: {modality!r}")
    at = 0 if modality == "ir" else 2
    ids, boxes = scene.item_columns[at:at + 2]
    if rows is None:
        rows = perturbed_rows([scene], modality, params.confidence_noise,
                              salt)[0]
    probs, scores = rows
    if not len(probs) == len(scores) == len(ids):
        raise ValueError(f"{len(probs)} probability rows for {len(ids)} "
                         f"{modality} boxes of scene {scene.scene_id}")
    return Detections(boxes, ids, probs, scores)


def detect(params: SimDetectorParams, scene: Scene, modality: str,
           salt: int = 0, *, rows=None) -> Detections:
    """Detections for one modality; deterministic given (params, scene, salt).

    RGB detections are the observations translated by -offset_estimate
    (the detector reports positions aligned to the reference frame); IR
    detections echo the ground truth. Their class probabilities are the
    scene's perturbed_rows at scale params.confidence_noise, keyed by
    (scene_id, salt, modality): rows passes them in, the (rows, scores)
    perturbed_rows gave for this scene, and they are drawn for the one
    scene when it is None.
    """
    dets = _drawn(params, scene, modality, salt, rows)
    if modality == "ir":
        return dets
    dx, dy = params.offset_estimate
    return Detections(tuple([b.translated(-dx, -dy) for b in dets.boxes]),
                      dets.ids, dets.rows, dets.scores)


def rgb_proposals(params: SimDetectorParams, scene: Scene, salt: int = 0, *,
                  rows=None) -> Detections:
    """Teacher pseudo-label candidates in raw RGB-frame coordinates, with
    the class probabilities of detect(params, scene, "rgb", salt, rows=rows)."""
    return _drawn(params, scene, "rgb", salt, rows)


@dataclass(frozen=True)
class PairCenters:
    """Center columns of label pairs: reference (IR) and RGB box centers."""
    ir_cx: np.ndarray
    ir_cy: np.ndarray
    rgb_cx: np.ndarray
    rgb_cy: np.ndarray

    def __len__(self) -> int:
        return len(self.ir_cx)


def pair_centers(pairs) -> PairCenters:
    """The center columns of a sequence of LabelPairs; PairCenters as given."""
    if isinstance(pairs, PairCenters):
        return pairs
    cols = np.array([(p.ir_box.cx, p.ir_box.cy, p.rgb_box.cx, p.rgb_box.cy)
                     for p in pairs], dtype=float).reshape(-1, 4)
    return PairCenters(*np.ascontiguousarray(cols.T))


def _total(values) -> float:
    """ordered_sum of a float array: np.cumsum adds left to right, and
    + 0.0 turns an all -0.0 total into 0.0, as ordered_sum's 0.0 start
    does."""
    return float(np.cumsum(values)[-1]) + 0.0


def pair_loss(params: SimDetectorParams, pairs) -> float:
    """Mean squared center error of the decoupled RGB head over label pairs
    (LabelPairs or their PairCenters).

    The head predicts each object's RGB position as its reference center
    plus the current offset belief.
    """
    c = pair_centers(pairs)
    if not len(c):
        return 0.0
    dx, dy = params.offset_estimate
    with np.errstate(over="ignore", invalid="ignore"):
        ex = c.ir_cx + dx - c.rgb_cx
        ey = c.ir_cy + dy - c.rgb_cy
        return _total(ex * ex + ey * ey) / len(c)


def pair_gradient(params: SimDetectorParams, pairs) -> tuple[float, float]:
    """Exact gradient of pair_loss: 2 * mean(prediction - target) per axis."""
    c = pair_centers(pairs)
    if not len(c):
        return (0.0, 0.0)
    dx, dy = params.offset_estimate
    with np.errstate(over="ignore", invalid="ignore"):
        gx = _total(c.ir_cx + dx - c.rgb_cx)
        gy = _total(c.ir_cy + dy - c.rgb_cy)
    n = len(c)
    return (2.0 * gx / n, 2.0 * gy / n)


def student_step(params: SimDetectorParams, pseudo_labels,
                 learning_rate: float) -> SimDetectorParams:
    """One exact gradient-descent step on pair_loss; no-op on empty input."""
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    if not pseudo_labels:
        return params
    gx, gy = pair_gradient(params, pseudo_labels)
    dx, dy = params.offset_estimate
    return SimDetectorParams((dx - learning_rate * gx, dy - learning_rate * gy),
                             params.confidence_noise)


def least_squares_offset(pairs) -> tuple[float, float]:
    """Analytic minimizer of pair_loss: mean(rgb center - reference center)."""
    c = pair_centers(pairs)
    if not len(c):
        return (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        mx = _total(c.rgb_cx - c.ir_cx) / len(c)
        my = _total(c.rgb_cy - c.ir_cy) / len(c)
    return (mx, my)


# ---------------------------------------------------------------------------
# Record-stream serialization


def scene_to_record(scene: Scene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "canvas": list(scene.canvas),
        "true_offset": list(scene.true_offset),
        "ir_gt": [
            {"id": i, "cx": b.cx, "cy": b.cy, "w": b.w, "h": b.h,
             "theta": b.theta, "class": c}
            for i, b, c in scene.ir_gt
        ],
        "rgb_obs": [
            {"id": o.source_id, "cx": o.box.cx, "cy": o.box.cy, "w": o.box.w,
             "h": o.box.h, "theta": o.box.theta,
             "class_probs": list(o.class_probs), "corr_id": o.corr_id}
            for o in scene.rgb_obs
        ],
    }


def _field_error(where, exc) -> FieldError:
    """exc, raised while reading the record item at path where, as a
    FieldError whose field is the path of the part at fault."""
    if isinstance(exc, KeyError):
        field, reason = exc.args[0], "missing"
    else:
        field, reason = getattr(exc, "field", None), str(exc)
    return FieldError(where if field is None else f"{where}.{field}", reason)


def _integer(value, field):
    """value, which a scene record must give as an integer at field."""
    if not isinstance(value, int):
        raise FieldError(field, f"not an integer: {value!r}")
    return value


def _finite(value) -> bool:
    """True if value is an int or a float and finite as a float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _frame(rec):
    """(canvas, true_offset) of a record, which must give the canvas as two
    integers >= 1 and the true offset as two finite numbers."""
    for field, ok, what in (("canvas", lambda v: isinstance(v, int) and v >= 1,
                             "integers >= 1"),
                            ("true_offset", _finite, "finite numbers")):
        value = rec[field]
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(map(ok, value))):
            raise FieldError(field, f"not two {what}: {value!r}")
    return tuple(rec["canvas"]), tuple(rec["true_offset"])


def _items(rec, field):
    """The items of a record's list field; a string, a number or an object
    is not a list."""
    value = rec[field]
    if not isinstance(value, (list, tuple)):
        raise FieldError(field, f"not a list: {value!r}")
    return value


def _repeated_id(key, ids):
    """FieldError for the first of ids that repeats an earlier one, or None."""
    first = {}
    for i, ident in enumerate(ids):
        j = first.setdefault(ident, i)
        if j != i:
            return FieldError(f"{key}[{i}].id",
                              f"duplicate value {ident!r} (first at {key}[{j}])")
    return None


def scene_from_record(rec: dict) -> Scene:
    """Scene of a record.

    A missing or rejected field of an ir_gt or rgb_obs item raises a
    FieldError whose field is its path in the record, e.g. "rgb_obs[3].cx".
    Scene and item ids and rgb_obs corr_ids must be integers, and the ir_gt
    ids and the rgb_obs ids each unique within the scene. Every class_probs
    of a scene must have the scene's class count of entries, and every
    ir_gt class must be an integer in [0, class count). The canvas must be
    two integers >= 1 and the true offset two finite numbers.
    """
    scene_id = _integer(rec["scene_id"], "scene_id")
    ir_gt = []
    for i, g in enumerate(_items(rec, "ir_gt")):
        try:
            ir_gt.append((_integer(g["id"], "id"),
                          OrientedBox(g["cx"], g["cy"], g["w"], g["h"],
                                      g["theta"]),
                          _integer(g["class"], "class")))
        except (KeyError, TypeError, ValueError) as exc:
            raise _field_error(f"ir_gt[{i}]", exc) from exc
    obs = []
    for i, o in enumerate(_items(rec, "rgb_obs")):
        try:
            obs.append(ObservedBox(
                OrientedBox(o["cx"], o["cy"], o["w"], o["h"], o["theta"]),
                o["class_probs"], _integer(o["id"], "id"),
                corr_id=_integer(o["corr_id"], "corr_id")))
            n, k = len(obs[-1].class_probs), len(obs[0].class_probs)
            if n != k:
                raise FieldError("class_probs",
                                 f"{n} entries, rgb_obs[0] has {k}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _field_error(f"rgb_obs[{i}]", exc) from exc
    scene = Scene(scene_id, *_frame(rec), tuple(ir_gt), tuple(obs))
    k = scene.class_count
    for i, (_, _, cls) in enumerate(ir_gt):
        if not 0 <= cls < k:
            raise FieldError(f"ir_gt[{i}].class", f"not in [0, {k}): {cls}")
    repeated = (_repeated_id("ir_gt", [i for i, _, _ in ir_gt])
                or _repeated_id("rgb_obs", [o.source_id for o in obs]))
    if repeated is not None:
        raise repeated
    return scene


_BOX_FIELDS = itemgetter("cx", "cy", "w", "h")
_THETA = itemgetter("theta")


def _array(values, kinds, ndim=1):
    """np.array(values) if it has ndim dimensions and a dtype of one of
    kinds ("f" float, "i" signed integer, "b" boolean), else None."""
    arr = np.array(values)
    if arr.ndim != ndim or arr.dtype.kind not in kinds:
        return None
    return arr


def _repeats(groups, ids) -> bool:
    """True if some id occurs twice within one group."""
    order = np.lexsort((ids, groups))
    g, i = groups[order], ids[order]
    return bool(((g[1:] == g[:-1]) & (i[1:] == i[:-1])).any())


def scenes_from_records(records) -> list[SceneColumns] | None:
    """The SceneColumns of consecutive records, one per record, with the
    values scene_columns gives of the Scenes scene_from_record builds, or
    None when a record is bad or unusual.

    The fields of all records are read into numpy columns and checked with
    array masks: finite box fields with w > 0 and h > 0, probabilities in
    [0, 1] that add up left to right to at most 1 + PROB_SUM_TOL, integer
    ids unique within a scene, integer corr_ids, and integer ir_gt classes
    in [0, class count); each record's canvas and true offset are checked
    as scene_from_record checks them. Columns that numpy cannot hold as
    plain floats or int64 (strings, None, booleans alone, ids beyond
    int64), ir_gt and rgb_obs that are not lists, and class counts that
    differ between scenes give None as well, so that the caller builds
    those scenes one by one with scene_from_record, whose errors name the
    record's fault.
    """
    try:
        checked = _checked_chunk(records)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return None if checked is None else _chunk_columns(*checked)


def _checked_chunk(records):
    """What _chunk_columns reads of records once they pass the checks of
    scenes_from_records, or None: per scene its id and its ir_gt and
    rgb_obs counts; per box, the ir_gt boxes of all scenes first, its
    (cx, cy, w, h) as a numeric array and its normalized theta; the ir_gt
    ids, the rgb_obs ids and corr_ids, and the class probabilities as a
    float64 array."""
    scene_ids = [rec["scene_id"] for rec in records]
    if not all(isinstance(s, int) for s in scene_ids):
        return None
    ir_lists = [rec["ir_gt"] for rec in records]
    obs_lists = [rec["rgb_obs"] for rec in records]
    if not all(isinstance(items, (list, tuple))
               for items in ir_lists + obs_lists):
        return None
    for rec in records:
        _frame(rec)
    ir = [g for items in ir_lists for g in items]
    obs = [o for items in obs_lists for o in items]
    ir_counts = [len(items) for items in ir_lists]
    obs_counts = [len(items) for items in obs_lists]
    values = list(map(_BOX_FIELDS, ir)) + list(map(_BOX_FIELDS, obs))
    raw_thetas = list(map(_THETA, ir)) + list(map(_THETA, obs))
    ir_ids = [g["id"] for g in ir]
    obs_ids = [o["id"] for o in obs]
    corr_ids = [o["corr_id"] for o in obs]

    scene_of = np.arange(len(records))
    box = np.zeros((0, 4))
    thetas = np.zeros(0)
    probs = np.zeros((0, 1))
    if values:
        box, theta = _array(values, "fi", 2), _array(raw_thetas, "bfi")
        if (box is None or theta is None or not np.isfinite(box).all()
                or not np.isfinite(theta).all()
                or not (box[:, 2] > 0).all() or not (box[:, 3] > 0).all()):
            return None
        thetas = normalize_angle(theta.astype(np.float64))
    if ir:
        ids, cls = _array(ir_ids, "i"), _array([g["class"] for g in ir], "i")
        if ids is None or cls is None:
            return None
        groups = np.repeat(scene_of, ir_counts)
        if not (cls >= 0).all() or _repeats(groups, ids):
            return None
    if obs:
        ids, probs = _array(obs_ids, "i"), _array(
            [o["class_probs"] for o in obs], "fi", 2)
        if (ids is None or probs is None or probs.shape[1] == 0
                or _array(corr_ids, "i") is None):
            return None
        probs = probs.astype(np.float64, copy=False)
        if (not ((probs >= 0.0) & (probs <= 1.0)).all()
                or not (np.cumsum(probs, axis=1)[:, -1]
                        <= 1.0 + PROB_SUM_TOL).all()
                or _repeats(np.repeat(scene_of, obs_counts), ids)):
            return None
        if ir:
            # a scene without rgb_obs takes any class count its ir_gt needs
            with_obs = np.repeat(np.array(obs_counts) > 0, ir_counts)
            if (with_obs & (cls >= probs.shape[1])).any():
                return None
    return (scene_ids, ir_counts, obs_counts, box, thetas, ir_ids, obs_ids,
            corr_ids, probs)


def _chunk_columns(scene_ids, ir_counts, obs_counts, box, thetas, ir_ids,
                   obs_ids, corr_ids, probs) -> list[SceneColumns]:
    """The SceneColumns of a chunk that _checked_chunk passed: the
    field_rows of the boxes, scores that are probabilities picked by the
    first maximum, as probs.index(max(probs)) finds it, and the records'
    own ids."""
    rows = field_rows(box, thetas)
    class_ids = probs.argmax(axis=1)
    scores = probs[np.arange(len(probs)), class_ids]
    out = []
    i = j = 0
    for sid, n_ir, n_obs in zip(scene_ids, ir_counts, obs_counts):
        # the scene's observations are boxes b to e, after all ir_gt
        b = len(ir_ids) + j
        e = b + n_obs
        ir = BoxColumns(ir_ids[i:i + n_ir], rows[i:i + n_ir],
                        thetas[i:i + n_ir])
        rgb = BoxColumns(obs_ids[j:j + n_obs], rows[b:e], thetas[b:e])
        out.append(SceneColumns(sid, ir, rgb, scores[j:j + n_obs],
                                class_ids[j:j + n_obs],
                                corr_ids[j:j + n_obs]))
        i += n_ir
        j += n_obs
    return out


@dataclass(frozen=True)
class SceneColumns:
    """What match and filter read of a scene, as columns: its IR ground
    truth and RGB observations as BoxColumns, and per observation its
    score, the first maximum of its class probabilities, as float64, the
    index of that maximum, and its corr_id."""
    scene_id: int
    ir: BoxColumns
    rgb: BoxColumns
    scores: np.ndarray
    class_ids: np.ndarray
    corr_ids: list

    @property
    def corr_map(self) -> dict[int, int]:
        """rgb observation id -> ir id (spurious entries excluded)."""
        return {i: c for i, c in zip(self.rgb.ids, self.corr_ids)
                if c != SPURIOUS}


def scene_columns(scene: Scene) -> SceneColumns:
    """The SceneColumns of a Scene."""
    obs = scene.rgb_obs
    return SceneColumns(
        scene.scene_id,
        box_columns([i for i, _, _ in scene.ir_gt],
                    [b for _, b, _ in scene.ir_gt]),
        box_columns([o.source_id for o in obs], [o.box for o in obs]),
        np.array([o.score for o in obs], dtype=np.float64),
        np.array([o.class_id for o in obs], dtype=np.intp),
        [o.corr_id for o in obs])
