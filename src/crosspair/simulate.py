"""Synthetic misalignment world.

Generates paired IR/RGB oriented-box scenes with a hidden correspondence
(every RGB observation of a real object is its IR partner translated by
the scene's true offset plus bounded jitter), and a closed-form simulated
detector whose only learnable geometric parameter is its belief of the
cross-modality offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correction import LabelPair
from .filtering import ScoredBox
from .geometry import FieldError, OrientedBox
from .metrics import ordered_sum

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

    def true_rgb_center(self, ir_id: int) -> tuple[float, float]:
        """Where the object really sits in the RGB frame (oracle)."""
        for i, b, _ in self.ir_gt:
            if i == ir_id:
                return (b.cx + self.true_offset[0], b.cy + self.true_offset[1])
        raise KeyError(ir_id)


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
    min_gap: float | None = None  # default: shift_max + 2*jitter + 1
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


def generate_scene(cfg: SceneConfig, index: int) -> Scene:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    W, H = cfg.canvas
    if cfg.offset_override is not None:
        offset = (float(cfg.offset_override[0]), float(cfg.offset_override[1]))
    else:
        offset = tuple(float(v) for v in rng.uniform(-cfg.shift_max, cfg.shift_max, 2))
    gap = cfg.min_gap if cfg.min_gap is not None else cfg.shift_max + 2.0 * cfg.jitter + 1.0

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
    return Scene(index, (W, H), offset, tuple(ir_gt), tuple(obs))


def generate_scenes(cfg: SceneConfig):
    """Deterministic scene stream; per-scene seeds derived from (seed, index)."""
    return [generate_scene(cfg, i) for i in range(cfg.count)]


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


def _perturb_probs(rng, probs, scale):
    """Mix probs with flat Dirichlet noise by a uniform weight in [0, scale).

    Same draws and bits as rng.dirichlet(np.ones(k)) followed by
    rng.uniform(0.0, scale) and the array arithmetic that mixed and
    renormalized them, without numpy's per-call overhead on k-element
    arrays: numpy's Dirichlet with alpha = 1 draws one standard exponential
    per component, sums them in order and scales by the reciprocal of the
    sum, and uniform(0, scale) is scale times the next double. The rest is
    elementwise Python float arithmetic in numpy's order. The normalizing
    total follows ndarray.sum, which adds in order below 8 elements and
    pairwise from 8 up. The builtin sum() is not used: from Python 3.12 it
    adds floats with compensation, which gives other bits.
    """
    if scale <= 0:
        return probs
    e = rng.standard_exponential(len(probs)).tolist()
    acc = 0.0
    for x in e:
        acc += x
    inv = 1.0 / acc
    mix = min(1.0, scale * rng.random())
    keep = 1.0 - mix
    out = [keep * p + mix * (x * inv) for p, x in zip(probs, e)]
    if len(out) < 8:
        total = 0.0
        for v in out:
            total += v
    else:
        total = float(np.array(out).sum())
    return tuple([v / total for v in out])


def _detect_rng(scene: Scene, salt: int):
    return np.random.default_rng(np.random.SeedSequence([scene.scene_id, salt]))


def detect(params: SimDetectorParams, scene: Scene, modality: str,
           salt: int = 0):
    """Detections for one modality; deterministic given (params, scene, salt).

    RGB detections are the observations translated by -offset_estimate
    (the detector reports positions aligned to the reference frame); IR
    detections echo the ground truth. Both carry confidence perturbation.
    """
    rng = _detect_rng(scene, salt)
    out = []
    if modality == "ir":
        n_classes = scene.class_count
        one_hot = [tuple([float(j == c) for j in range(n_classes)])
                   for c in range(n_classes)]
        for ir_id, box, cls in scene.ir_gt:
            probs = _perturb_probs(rng, one_hot[cls], params.confidence_noise)
            out.append(ScoredBox(box, probs, ir_id))
    elif modality == "rgb":
        dx, dy = params.offset_estimate
        for o in scene.rgb_obs:
            probs = _perturb_probs(rng, o.class_probs, params.confidence_noise)
            out.append(ScoredBox(o.box.translated(-dx, -dy), probs, o.source_id))
    else:
        raise ValueError(f"unknown modality: {modality!r}")
    return out


def rgb_proposals(params: SimDetectorParams, scene: Scene, salt: int = 0):
    """Teacher pseudo-label candidates in raw RGB-frame coordinates."""
    rng = _detect_rng(scene, salt)
    return [
        ScoredBox(o.box, _perturb_probs(rng, o.class_probs, params.confidence_noise),
                  o.source_id)
        for o in scene.rgb_obs
    ]


def pair_loss(params: SimDetectorParams, pairs) -> float:
    """Mean squared center error of the decoupled RGB head over label pairs.

    The head predicts each object's RGB position as its reference center
    plus the current offset belief.
    """
    if not pairs:
        return 0.0
    dx, dy = params.offset_estimate
    acc = 0.0
    for p in pairs:
        ex = p.ir_box.cx + dx - p.rgb_box.cx
        ey = p.ir_box.cy + dy - p.rgb_box.cy
        acc += ex * ex + ey * ey
    return acc / len(pairs)


def pair_gradient(params: SimDetectorParams, pairs) -> tuple[float, float]:
    """Exact gradient of pair_loss: 2 * mean(prediction - target) per axis."""
    if not pairs:
        return (0.0, 0.0)
    dx, dy = params.offset_estimate
    gx = ordered_sum(p.ir_box.cx + dx - p.rgb_box.cx for p in pairs)
    gy = ordered_sum(p.ir_box.cy + dy - p.rgb_box.cy for p in pairs)
    n = len(pairs)
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
    return replace(params, offset_estimate=(dx - learning_rate * gx,
                                            dy - learning_rate * gy))


def least_squares_offset(pairs) -> tuple[float, float]:
    """Analytic minimizer of pair_loss: mean(rgb center - reference center)."""
    if not pairs:
        return (0.0, 0.0)
    mx = ordered_sum(p.rgb_box.cx - p.ir_box.cx for p in pairs) / len(pairs)
    my = ordered_sum(p.rgb_box.cy - p.ir_box.cy for p in pairs) / len(pairs)
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


def scene_from_record(rec: dict) -> Scene:
    """Scene of a record.

    A missing or rejected field of an ir_gt or rgb_obs item raises a
    FieldError whose field is its path in the record, e.g. "rgb_obs[3].cx".
    Scene and item ids must be integers. Every class_probs of a scene must
    have the scene's class count of entries, and every ir_gt class must be
    an integer in [0, class count).
    """
    scene_id = _integer(rec["scene_id"], "scene_id")
    ir_gt = []
    for i, g in enumerate(rec["ir_gt"]):
        try:
            ir_gt.append((_integer(g["id"], "id"),
                          OrientedBox(g["cx"], g["cy"], g["w"], g["h"],
                                      g["theta"]),
                          _integer(g["class"], "class")))
        except (KeyError, TypeError, ValueError) as exc:
            raise _field_error(f"ir_gt[{i}]", exc) from exc
    obs = []
    for i, o in enumerate(rec["rgb_obs"]):
        try:
            obs.append(ObservedBox(
                OrientedBox(o["cx"], o["cy"], o["w"], o["h"], o["theta"]),
                tuple(o["class_probs"]), _integer(o["id"], "id"),
                corr_id=o["corr_id"]))
            n, k = len(obs[-1].class_probs), len(obs[0].class_probs)
            if n != k:
                raise FieldError("class_probs",
                                 f"{n} entries, rgb_obs[0] has {k}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _field_error(f"rgb_obs[{i}]", exc) from exc
    scene = Scene(scene_id, tuple(rec["canvas"]), tuple(rec["true_offset"]),
                  tuple(ir_gt), tuple(obs))
    k = scene.class_count
    for i, (_, _, cls) in enumerate(ir_gt):
        if not 0 <= cls < k:
            raise FieldError(f"ir_gt[{i}].class", f"not in [0, {k}): {cls}")
    return scene
