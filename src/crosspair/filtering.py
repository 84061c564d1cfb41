"""Score-based pseudo-label filtering with a batch-adaptive threshold.

Each candidate is scored by its maximum class probability; a batch keeps
the candidates scoring at least mean - std (population std, inclusive
comparison).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .geometry import FieldError, OrientedBox

PROB_SUM_TOL = 1e-6


def score_of(probs) -> float:
    """Maximum class probability of a candidate."""
    if len(probs) == 0:
        raise FieldError("class_probs", "empty probability vector")
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise FieldError("class_probs", f"probability out of [0,1]: {p!r}")
    return max(probs)


def _probability(p) -> float:
    """p as a float. A string is not a number, though float() reads one."""
    if isinstance(p, str):
        raise FieldError("class_probs", f"not a number: {p!r}")
    return float(p)


@dataclass(frozen=True)
class ScoredBox:
    box: OrientedBox
    class_probs: tuple[float, ...]
    source_id: int
    score: float = field(init=False)
    class_id: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.class_probs, str):
            raise FieldError("class_probs",
                             f"not a list: {self.class_probs!r}")
        try:
            probs = tuple(map(_probability, self.class_probs))
        except OverflowError:  # an int beyond the float range
            raise FieldError("class_probs",
                             "probability out of float range") from None
        object.__setattr__(self, "class_probs", probs)
        # left to right, as np.cumsum adds; the builtin sum() compensates
        # from Python 3.12 on and could judge the bound differently
        total = 0.0
        for p in probs:
            total += p
        if total > 1.0 + PROB_SUM_TOL:
            raise FieldError("class_probs",
                             f"class probabilities sum to {total} > 1")
        score = score_of(probs)
        object.__setattr__(self, "score", score)
        # lowest index wins ties
        object.__setattr__(self, "class_id", probs.index(score))

    @classmethod
    def trusted(cls, box, class_probs: tuple[float, ...], source_id):
        """The box __init__ builds of valid probabilities, without checking
        them again: class_probs must be a tuple of floats in [0, 1] that
        add up to at most 1 + PROB_SUM_TOL."""
        self = object.__new__(cls)
        # the fields in __init__'s order; frozen only guards __setattr__
        d = self.__dict__
        d["box"] = box
        d["class_probs"] = class_probs
        d["source_id"] = source_id
        d["score"] = score = max(class_probs)
        d["class_id"] = class_probs.index(score)
        return self

    @property
    def center(self) -> tuple[float, float]:
        return self.box.center


@dataclass(frozen=True)
class BatchThreshold:
    mu: float
    sigma: float
    tau: float
    n: int

    @property
    def is_valid(self) -> bool:
        return self.n > 0


INVALID_THRESHOLD = BatchThreshold(math.nan, math.nan, math.nan, 0)


def batch_threshold(scores) -> BatchThreshold:
    """Threshold tau = mu - sigma over a batch of scores (population sigma).

    Scores whose maximum is below 1/2 are scaled up by a power of two for
    the arithmetic, and mu, sigma and tau scaled back. That changes no bit
    of them, except where scores below about 1e-154 made the squared
    deviations underflow, or subnormal ones rounded mu and sigma apart:
    there tau came out above scores it should keep, up to the whole batch.
    """
    if len(scores) == 0:
        raise ValueError("empty score list")
    arr = np.asarray(scores, dtype=float)
    exp = min(math.frexp(float(arr.max()))[1], 0)
    unit = np.ldexp(arr, -exp)
    mu, sigma = float(unit.mean()), float(unit.std())  # divide by N
    return BatchThreshold(math.ldexp(mu, exp), math.ldexp(sigma, exp),
                          math.ldexp(mu - sigma, exp), len(scores))


def keep_mask(scores, class_ids=None):
    """The filter of filter_batch on columns: scores, a float64 array, and
    class_ids, None or an integer array; with class_ids each class is
    filtered by its own threshold. Returns (mask, threshold): mask[k] is
    True if candidate k is kept."""
    if not len(scores):
        return np.zeros(0, dtype=bool), INVALID_THRESHOLD
    threshold = batch_threshold(scores)
    if class_ids is None:
        return scores >= threshold.tau, threshold
    mask = np.empty(len(scores), dtype=bool)
    # not np.unique: in numpy 2.x its first call imports numpy.ma
    for cid in set(class_ids.tolist()):
        group = class_ids == cid
        part = scores[group]
        mask[group] = part >= batch_threshold(part).tau
    return mask, threshold


def filter_batch(candidates, per_class: bool = False):
    """Drop candidates scoring below the batch threshold.

    Returns (kept, threshold); kept preserves input order and is never
    empty for a non-empty batch (max >= mu >= tau). With per_class the
    threshold is computed independently for each class_id group and the
    returned threshold is the global one.
    """
    scores = np.array([c.score for c in candidates], dtype=np.float64)
    class_ids = (np.array([c.class_id for c in candidates], dtype=np.intp)
                 if per_class else None)
    mask, threshold = keep_mask(scores, class_ids)
    return list(compress(candidates, mask.tolist())), threshold


def filter_masks(scores, class_ids=None):
    """filter_batch of the candidates of several pools as one batch, on
    columns: scores[i] is the float64 scores of pool i and, to filter per
    class, class_ids[i] its class ids. Returns (masks, threshold):
    masks[i][k] is True if candidate k of pool i is kept."""
    mask, threshold = keep_mask(
        np.concatenate(scores),
        None if class_ids is None else np.concatenate(class_ids))
    return np.split(mask, np.cumsum([len(s) for s in scores])[:-1]), threshold
