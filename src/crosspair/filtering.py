"""Score-based pseudo-label filtering with a batch-adaptive threshold.

Each candidate is scored by its maximum class probability; a batch keeps
the candidates scoring at least mean - std (population std, inclusive
comparison).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ScoredBox:
    box: OrientedBox
    class_probs: tuple[float, ...]
    source_id: int
    score: float = field(init=False)
    class_id: int = field(init=False)

    def __post_init__(self):
        probs = tuple(map(float, self.class_probs))
        object.__setattr__(self, "class_probs", probs)
        total = sum(probs)
        if total > 1.0 + PROB_SUM_TOL:
            raise FieldError("class_probs",
                             f"class probabilities sum to {total} > 1")
        score = score_of(probs)
        object.__setattr__(self, "score", score)
        # lowest index wins ties
        object.__setattr__(self, "class_id", probs.index(score))

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
    """Threshold tau = mu - sigma over a batch of scores (population sigma)."""
    if len(scores) == 0:
        raise ValueError("empty score list")
    arr = np.asarray(scores, dtype=float)
    mu = float(arr.mean())
    sigma = float(arr.std())  # divide by N
    return BatchThreshold(mu, sigma, mu - sigma, len(scores))


def filter_batch(candidates, per_class: bool = False):
    """Drop candidates scoring below the batch threshold.

    Returns (kept, threshold); kept preserves input order and is never
    empty for a non-empty batch (max >= mu >= tau). With per_class the
    threshold is computed independently for each class_id group and the
    returned threshold is the global one.
    """
    if not candidates:
        return [], INVALID_THRESHOLD
    threshold = batch_threshold([c.score for c in candidates])
    if per_class:
        taus = {}
        for cid in {c.class_id for c in candidates}:
            taus[cid] = batch_threshold(
                [c.score for c in candidates if c.class_id == cid]
            ).tau
        kept = [c for c in candidates if c.score >= taus[c.class_id]]
    else:
        kept = [c for c in candidates if c.score >= threshold.tau]
    return kept, threshold
