import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosspair.filtering import (INVALID_THRESHOLD, PROB_SUM_TOL,
                                 BatchThreshold, ScoredBox, batch_threshold,
                                 filter_batch, filter_masks, score_of)
from crosspair.geometry import OrientedBox

BOX = OrientedBox(0, 0, 10, 10, 0)


def boxes_from_scores(scores):
    return [ScoredBox(BOX, (s,), i) for i, s in enumerate(scores)]


class TestScoreOf:
    def test_max(self):
        assert score_of((0.1, 0.7, 0.2)) == 0.7

    def test_single_class(self):
        assert score_of((1.0,)) == 1.0

    def test_argmax_class_id(self):
        sb = ScoredBox(BOX, (0.3, 0.3, 0.4), 0)
        assert sb.score == 0.4
        assert sb.class_id == 2

    def test_tie_takes_lowest_index(self):
        sb = ScoredBox(BOX, (0.4, 0.4, 0.2), 0)
        assert sb.class_id == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_of(())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_of((0.5, 1.2))

    def test_prob_sum_checked(self):
        with pytest.raises(ValueError):
            ScoredBox(BOX, (0.9, 0.9), 0)

    def test_prob_sum_adds_left_to_right(self):
        # 0.75 reaches the bound exactly; each 1e-16 after it is below half
        # an ulp and rounds away, as in np.cumsum, though the exact sum
        # (and the compensated sum() of Python 3.12) lies above the bound
        bound = 1.0 + PROB_SUM_TOL
        probs = (0.75, bound - 0.75, 1e-16, 1e-16, 1e-16)
        assert math.fsum(probs) > bound
        assert np.cumsum(probs)[-1] == bound
        assert ScoredBox(BOX, probs, 0).class_id == 0


class TestBatchThreshold:
    def test_zero_variance(self):
        t = batch_threshold([0.5, 0.5, 0.5])
        assert (t.mu, t.sigma, t.tau) == (0.5, 0.0, 0.5)

    def test_single_element(self):
        t = batch_threshold([0.7])
        assert t.tau == 0.7 and t.sigma == 0.0

    def test_population_std(self):
        t = batch_threshold([0.9, 0.5, 0.1])
        assert t.mu == pytest.approx(0.5, abs=1e-12)
        assert t.sigma == pytest.approx(math.sqrt(0.32 / 3), abs=1e-12)
        assert t.tau == pytest.approx(0.5 - math.sqrt(0.32 / 3), abs=1e-12)
        assert t.tau == pytest.approx(0.17340, abs=5e-6)

    def test_recompute_reproduces(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.uniform(0, 1, rng.integers(1, 40)).tolist()
            t = batch_threshold(scores)
            mu = sum(scores) / len(scores)
            sigma = math.sqrt(sum((s - mu) ** 2 for s in scores) / len(scores))
            assert abs(t.mu - mu) < 1e-12
            assert abs(t.sigma - sigma) < 1e-12
            assert t.sigma >= 0 and t.tau <= t.mu

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_threshold([])


class TestFilterBatch:
    def test_all_equal_all_kept(self):
        cands = boxes_from_scores([0.6, 0.6, 0.6])
        kept, _ = filter_batch(cands)
        assert kept == cands

    def test_derived_example(self):
        cands = boxes_from_scores([0.9, 0.5, 0.1])
        kept, t = filter_batch(cands)
        assert [c.score for c in kept] == [0.9, 0.5]
        assert t.tau == pytest.approx(0.17340, abs=5e-6)

    def test_single_candidate_kept(self):
        kept, t = filter_batch(boxes_from_scores([0.2]))
        assert len(kept) == 1 and t.tau == 0.2

    def test_empty_input_sentinel(self):
        kept, t = filter_batch([])
        assert kept == []
        assert t is INVALID_THRESHOLD
        assert not t.is_valid and t.n == 0

    def test_matches_reference_predicate(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            scores = rng.uniform(0, 1, rng.integers(1, 30)).tolist()
            cands = boxes_from_scores(scores)
            kept, t = filter_batch(cands)
            ref = [c for c in cands if c.score >= t.mu - t.sigma]
            assert kept == ref
            assert len(kept) >= 1

    def test_order_preserved(self):
        cands = boxes_from_scores([0.9, 0.1, 0.8, 0.05, 0.7])
        kept, _ = filter_batch(cands)
        ids = [c.source_id for c in kept]
        assert ids == sorted(ids)

    def test_uniform_shift_keeps_same_indices(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = rng.uniform(0.1, 0.6, rng.integers(2, 20)).tolist()
            shift = 0.3
            kept_a, _ = filter_batch(boxes_from_scores(scores))
            kept_b, _ = filter_batch(boxes_from_scores([s + shift for s in scores]))
            assert [c.source_id for c in kept_a] == [c.source_id for c in kept_b]

    def test_per_class_flag(self):
        # the weak class clusters tightly below the global threshold;
        # per-class thresholds keep all of its members
        strong = [ScoredBox(BOX, (s, 0.0), i) for i, s in
                  enumerate([0.95, 0.9, 0.92])]
        weak = [ScoredBox(BOX, (0.0, s), 10 + i) for i, s in
                enumerate([0.2, 0.2, 0.21])]
        kept_global, _ = filter_batch(strong + weak)
        kept_pc, _ = filter_batch(strong + weak, per_class=True)
        weak_global = sum(c.class_id == 1 for c in kept_global)
        weak_pc = sum(c.class_id == 1 for c in kept_pc)
        assert weak_global == 1  # the 0.2 pair falls below the global tau
        assert weak_pc == 3


def _exact_keeps(scores):
    """For each score: True if it is >= mean - pstd of scores, False if it
    is below, None if it lies within the rounding of a float computation
    of the threshold. Mean and variance are exact rationals, and
    s >= mu - sigma is decided as mu - s <= sigma, squared."""
    q = [Fraction(s) for s in scores]
    mu = sum(q) / len(q)
    var = sum((x - mu) ** 2 for x in q) / len(q)
    # sigma to float precision, scaled so that no square underflows
    k = (var.denominator.bit_length() - var.numerator.bit_length()) // 2
    tau = mu - Fraction(math.sqrt(var * Fraction(4) ** k)) / Fraction(2) ** k
    tol = (8 * len(scores) * Fraction(sys.float_info.epsilon) * max(q)
           + Fraction(math.ulp(0.0)))
    return [None if abs(x - tau) <= tol
            else mu - x <= 0 or (mu - x) ** 2 <= var for x in q]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2)),
                min_size=1, max_size=30), st.booleans())
# tiny scores: unscaled, the squared deviations underflow and sigma reads 0,
# and subnormal ones round mu and sigma apart
@example([(0.0, 0), (1.6323927492561881e-186, 0)], False)
@example([(2.2250738585e-313, 0), (5e-324, 0)], False)
@example([(1.6180625093166528e-183, 0)] * 3, False)
@example([(1e-300, 1)] * 3, True)
def test_filter_batch_keeps_brute_force_threshold(items, per_class):
    cands = []
    for i, (score, cls) in enumerate(items):
        probs = [0.0, 0.0, 0.0]
        probs[cls] = score
        cands.append(ScoredBox(BOX, tuple(probs), i))
    kept, _ = filter_batch(cands, per_class=per_class)
    assert kept
    kept_ids = {c.source_id for c in kept}
    assert kept == [c for c in cands if c.source_id in kept_ids]
    groups = {}
    for c in cands:
        groups.setdefault(c.class_id if per_class else None, []).append(c)
    for group in groups.values():
        assert any(c.source_id in kept_ids for c in group)
        for c, keep in zip(group, _exact_keeps([c.score for c in group])):
            if keep is not None:
                assert (c.source_id in kept_ids) == keep


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1.0)), min_size=1,
                max_size=40))
def test_threshold_bits_of_plain_mean_and_std(scores):
    # the power-of-two scaling changes no bit where nothing underflows
    arr = np.asarray(scores)
    t = batch_threshold(scores)
    assert (t.mu, t.sigma) == (float(arr.mean()), float(arr.std()))
    assert t.tau == t.mu - t.sigma


def _reference_filter(candidates, per_class):
    """The score filter of filter_batch, on Python lists."""
    if not candidates:
        return [], INVALID_THRESHOLD
    threshold = batch_threshold([c.score for c in candidates])
    if per_class:
        taus = {cid: batch_threshold([c.score for c in candidates
                                      if c.class_id == cid]).tau
                for cid in {c.class_id for c in candidates}}
        return [c for c in candidates if c.score >= taus[c.class_id]], threshold
    return [c for c in candidates if c.score >= threshold.tau], threshold


def _threshold_bits(t):
    return [float(v).hex() for v in (t.mu, t.sigma, t.tau)], t.n


# scores from a small set tie with each other and, with sigma 0 or two
# equal halves, with tau; subnormal ones test the threshold's scaling
scores = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 5e-324,
                                    2.2250738585e-313]),
                   st.floats(0.0, 1.0), st.floats(0.0, 1e-300))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.tuples(scores, st.integers(0, 2)), max_size=8),
                min_size=1, max_size=5), st.booleans())
@example([[(0.5, 0), (0.5, 1)], [(0.5, 0)]], False)
@example([[(0.25, 0), (0.75, 0)], [], [(0.25, 1), (0.75, 1)]], True)
@example([[(5e-324, 0), (1e-320, 0)], [(5e-324, 1)]], True)
def test_filter_masks_equal_filter_batch(pools, per_class):
    boxes = []
    for pool in pools:
        boxes.append([])
        for score, cls in pool:
            probs = [0.0, 0.0, 0.0]
            probs[cls] = score
            boxes[-1].append(ScoredBox(BOX, tuple(probs), len(boxes[-1])))
    masks, threshold = filter_masks(
        [np.array([c.score for c in pool], dtype=np.float64)
         for pool in boxes],
        [np.array([c.class_id for c in pool], dtype=np.intp)
         for pool in boxes] if per_class else None)
    kept = [(i, c.source_id) for i, (pool, mask) in enumerate(zip(boxes, masks))
            for c, keep in zip(pool, mask) if keep]
    flat = [(i, c) for i, pool in enumerate(boxes) for c in pool]
    for want_kept, want in (filter_batch([c for _, c in flat], per_class),
                            _reference_filter([c for _, c in flat],
                                              per_class)):
        assert _threshold_bits(threshold) == _threshold_bits(want)
        want_ids = {id(c) for c in want_kept}
        assert kept == [(i, c.source_id) for i, c in flat
                        if id(c) in want_ids]


# signed zeros tie with each other; subnormals test the threshold's scaling
SIGNED_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324,
                                           2.2250738585e-313, 0.5, 1.0]),
                          st.floats(0.0, 1.0), st.floats(0.0, 1e-300))


@st.composite
def class_pool(draw):
    """The ScoredBoxes of one pool, all of 3 or all of 5 classes, as the
    RGB observations of a scene simulated with that many classes."""
    k = draw(st.sampled_from([3, 5]))
    pool = []
    for i, (score, cls) in enumerate(draw(st.lists(
            st.tuples(SIGNED_SCORES, st.integers(0, k - 1)), max_size=6))):
        probs = [math.copysign(0.0, score)] * k
        probs[cls] = score
        pool.append(ScoredBox(BOX, tuple(probs), i))
    return pool


@settings(max_examples=500, deadline=None)
@given(st.lists(class_pool(), min_size=1, max_size=5), st.booleans())
@example([[]], False)
@example([[], []], True)
@example([[ScoredBox(BOX, (-0.0, -0.0, -0.0), 0)], [],
          [ScoredBox(BOX, (0.0, 5e-324, 0.0, 0.0, 0.0), 0)]], True)
def test_filter_masks_equal_reference_pool_by_pool(pools, per_class):
    flat = [c for pool in pools for c in pool]
    want_kept, want = _reference_filter(flat, per_class)
    want_ids = {id(c) for c in want_kept}
    masks, threshold = filter_masks(
        [np.array([c.score for c in pool], dtype=np.float64)
         for pool in pools],
        [np.array([c.class_id for c in pool], dtype=np.intp)
         for pool in pools] if per_class else None)
    assert [[type(flag) for flag in mask] for mask in masks] == \
        [[bool] * len(pool) for pool in pools]
    assert [[c for c, keep in zip(pool, mask) if keep]
            for pool, mask in zip(pools, masks)] == \
        [[c for c in pool if id(c) in want_ids] for pool in pools]
    assert _threshold_bits(threshold) == _threshold_bits(want)
    kept, threshold = filter_batch(flat, per_class)
    assert [id(c) for c in kept] == [id(c) for c in want_kept]
    assert _threshold_bits(threshold) == _threshold_bits(want)
