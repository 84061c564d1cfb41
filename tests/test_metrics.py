import numpy as np
import pytest

from crosspair.filtering import ScoredBox
from crosspair.geometry import OrientedBox
from crosspair.matching import MatchResult, match_scene
from crosspair.metrics import (average_precision, correspondence_score, map_at,
                               mean_ap, pooled_correspondence)
from crosspair.simulate import SceneConfig, generate_scenes


def pred(box, score, cls=0, n_classes=1, source_id=0):
    probs = [0.0] * n_classes
    probs[cls] = score
    return ScoredBox(box, tuple(probs), source_id)


def grid_boxes(n, cls=0):
    return [(OrientedBox(30 * i + 15, 15, 10, 10, 0), cls) for i in range(n)]


class TestAveragePrecision:
    def test_exact_copies_score_one(self):
        gts = grid_boxes(4)
        preds = [pred(b, 1.0, source_id=i) for i, (b, _) in enumerate(gts)]
        assert average_precision(preds, gts).ap == pytest.approx(1.0)

    def test_no_predictions(self):
        assert average_precision([], grid_boxes(3)).ap == 0.0

    def test_no_gt_no_preds(self):
        assert average_precision([], []).ap == 1.0

    def test_no_gt_with_preds(self):
        preds = [pred(OrientedBox(5, 5, 4, 4, 0), 0.9)]
        assert average_precision(preds, []).ap == 0.0

    def test_tp_fp_tp_envelope(self):
        gts = grid_boxes(2)
        preds = [
            pred(gts[0][0], 0.9, source_id=0),                    # TP
            pred(OrientedBox(200, 200, 10, 10, 0), 0.8, source_id=1),  # FP
            pred(gts[1][0], 0.7, source_id=2),                    # TP
        ]
        curve = average_precision(preds, gts)
        assert curve.ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        recalls = [r for r, _ in curve.points]
        assert recalls == sorted(recalls)

    def test_envelope_matches_quadratic_formula(self):
        # the running-max envelope against the former per-point max over
        # the tail, on random TP/FP orders; AP must agree bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_gt = int(rng.integers(1, 12))
            gts = grid_boxes(n_gt)
            preds = []
            for i in range(int(rng.integers(1, 30))):
                if rng.random() < 0.5:
                    box = gts[int(rng.integers(n_gt))][0]
                else:
                    box = OrientedBox(500 + 30 * i, 500, 10, 10, 0)
                preds.append(pred(box, float(rng.integers(1, 8)) / 8,
                                  source_id=i))
            curve = average_precision(preds, gts)
            ap, prev_recall = 0.0, 0.0
            for idx in range(len(curve.points)):
                env_here = max(p for r, p in curve.points[idx:])
                r = curve.points[idx][0]
                ap += (r - prev_recall) * env_here
                prev_recall = r
            assert curve.ap.hex() == ap.hex()

    def test_iou_threshold_applied(self):
        gt_box = OrientedBox(0, 0, 10, 10, 0)
        near = pred(OrientedBox(1, 0, 10, 10, 0), 0.9)   # IoU 9/11 > 0.5
        far = pred(OrientedBox(6, 0, 10, 10, 0), 0.9)    # IoU 4/16 < 0.5
        assert average_precision([near], [(gt_box, 0)]).ap == 1.0
        assert average_precision([far], [(gt_box, 0)]).ap == 0.0

    def test_class_must_match(self):
        gt_box = OrientedBox(0, 0, 10, 10, 0)
        wrong = pred(gt_box, 0.9, cls=1, n_classes=2)
        assert average_precision([wrong], [(gt_box, 0)]).ap == 0.0

    def test_duplicates_never_raise_ap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gts = grid_boxes(int(rng.integers(1, 5)))
            preds = [pred(b, float(rng.uniform(0.5, 1.0)), source_id=i)
                     for i, (b, _) in enumerate(gts) if rng.random() < 0.8]
            base = average_precision(preds, gts).ap
            dups = preds + [ScoredBox(p.box, (p.score * 0.5,), 100 + i)
                            for i, p in enumerate(preds)]
            assert average_precision(dups, gts).ap <= base + 1e-12

    def test_score_rank_invariance(self):
        rng = np.random.default_rng(1)
        gts = grid_boxes(5)
        preds = [pred(b, s, source_id=i) for i, ((b, _), s) in
                 enumerate(zip(gts, [0.9, 0.7, 0.5, 0.3, 0.2]))]
        base = average_precision(preds, gts).ap
        squashed = [ScoredBox(p.box, (p.score ** 3,), p.source_id) for p in preds]
        assert average_precision(squashed, gts).ap == pytest.approx(base)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            average_precision([], [], iou_thresh=0.0)


class TestMeanAp:
    def test_single_class(self):
        curve = average_precision([], grid_boxes(2))
        assert mean_ap([curve]) == curve.ap

    def test_mean_of_two(self):
        a = average_precision([], [])          # 1.0
        b = average_precision([], grid_boxes(1))  # 0.0
        assert mean_ap([a, b]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ap([])

    def test_five_class_map(self):
        # per-class averaging over a five-category ground truth
        gts = [(OrientedBox(40 * i + 20, 20, 12, 12, 0), i) for i in range(5)]
        preds = [pred(b, 0.9, cls=c, n_classes=5, source_id=i)
                 for i, (b, c) in enumerate(gts) if c != 4]
        assert map_at(preds, gts) == pytest.approx(4 / 5)


class TestCorrespondence:
    def make_scene(self):
        return generate_scenes(SceneConfig(count=1, boxes_per_scene=5,
                                           shift_max=3.0, seed=0))[0]

    def test_all_correct(self):
        scene = self.make_scene()
        result = match_scene(scene.ir_boxes, list(scene.rgb_obs))
        score = correspondence_score(result, scene)
        assert score.precision == 1.0 and score.recall == 1.0

    def test_zero_pairs(self):
        scene = self.make_scene()
        empty = MatchResult((), tuple(i for i, _ in scene.ir_boxes),
                            tuple(o.source_id for o in scene.rgb_obs))
        score = correspondence_score(empty, scene)
        assert score.precision is None
        assert score.recall == 0.0

    def test_partial_counts(self):
        scene = self.make_scene()
        corr = scene.corr_map
        rgb_ids = list(corr)
        # two correct pairs and one deliberately wrong pair
        pairs = [(corr[rgb_ids[0]], rgb_ids[0], 0.9),
                 (corr[rgb_ids[1]], rgb_ids[1], 0.8),
                 (corr[rgb_ids[3]], rgb_ids[2], 0.7)]
        result = MatchResult(tuple(pairs), (), ())
        score = correspondence_score(result, scene)
        assert score.correct == 2
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 5)

    def test_precision_times_pairs_is_integer(self):
        rng = np.random.default_rng(2)
        scenes = generate_scenes(SceneConfig(count=10, shift_max=6.0,
                                             dropout_rate=0.2,
                                             spurious_rate=0.2, seed=3))
        for scene in scenes:
            result = match_scene(scene.ir_boxes, list(scene.rgb_obs))
            s = correspondence_score(result, scene)
            if s.precision is not None:
                assert (s.precision * s.pair_count) == pytest.approx(
                    round(s.precision * s.pair_count))

    def test_pooling(self):
        scenes = generate_scenes(SceneConfig(count=4, shift_max=3.0, seed=4))
        scores = [correspondence_score(
            match_scene(s.ir_boxes, list(s.rgb_obs)), s) for s in scenes]
        agg = pooled_correspondence(scores)
        assert agg.correct == sum(s.correct for s in scores)
        assert agg.precision == 1.0 and agg.recall == 1.0
