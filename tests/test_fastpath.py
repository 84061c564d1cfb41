"""Property tests of the fast paths against the code they replaced.

The pair table with its vectorized gate, the lean Dirichlet draw and the
IR detector's one-hot table must give the same results bit for bit as the
scalar loops and numpy forms kept here as references.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosspair.cli import EXIT_OK, run
from crosspair.correction import LabelPair
from crosspair.filtering import ScoredBox
from crosspair.geometry import OrientedBox, corners_of, iou, point_in_obb
from crosspair.matching import (MatchResult, _gate_mask, candidates_for,
                                match_scene, pair_table, search_region)
from crosspair.metrics import ordered_sum
from crosspair.records import file_digest
from crosspair.simulate import (Scene, SceneConfig, SimDetectorParams,
                                _detect_rng, _perturb_probs, detect,
                                generate_scenes, least_squares_offset,
                                pair_gradient)


def reference_match(ir_boxes, rgb_pool, beta=1.0, use_search_region=True):
    """The greedy matcher as it was before the pair table, verbatim."""
    ir_ids = [i for i, _ in ir_boxes]
    rgb_ids = [c.source_id for c in rgb_pool]
    if len(set(ir_ids)) != len(ir_ids):
        raise ValueError("duplicate reference ids")
    if len(set(rgb_ids)) != len(rgb_ids):
        raise ValueError("duplicate candidate ids")

    paired: set[int] = set()
    pairs = []
    unmatched_ir = []
    for ir_id, ir_box in sorted(ir_boxes, key=lambda t: t[0]):
        if use_search_region:
            cands = candidates_for(ir_box, rgb_pool, paired, beta)
        else:
            cands = [c for c in rgb_pool if c.source_id not in paired]
        best_id, best_iou = None, 0.0
        for c in cands:
            v = iou(ir_box, c.box)
            if v > best_iou or (v == best_iou and v > 0.0
                                and best_id is not None and c.source_id < best_id):
                best_id, best_iou = c.source_id, v
        if best_id is None:
            unmatched_ir.append(ir_id)
        else:
            paired.add(best_id)
            pairs.append((ir_id, best_id, best_iou))
    unmatched_rgb = [i for i in rgb_ids if i not in paired]
    return MatchResult(tuple(pairs), tuple(unmatched_ir), tuple(unmatched_rgb))


# Boxes on a coarse grid put centers exactly on region boundaries and give
# identical candidates (IoU ties); float boxes cover the general case.
grid_box = st.builds(
    OrientedBox,
    st.integers(0, 24).map(float), st.integers(0, 24).map(float),
    st.integers(2, 12).map(float), st.integers(2, 12).map(float),
    st.sampled_from([0.0, math.pi / 2, math.pi / 4, -0.7, 1.2]))
float_box = st.builds(
    OrientedBox,
    st.floats(0, 60), st.floats(0, 60), st.floats(3, 25), st.floats(3, 25),
    st.floats(-1.6, 1.6))
box = st.one_of(grid_box, float_box)


@st.composite
def scenes(draw):
    """(ir_boxes, candidates, pool): unique ids in shuffled order, and a
    random subset of the candidates as the pool."""
    ir = draw(st.lists(box, max_size=6))
    ir_ids = draw(st.permutations(range(len(ir))))
    cands = draw(st.lists(st.one_of(box, st.sampled_from(ir) if ir else box),
                          max_size=9))
    rgb_ids = draw(st.lists(st.integers(0, 40), min_size=len(cands),
                            max_size=len(cands), unique=True))
    candidates = [ScoredBox(b, (1.0,), j) for b, j in zip(cands, rgb_ids)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates),
                         max_size=len(candidates)))
    pool = [c for c, k in zip(candidates, keep) if k]
    return list(zip(ir_ids, ir)), candidates, pool


class TestMatcher:
    @settings(max_examples=300, deadline=None)
    @given(scenes(), st.sampled_from([0.5, 1.0, 2.0]), st.booleans())
    def test_equals_reference_with_and_without_table(self, scene, beta, gated):
        ir, candidates, pool = scene
        want = reference_match(ir, pool, beta, gated)
        assert match_scene(ir, pool, beta, gated) == want
        table = pair_table(ir, candidates, beta, gated)
        assert match_scene(ir, pool, beta, gated, table=table) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(box, max_size=5), st.lists(box, max_size=8),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_gate_equals_point_in_obb(self, irs, cands, beta):
        # the corners of every search region sit on its boundary up to
        # rounding, where only the containment slack decides
        corners = [OrientedBox(x, y, 1.0, 1.0, 0.0) for b in irs
                   for x, y in corners_of(search_region(b, beta).region).vertices]
        pool = [ScoredBox(b, (1.0,), j) for j, b in enumerate(cands + corners)]
        mask = _gate_mask(list(enumerate(irs)), pool, beta)
        assert mask.shape == (len(irs), len(pool))
        for i, ir_box in enumerate(irs):
            region = search_region(ir_box, beta).region
            assert mask[i].tolist() == [point_in_obb(c.center, region)
                                        for c in pool]

    def test_table_ranks_by_iou_then_id(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        same = OrientedBox(1, 0, 10, 10, 0)
        pool = [ScoredBox(same, (1.0,), 9), ScoredBox(same, (1.0,), 4),
                ScoredBox(OrientedBox(0, 0, 10, 10, 0), (1.0,), 7),
                ScoredBox(OrientedBox(40, 0, 10, 10, 0), (1.0,), 1)]
        ranked = pair_table(ir, pool, 1.0, True).ranked[0]
        assert [j for j, _ in ranked] == [7, 4, 9]
        assert ranked[0][1] == 1.0 and ranked[1][1] == ranked[2][1]

    def test_pool_id_outside_table_rejected(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        a = ScoredBox(OrientedBox(1, 0, 10, 10, 0), (1.0,), 1)
        b = ScoredBox(OrientedBox(2, 0, 10, 10, 0), (1.0,), 2)
        table = pair_table(ir, [a], 1.0, True)
        with pytest.raises(ValueError, match="not covered"):
            match_scene(ir, [a, b], 1.0, table=table)
        with pytest.raises(ValueError, match="not covered"):
            match_scene(ir + [(1, a.box)], [a], 1.0, table=table)

    def test_table_gate_must_match_call(self):
        ir = [(0, OrientedBox(0, 0, 10, 10, 0))]
        pool = [ScoredBox(OrientedBox(1, 0, 10, 10, 0), (1.0,), 1)]
        table = pair_table(ir, pool, 1.0, True)
        with pytest.raises(ValueError, match="beta"):
            match_scene(ir, pool, 2.0, table=table)
        with pytest.raises(ValueError, match="beta"):
            match_scene(ir, pool, 1.0, use_search_region=False, table=table)

    def test_duplicate_candidate_ids_rejected(self):
        b = OrientedBox(0, 0, 4, 4, 0)
        with pytest.raises(ValueError, match="duplicate"):
            pair_table([(0, b)], [ScoredBox(b, (1.0,), 3)] * 2)


def reference_perturb(rng, probs, scale):
    """_perturb_probs as it was before the lean draw, verbatim."""
    if scale <= 0:
        return probs
    noise = rng.dirichlet(np.ones(len(probs)))
    mix = min(1.0, rng.uniform(0.0, scale))
    out = (1.0 - mix) * np.asarray(probs) + mix * noise
    return tuple(float(p) for p in out / out.sum())


def _bits(values):
    return [float(v).hex() for v in values]


class TestDraw:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([0.05, 0.1, 0.7, 3.0]),
           st.integers(0, 2**32 - 1), st.data())
    def test_equals_dirichlet_uniform_reference(self, k, scale, seed, data):
        probs = tuple(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                         max_size=k)))
        probs = tuple(p + 1e-3 for p in probs)
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _perturb_probs(fast, probs, scale)
        want = reference_perturb(ref, probs, scale)
        assert all(type(p) is float for p in got)
        assert _bits(got) == _bits(want)
        # both consumed the same stream
        assert fast.random() == ref.random()

    def test_zero_scale_is_identity_and_draws_nothing(self):
        rng = np.random.default_rng(0)
        probs = (0.5, 0.5)
        assert _perturb_probs(rng, probs, 0.0) is probs
        assert rng.random() == np.random.default_rng(0).random()


def reference_detect_ir(params, scene, salt=0):
    """detect(..., "ir") as it was before the one-hot table, verbatim, with
    the draw it made then."""
    rng = _detect_rng(scene, salt)
    out = []
    n_classes = len(scene.rgb_obs[0].class_probs) if scene.rgb_obs else 5
    for ir_id, box, cls in scene.ir_gt:
        probs = np.eye(n_classes)[cls]
        probs = reference_perturb(rng, tuple(probs), params.confidence_noise)
        out.append(ScoredBox(box, probs, ir_id))
    return out


class TestDetectIr:
    # 9 classes take the pairwise branch of the normalizing total
    @pytest.mark.parametrize("classes", [5, 9])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_equals_eye_reference(self, noise, classes):
        cfg = SceneConfig(count=8, boxes_per_scene=6, dropout_rate=0.2,
                          spurious_rate=0.2, class_count=classes, seed=3)
        params = SimDetectorParams((1.5, -2.0), noise)
        for scene in generate_scenes(cfg):
            for salt in (0, 7):
                got = detect(params, scene, "ir", salt)
                want = reference_detect_ir(params, scene, salt)
                assert [(d.source_id, d.box, _bits(d.class_probs))
                        for d in got] == [(d.source_id, d.box,
                                           _bits(d.class_probs))
                                          for d in want]

    def test_class_out_of_range_raises(self):
        scene = generate_scenes(SceneConfig(count=1, boxes_per_scene=2,
                                            class_count=3))[0]
        ir_id, box, _ = scene.ir_gt[0]
        bad = Scene(scene.scene_id, scene.canvas, scene.true_offset,
                    ((ir_id, box, 3),), scene.rgb_obs)
        with pytest.raises(IndexError):
            detect(SimDetectorParams(), bad, "ir")


class TestOrderedSums:
    """Sums that reach output files add left to right on every interpreter;
    with compensated summation these terms would total 1.0, not 0.0."""
    TERMS = [1e16, 1.0, -1e16]

    def test_ordered_sum(self):
        assert ordered_sum(self.TERMS) == 0.0
        assert ordered_sum(iter(self.TERMS)) == 0.0
        assert ordered_sum([]) == 0.0

    def test_offsets(self):
        ir = OrientedBox(0.0, 0.0, 4.0, 4.0, 0.0)
        pairs = [LabelPair(ir, OrientedBox(t, t, 4.0, 4.0, 0.0), 0, "matched", 0)
                 for t in self.TERMS]
        assert least_squares_offset(pairs) == (0.0, 0.0)
        assert pair_gradient(SimDetectorParams(), pairs) == (0.0, 0.0)


# Digests of `simulate` + `pipeline` outputs recorded with the matcher and
# draw this module replaces (Python 3.11, numpy 2.4, x86-64 Linux). Any
# change to them is a change to an output byte.
SIMULATE = ["simulate", "--scenes", "20", "--boxes", "6", "--shift-max", "10",
            "--jitter", "0.5", "--dropout", "0.1", "--spurious", "0.2",
            "--seed", "11"]
SCHEDULE = ["--k1", "2", "--k2", "2", "--k3", "3", "--k4", "3"]
RECORDED = [
    ([], ("2fc0a35e9e16b9d955ea6c3009cf0bb12faab8f5682ea23f4cb66349b02b4728",
          "944d9a92520e9105e320555388e5a517e126abc0b07605de308a6e1ea82e41e9",
          "3906239236d548b0338ea17337b87952bf46a389fab2e64970e11872b3583303")),
    (["--iou-match-only", "--beta", "1.5", "--batch-size", "5"],
     ("9fcb46ec19e6b1a02594b4bc34b307ccbe167947ca7ff5894c7280a53231512b",
      "d32b5ea9d851a97e4896f798794930dfddf7687621c1f3d42833ae11dea06f9a",
      "3de5f970addc00dcc8381e655f7b5c412f96c9d5b8ef4ff60839f02b0fa8c3de")),
]


@pytest.mark.parametrize("flags,digests", RECORDED)
def test_pipeline_outputs_unchanged(tmp_path, flags, digests):
    scenes = tmp_path / "s.jsonl"
    out = tmp_path / "r.jsonl"
    assert run(SIMULATE + ["-o", str(scenes)]) == EXIT_OK
    assert run(["pipeline", "--input", str(scenes)] + SCHEDULE + flags
               + ["-o", str(out)]) == EXIT_OK
    got = tuple(file_digest(str(out) + suffix)
                for suffix in ("", ".csv", ".bags.jsonl"))
    assert got == digests
