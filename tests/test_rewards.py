import math

import numpy as np
import pytest

from astra_nav.errors import UnknownConfigKeyError
from astra_nav.geom import Pose2
from astra_nav.rewards import (
    CoarseGroundTruth,
    CoarseOutput,
    RewardError,
    RewardWeights,
    canonical_landmark,
    coarse_reward,
    covis_reward,
    covis_total,
    extra_reward,
    format_reward,
    landmark_reward,
    map_reward,
)


def test_weights_must_sum_to_one():
    with pytest.raises(RewardError):
        RewardWeights(w_d=0.7, w_theta=0.7)
    RewardWeights(w_d=0.25, w_theta=0.75)  # fine


def test_weights_from_an_empty_object_are_the_defaults():
    assert RewardWeights.from_jsonable({}) == RewardWeights()
    assert RewardWeights.from_jsonable({"lambda": 2.0}) == RewardWeights(decay=2.0)


def test_weights_name_a_misspelt_key_before_checking_values():
    # w_d 0.7 alone breaks the w_d + w_theta sum; the misspelt key is reported first
    with pytest.raises(UnknownConfigKeyError, match="'bogus'"):
        RewardWeights.from_jsonable({"w_d": 0.7, "bogus": 1})


def test_format_reward():
    assert format_reward(CoarseOutput(True)) == 1.0
    assert format_reward(CoarseOutput(False)) == 0.0


def test_format_reward_round_trip_parse():
    import json

    doc = json.loads('{"format_valid": true, "landmarks": [], "ids": ["lm1"]}')
    out = CoarseOutput(doc["format_valid"], set(), set(doc["ids"]))
    assert format_reward(out) == 1.0


class TestLandmarkReward:
    def test_exact(self):
        s = {canonical_landmark("sofa", {"color": "gray"})}
        assert landmark_reward(s, set(s)) == 1.0

    def test_disjoint(self):
        a = {canonical_landmark("sofa")}
        b = {canonical_landmark("door")}
        assert landmark_reward(a, b) == 0.0

    def test_three_of_four(self):
        gt = {canonical_landmark(c) for c in ("sofa", "door", "shelf", "tv")}
        pred = {canonical_landmark(c) for c in ("sofa", "door", "shelf", "plant")}
        assert landmark_reward(pred, gt) == pytest.approx(0.75)

    def test_synonym_categories_count_as_equal(self):
        assert canonical_landmark("couch") == canonical_landmark("sofa")
        assert landmark_reward({canonical_landmark("couch")}, {canonical_landmark("sofa")}) == 1.0

    def test_empty_gt_is_error(self):
        with pytest.raises(RewardError):
            landmark_reward(set(), set())

    def test_not_symmetric(self):
        gt = {canonical_landmark("sofa")}
        pred = {canonical_landmark("sofa"), canonical_landmark("door")}
        assert landmark_reward(pred, gt) == 1.0
        assert landmark_reward(gt, pred) == 0.5


class TestMapReward:
    def test_identical(self):
        assert map_reward({"1", "2"}, {"1", "2"}) == 1.0

    def test_disjoint(self):
        assert map_reward({"1"}, {"2"}) == 0.0

    def test_iou(self):
        assert map_reward({"1", "2", "3"}, {"2", "3", "4"}) == pytest.approx(0.5)

    def test_both_empty_is_error(self):
        with pytest.raises(RewardError):
            map_reward(set(), set())

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = set(rng.choice(20, rng.integers(0, 8), replace=False).tolist())
            b = set(rng.choice(20, rng.integers(1, 8), replace=False).tolist())
            if not a and not b:
                continue
            assert map_reward(a, b) == map_reward(b, a)


class TestExtraReward:
    def test_zero_error(self):
        w = RewardWeights(decay=1.0)
        assert extra_reward(Pose2(1, 1, 0.5), Pose2(1, 1, 0.5), w) == 1.0

    def test_hand_value(self):
        w = RewardWeights(decay=1.0, w_d=0.5, w_theta=0.5)
        r = extra_reward(Pose2(2, 0, 0.4), Pose2(0, 0, 0.0), w)
        assert r == pytest.approx(math.exp(-1.2))
        assert round(r, 5) == 0.30119

    def test_lambda_zero(self):
        w = RewardWeights(decay=0.0)
        assert extra_reward(Pose2(50, 50, 3), Pose2(0, 0, 0), w) == 1.0

    def test_angle_wraps(self):
        w = RewardWeights(decay=1.0, w_d=0.0, w_theta=1.0)
        near = extra_reward(Pose2(0, 0, math.pi - 0.05), Pose2(0, 0, -math.pi + 0.05), w)
        assert near == pytest.approx(math.exp(-0.1))

    def test_monotone_in_distance_and_angle(self):
        w = RewardWeights(decay=2.0)
        vals_d = [extra_reward(Pose2(d, 0, 0), Pose2(0, 0, 0), w) for d in np.linspace(0, 3, 7)]
        assert all(a > b for a, b in zip(vals_d[:-1], vals_d[1:]))
        vals_t = [
            extra_reward(Pose2(0, 0, t), Pose2(0, 0, 0), w) for t in np.linspace(0, 3, 7)
        ]
        assert all(a > b for a, b in zip(vals_t[:-1], vals_t[1:]))


class TestCoarseReward:
    def test_perfect_output(self):
        lm = {canonical_landmark("sofa", {"color": "gray"})}
        out = CoarseOutput(True, lm, {"lm1"}, [Pose2(0, 0, 0)])
        gt = CoarseGroundTruth(lm, {"lm1"}, Pose2(0, 0, 0))
        assert coarse_reward(out, gt, RewardWeights())["total"] == pytest.approx(4.0)

    def test_all_wrong(self):
        out = CoarseOutput(False, {canonical_landmark("door")}, {"x"})
        gt = CoarseGroundTruth({canonical_landmark("sofa")}, {"y"}, Pose2())
        assert coarse_reward(out, gt, RewardWeights())["total"] == 0.0

    def test_component_sum(self):
        gt_landmarks = {canonical_landmark(c) for c in ("sofa", "door", "shelf", "tv")}
        pred_landmarks = {canonical_landmark(c) for c in ("sofa", "door", "shelf")}
        out = CoarseOutput(True, pred_landmarks, {"1", "2", "3"}, [Pose2(2, 0, 0.4)])
        gt = CoarseGroundTruth(gt_landmarks, {"2", "3", "4"}, Pose2(0, 0, 0))
        w = RewardWeights(decay=1.0, w_d=0.5, w_theta=0.5)
        parts = coarse_reward(out, gt, w)
        assert parts["format"] == 1.0
        assert parts["landmark"] == pytest.approx(0.75)
        assert parts["map"] == pytest.approx(0.5)
        assert parts["extra"] == pytest.approx(0.30119, abs=5e-6)
        assert parts["total"] == pytest.approx(2.55119, abs=5e-6)

    def test_extra_mean_over_poses(self):
        lm = {canonical_landmark("sofa")}
        w = RewardWeights(decay=1.0, w_d=1.0, w_theta=0.0)
        out = CoarseOutput(True, lm, {"1"}, [Pose2(0, 0, 0), Pose2(1, 0, 0)])
        gt = CoarseGroundTruth(lm, {"1"}, Pose2(0, 0, 0))
        parts = coarse_reward(out, gt, w)
        assert parts["extra"] == pytest.approx((1.0 + math.exp(-1.0)) / 2)

    def test_components_bounded(self):
        rng = np.random.default_rng(8)
        cats = ["sofa", "door", "shelf", "tv", "plant"]
        for _ in range(50):
            pred = {canonical_landmark(c) for c in rng.choice(cats, rng.integers(0, 4), replace=False)}
            gt_lms = {canonical_landmark(c) for c in rng.choice(cats, rng.integers(1, 4), replace=False)}
            out = CoarseOutput(
                bool(rng.integers(2)),
                pred,
                set(rng.choice(9, rng.integers(0, 5), replace=False).tolist()),
                [Pose2(*rng.uniform(-3, 3, 2), rng.uniform(-3, 3))],
            )
            gt = CoarseGroundTruth(
                gt_lms,
                set(rng.choice(9, rng.integers(1, 5), replace=False).tolist()),
                Pose2(),
            )
            parts = coarse_reward(out, gt, RewardWeights())
            for key in ("format", "landmark", "map", "extra"):
                assert 0.0 <= parts[key] <= 1.0
            assert 0.0 <= parts["total"] <= 4.0


class TestCovis:
    def test_equal_scores(self):
        assert covis_reward(0.4, 0.4) == 1.0

    def test_extremes(self):
        assert covis_reward(1.0, 0.0) == 0.0

    def test_hand_value(self):
        assert covis_reward(0.8, 0.55) == pytest.approx(0.75)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = rng.random(2)
            assert covis_reward(a, b) == covis_reward(b, a)

    def test_out_of_range(self):
        with pytest.raises(RewardError):
            covis_reward(1.2, 0.5)

    def test_total(self):
        assert covis_total(1.0, 1.0, 1.0) == 2.0
        assert covis_total(0.0, 0.75, 2.0) == 1.5
        assert covis_total(1.0, 0.3, 0.0) == 1.0
