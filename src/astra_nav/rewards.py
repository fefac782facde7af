"""Rule-based reward signals for localization fine-tuning rollouts.

The coarse-localization reward is the sum of four normalized components:
format validity (0/1), landmark recall |P n G| / |G|, map-id IoU
|P n G| / |P u G|, and an extra-landmark credit exp(-lambda * (w_d * d +
w_theta * |dphi|)) that decays with the pose error of novel-but-correct
landmarks. The co-visibility stage is scored as R_format + lambda *
(1 - |S_gt - S_pred|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AstraError, UnknownConfigKeyError, check_fields
from .geom import Pose2, wrap_angle
from .localization import canonical_category


class RewardError(AstraError):
    pass


# the field of RewardWeights that each key of a weights file sets
_WEIGHT_FIELDS = {"lambda": "decay", "w_d": "w_d", "w_theta": "w_theta", "covis_lambda": "covis_lambda"}


@dataclass
class RewardWeights:
    """decay ("lambda" in a weights file; per m or rad of weighted pose error)
    and covis_lambda (unitless weight of the co-visibility score): finite and
    >= 0. w_d (on the distance in m) and w_theta (on the heading error in
    rad): within [0, 1], summing to 1."""

    decay: float = 1.0
    w_d: float = 0.5
    w_theta: float = 0.5
    covis_lambda: float = 1.0

    def __post_init__(self):
        check_fields(self, RewardError, "finite and >= 0", "decay", "covis_lambda")
        check_fields(self, RewardError, "within [0, 1]", "w_d", "w_theta")
        if abs(self.w_d + self.w_theta - 1.0) > 1e-9:
            raise RewardError("w_d + w_theta must equal 1")

    @classmethod
    def from_jsonable(cls, data: dict) -> "RewardWeights":
        """Weights from a JSON object whose keys are among "lambda", "w_d",
        "w_theta" and "covis_lambda", each absent one at its default; any
        other key raises UnknownConfigKeyError before a value is checked."""
        if not isinstance(data, dict):
            raise ValueError("reward weights must be a JSON object")
        for key in data:
            if key not in _WEIGHT_FIELDS:
                raise UnknownConfigKeyError(key, "reward weights")
        return cls(**{_WEIGHT_FIELDS[key]: value for key, value in data.items()})


def canonical_landmark(category: str, attributes: dict[str, str] | None = None):
    """Frozen comparable form: (canonical category, sorted lowercased attribute pairs)."""
    attrs = attributes or {}
    return (
        canonical_category(category),
        tuple(sorted((k.strip().lower(), v.strip().lower()) for k, v in attrs.items())),
    )


@dataclass
class CoarseOutput:
    """The structured result of one coarse-localization rollout."""

    format_valid: bool
    predicted_landmarks: set = field(default_factory=set)
    predicted_ids: set = field(default_factory=set)
    extra_poses: list[Pose2] = field(default_factory=list)


@dataclass
class CoarseGroundTruth:
    landmarks: set
    ids: set
    pose: Pose2 | None = None


def format_reward(output: CoarseOutput) -> float:
    return 1.0 if output.format_valid else 0.0


def landmark_reward(pred: set, gt: set) -> float:
    """Recall of ground-truth landmark descriptions: |P n G| / |G|."""
    if not gt:
        raise RewardError("ground-truth landmark set must be nonempty")
    return len(pred & gt) / len(gt)


def map_reward(pred_ids: set, gt_ids: set) -> float:
    """IoU between predicted and ground-truth landmark ids."""
    if not pred_ids and not gt_ids:
        raise RewardError("predicted and ground-truth id sets are both empty")
    return len(pred_ids & gt_ids) / len(pred_ids | gt_ids)


def extra_reward(pred_pose: Pose2, gt_pose: Pose2, weights: RewardWeights) -> float:
    """exp(-lambda * (w_d * distance + w_theta * |heading error|)), error wrapped to [0, pi]."""
    d = math.hypot(pred_pose.x - gt_pose.x, pred_pose.y - gt_pose.y)
    dphi = abs(wrap_angle(pred_pose.theta - gt_pose.theta))
    return math.exp(-weights.decay * (weights.w_d * d + weights.w_theta * dphi))


def coarse_reward(
    output: CoarseOutput, gt: CoarseGroundTruth, weights: RewardWeights
) -> dict[str, float]:
    """All four components plus their sum; the extra term is 0 with no extra landmarks
    and the mean of per-landmark credits otherwise."""
    r_format = format_reward(output)
    r_landmark = landmark_reward(output.predicted_landmarks, gt.landmarks)
    r_map = map_reward(output.predicted_ids, gt.ids)
    if output.extra_poses and gt.pose is not None:
        r_extra = sum(extra_reward(p, gt.pose, weights) for p in output.extra_poses) / len(
            output.extra_poses
        )
    else:
        r_extra = 0.0
    total = r_format + r_landmark + r_map + r_extra
    return {
        "format": r_format,
        "landmark": r_landmark,
        "map": r_map,
        "extra": r_extra,
        "total": total,
    }


def covis_reward(s_gt: float, s_pred: float) -> float:
    """Agreement of co-visibility scores: 1 - |S_gt - S_pred|."""
    for name, s in (("s_gt", s_gt), ("s_pred", s_pred)):
        if not 0.0 <= s <= 1.0:
            raise RewardError(f"{name} must lie in [0, 1], got {s}")
    return 1.0 - abs(s_gt - s_pred)


def covis_total(format_r: float, covis_r: float, covis_lambda: float) -> float:
    """Filtering-stage total: R_format + lambda * R_covis."""
    return format_r + covis_lambda * covis_r
