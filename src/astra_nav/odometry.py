"""Odometry fusion and trajectory metrics.

Wheel, gyro, and visual-odometry increments are fused by weighted
averaging with renormalization over the sources present, and fused
increments are folded into a trajectory by SE(2) composition on plain
floats (`compose_xyt`), each increment's heading wrapped first.

Metrics follow the usual trajectory-evaluation triple:
  ATE  root-mean-square positional error, no alignment;
  RTE  mean relative translation error over 10 m sliding segments, in %;
  RRE  mean absolute relative heading error per segment, degrees per 10 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AstraError, check_fields
from .geom import Pose2, PoseTrajectory, compose_xyt, wrap_angle


class OdometryError(AstraError):
    pass


@dataclass
class SensorIncrement:
    """One fusion step: wheel (dx, dy, dtheta), gyro heading increment, optional
    visual-odometry (dx, dy, dtheta)."""

    wheel: tuple[float, float, float] | None = None
    imu_dtheta: float | None = None
    vision: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class FusionWeights:
    wheel_trans: float = 0.5
    vision_trans: float = 0.5
    wheel_rot: float = 0.2
    imu_rot: float = 0.6
    vision_rot: float = 0.2

    def __post_init__(self):
        check_fields(self, OdometryError, "finite and >= 0",
                     "wheel_trans", "vision_trans", "wheel_rot", "imu_rot", "vision_rot")


# the weights of every call that passes none, and of the navigation loop, checked once here
DEFAULT_WEIGHTS = FusionWeights()


def fuse_sources(wheel, imu_dtheta, vision, w: FusionWeights) -> tuple[float, float, float]:
    """`fuse_increment` on the sources themselves: wheel and vision each
    (dx, dy, dtheta) or None, imu_dtheta a float or None. Each weighted sum
    starts at int 0 and adds the sources in the order wheel, imu, vision, as
    `sum` over a list of them would, so a lone -0.0 term fuses to +0.0."""
    if wheel is None and vision is None:
        # no translation source; an increment without one is refused even
        # when it carries a rotation source
        raise OdometryError("increment carries no usable source")
    tw = rw = tx = ty = rt = 0
    if wheel is not None:
        tw += w.wheel_trans
        tx += w.wheel_trans * wheel[0]
        ty += w.wheel_trans * wheel[1]
        rw += w.wheel_rot
        rt += w.wheel_rot * wheel[2]
    if imu_dtheta is not None:
        rw += w.imu_rot
        rt += w.imu_rot * imu_dtheta
    if vision is not None:
        tw += w.vision_trans
        tx += w.vision_trans * vision[0]
        ty += w.vision_trans * vision[1]
        rw += w.vision_rot
        rt += w.vision_rot * vision[2]
    if tw <= 0 or rw <= 0:
        raise OdometryError("active fusion weights sum to zero")
    return (tx / tw, ty / tw, rt / rw)


def fuse_increment(
    inc: SensorIncrement, weights: FusionWeights | None = None
) -> tuple[float, float, float]:
    """Weighted mean of the available sources; absent sources drop out and the
    remaining weights renormalize."""
    return fuse_sources(inc.wheel, inc.imu_dtheta, inc.vision, weights or DEFAULT_WEIGHTS)


def dead_reckon(
    increments: list[SensorIncrement], start: Pose2, weights: FusionWeights | None = None
) -> PoseTrajectory:
    """Fold fused increments through pose composition from the start pose,
    each increment's heading wrapped before it is composed."""
    poses = [start.as_tuple()]
    for inc in increments:
        dx, dy, dth = fuse_increment(inc, weights)
        poses.append(compose_xyt(*poses[-1], dx, dy, wrap_angle(dth)))
    return PoseTrajectory(poses)


def _segment_ends(cum: np.ndarray, length: float) -> list[tuple[int, int]]:
    """(start, end) index pairs where the gt arc length first reaches start+length.

    `cum` never decreases, so each end is one binary search, as in
    `sim._lookahead_index`, and the ends never decrease either: the pairs
    stop at the first start whose end lies past the last index."""
    ends = np.searchsorted(cum, cum + length)
    return list(enumerate(ends[: np.searchsorted(ends, len(cum))].tolist()))


def traj_metrics(est: PoseTrajectory, gt: PoseTrajectory) -> dict[str, float]:
    """ATE (m), RTE (%), RRE (deg / 10 m) between an estimate and ground truth.

    Relative errors compare per-segment increments expressed in the segment's
    start frame, so a rigid start offset scores zero. Trajectories shorter
    than 10 m fall back to a single whole-span segment.
    """
    if len(est) != len(gt):
        raise OdometryError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    if len(gt) < 2:
        raise OdometryError("trajectories need at least two poses")
    e = est.as_array()
    g = gt.as_array()
    steps = np.hypot(*np.diff(g[:, :2], axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if cum[-1] <= 0:
        raise OdometryError("ground-truth path length must be positive")
    ate = float(np.sqrt(np.mean(np.sum((e[:, :2] - g[:, :2]) ** 2, axis=1))))
    pairs = _segment_ends(cum, 10.0)
    if not pairs:
        pairs = [(0, len(gt) - 1)]
    rte_terms = []
    rre_terms = []
    for i, j in pairs:
        seg_len = cum[j] - cum[i]
        rel_g = _relative_xy(g, i, j)
        rel_e = _relative_xy(e, i, j)
        rte_terms.append(np.linalg.norm(rel_e - rel_g) / seg_len * 100.0)
        dth = abs(wrap_angle((e[j, 2] - e[i, 2]) - (g[j, 2] - g[i, 2])))
        rre_terms.append(math.degrees(dth) * (10.0 / seg_len))
    return {
        "rte_percent": float(np.mean(rte_terms)),
        "rre_deg_per_10m": float(np.mean(rre_terms)),
        "ate_m": ate,
    }


def _relative_xy(arr: np.ndarray, i: int, j: int) -> np.ndarray:
    """Translation from pose i to pose j, expressed in pose i's frame."""
    c, s = math.cos(arr[i, 2]), math.sin(arr[i, 2])
    dx, dy = arr[j, 0] - arr[i, 0], arr[j, 1] - arr[i, 1]
    return np.array([c * dx + s * dy, -s * dx + c * dy])
