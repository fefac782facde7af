"""Odometry fusion and trajectory metrics.

Wheel, gyro, and visual-odometry increments are fused by weighted
averaging with renormalization over the sources present, at the fixed
weights below (`_WHEEL_TRANS` to `_VISION_ROT`), and fused increments are
folded into a trajectory by SE(2) composition on plain floats
(`compose_xyt`), each increment's heading wrapped first.

Metrics follow the usual trajectory-evaluation triple:
  ATE  root-mean-square positional error, no alignment;
  RTE  mean relative translation error over 10 m sliding segments, in %;
  RRE  mean absolute relative heading error per segment, degrees per 10 m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AstraError
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


# The fusion weights: translation from wheel and vision, heading from all three.
_WHEEL_TRANS = 0.5
_VISION_TRANS = 0.5
_WHEEL_ROT = 0.2
_IMU_ROT = 0.6
_VISION_ROT = 0.2


def fuse_sources(wheel, imu_dtheta, vision) -> tuple[float, float, float]:
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
        tw += _WHEEL_TRANS
        tx += _WHEEL_TRANS * wheel[0]
        ty += _WHEEL_TRANS * wheel[1]
        rw += _WHEEL_ROT
        rt += _WHEEL_ROT * wheel[2]
    if imu_dtheta is not None:
        rw += _IMU_ROT
        rt += _IMU_ROT * imu_dtheta
    if vision is not None:
        tw += _VISION_TRANS
        tx += _VISION_TRANS * vision[0]
        ty += _VISION_TRANS * vision[1]
        rw += _VISION_ROT
        rt += _VISION_ROT * vision[2]
    return (tx / tw, ty / tw, rt / rw)


def fuse_increment(inc: SensorIncrement) -> tuple[float, float, float]:
    """Weighted mean of the available sources; absent sources drop out and the
    remaining weights renormalize."""
    return fuse_sources(inc.wheel, inc.imu_dtheta, inc.vision)


def dead_reckon(increments: list[SensorIncrement], start: Pose2) -> PoseTrajectory:
    """Fold fused increments through pose composition from the start pose,
    each increment's heading wrapped before it is composed."""
    poses = [start.as_tuple()]
    for inc in increments:
        dx, dy, dth = fuse_increment(inc)
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
