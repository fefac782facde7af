import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from astra_nav import odometry
from astra_nav.geom import Pose2, PoseTrajectory, compose_xyt, wrap_angle
from astra_nav.odometry import (
    OdometryError,
    SensorIncrement,
    dead_reckon,
    fuse_increment,
    fuse_sources,
    traj_metrics,
)


def compose(a, b):
    """a (+) b on `Pose2`s; b's heading is wrapped as a `Pose2` holds it."""
    return Pose2(*compose_xyt(*a.as_tuple(), *b.as_tuple()))


class TestFusion:
    def test_wheel_only(self):
        inc = SensorIncrement(wheel=(0.2, 0.01, 0.05))
        assert fuse_increment(inc) == pytest.approx((0.2, 0.01, 0.05))

    def test_rotation_mean(self):
        # heading weights 0.2 wheel, 0.6 IMU
        inc = SensorIncrement(wheel=(0.1, 0.0, 0.10), imu_dtheta=0.12)
        assert fuse_increment(inc)[2] == pytest.approx(0.115)

    def test_consensus(self):
        inc = SensorIncrement(wheel=(0.2, 0.0, 0.05), imu_dtheta=0.05, vision=(0.2, 0.0, 0.05))
        assert fuse_increment(inc) == pytest.approx((0.2, 0.0, 0.05))

    def test_no_source(self):
        with pytest.raises(OdometryError):
            fuse_increment(SensorIncrement())


def ref_fuse(wheel, imu_dtheta, vision):
    """The weighted mean written out: `sum` over the present sources, in the
    order wheel, IMU, vision, at the shipped weights (translation 0.5 wheel,
    0.5 vision; heading 0.2 wheel, 0.6 IMU, 0.2 vision)."""
    trans = [(0.5, s) for s in (wheel, vision) if s is not None]
    rot = [(w, v) for w, v in ((0.2, wheel and wheel[2]), (0.6, imu_dtheta), (0.2, vision and vision[2]))
           if v is not None]
    tw = sum(w for w, _ in trans)
    rw = sum(w for w, _ in rot)
    return (sum(w * s[0] for w, s in trans) / tw, sum(w * s[1] for w, s in trans) / tw,
            sum(w * v for w, v in rot) / rw)


_VALUE = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6))
_TRIPLE = st.tuples(_VALUE, _VALUE, _VALUE)


@given(st.one_of(st.none(), _TRIPLE), st.one_of(st.none(), _VALUE), st.one_of(st.none(), _TRIPLE))
@example((-0.0, -0.0, -0.0), -0.0, None)  # a lone -0.0 fuses to +0.0
@example((0.1, 0.0, 0.44), -0.54, (0.1, 0.0, 0.89))  # adding vision before IMU changes the last bit
def test_fuse_sources_is_the_weighted_mean_to_the_bit(wheel, imu_dtheta, vision):
    if wheel is None and vision is None:
        with pytest.raises(OdometryError):
            fuse_sources(wheel, imu_dtheta, vision)
        return
    got = fuse_sources(wheel, imu_dtheta, vision)
    assert np.array(got).tobytes() == np.array(ref_fuse(wheel, imu_dtheta, vision)).tobytes()


class TestDeadReckon:
    def test_empty(self):
        start = Pose2(1, 2, 0.3)
        out = dead_reckon([], start)
        assert len(out) == 1 and out[0] == start

    def test_matches_the_pose_fold_bit_for_bit(self):
        # fused headings beyond pi: each is wrapped before it is composed
        rng = np.random.default_rng(4)
        incs = [SensorIncrement(wheel=tuple(w), imu_dtheta=float(i), vision=tuple(v))
                for w, i, v in zip(rng.uniform(-4, 4, (300, 3)), rng.uniform(-6, 6, 300),
                                   rng.uniform(-4, 4, (300, 3)))]
        start = Pose2(0.5, -1.5, 3.0)
        want = [start]
        for inc in incs:
            want.append(compose(want[-1], Pose2(*odometry.fuse_increment(inc))))
        got = dead_reckon(incs, start).as_array()
        assert got.tobytes() == np.array([p.as_tuple() for p in want]).tobytes()

    def test_straight(self):
        incs = [SensorIncrement(wheel=(1.0, 0.0, 0.0))] * 3
        out = dead_reckon(incs, Pose2())
        assert out[-1].x == pytest.approx(3.0)

    def test_noisy_circle_within_drift_bound(self):
        # heading-noise-only circle: final position error is bounded by the
        # linearized drift  radius_path * sum |heading error| <= path_len * max|Theta|
        rng = np.random.default_rng(0)
        n, loops, radius, sigma = 400, 2, 2.0, 0.005
        dth = 2 * math.pi * loops / n
        step = 2 * radius * math.sin(dth / 2)
        noises = rng.normal(0, sigma, n)
        gt = [Pose2()]
        est_incs = []
        for k in range(n):
            gt.append(compose(gt[-1], Pose2(step, 0, dth)))
            est_incs.append(SensorIncrement(wheel=(step, 0.0, dth + noises[k])))
        est = dead_reckon(est_incs, Pose2())
        err = np.hypot(*(est.as_array()[:, :2] - [(p.x, p.y) for p in gt]).T)
        cum_heading_err = np.abs(np.cumsum(noises)).max()
        bound = (n * step) * cum_heading_err * 1.5 + 1e-6
        assert err.max() <= bound


class TestMetrics:
    def straight(self, n=101, step=1.0, scale=1.0):
        return PoseTrajectory([(i * step * scale, 0.0, 0.0) for i in range(n)])

    def test_identical_is_zero(self):
        gt = self.straight()
        m = traj_metrics(gt, gt)
        assert m == {"rte_percent": 0.0, "rre_deg_per_10m": 0.0, "ate_m": 0.0}

    def test_rigid_offset(self):
        gt = self.straight()
        est = PoseTrajectory(gt.as_array() + (1.0, 0.0, 0.0))
        m = traj_metrics(est, gt)
        assert m["ate_m"] == pytest.approx(1.0)
        assert m["rte_percent"] == pytest.approx(0.0, abs=1e-12)
        assert m["rre_deg_per_10m"] == pytest.approx(0.0, abs=1e-12)

    def test_scaled_steps_give_exact_rte(self):
        gt = self.straight(101, 1.0)
        est = self.straight(101, 1.0, scale=1.05)
        m = traj_metrics(est, gt)
        assert m["rte_percent"] == pytest.approx(5.0, abs=1e-6)
        assert m["rre_deg_per_10m"] == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(OdometryError):
            traj_metrics(self.straight(5), self.straight(6))

    def test_zero_length_gt(self):
        still = PoseTrajectory(np.zeros((2, 3)))
        with pytest.raises(OdometryError):
            traj_metrics(still, still)

    def test_short_path_falls_back_to_whole_span(self):
        gt = self.straight(6, 0.5)  # 2.5 m « 10 m segment
        est = PoseTrajectory(gt.as_array() * (1.1, 0.0, 0.0))
        m = traj_metrics(est, gt)
        assert m["rte_percent"] == pytest.approx(10.0)

    def test_heading_error_scales_to_degrees(self):
        gt = self.straight(101, 1.0)
        rows = gt.as_array().copy()
        rows[50:, 2] = math.radians(2.0)
        est = PoseTrajectory(rows)
        m = traj_metrics(est, gt)
        # segments spanning index 50 see a 2 degree relative heading error per 10 m
        assert 0.0 < m["rre_deg_per_10m"] <= 2.0


def ref_segment_ends(cum, length):
    """The walk `_segment_ends` replaced: per start i, the end j moves on
    until cum[j] reaches cum[i] + length; the pairs stop at the first start
    whose end runs off the array."""
    pairs = []
    n = len(cum)
    j = 0
    for i in range(n):
        target = cum[i] + length
        while j < n and cum[j] < target:
            j += 1
        if j >= n:
            break
        pairs.append((i, j))
    return pairs


def test_segment_ends_match_the_walk():
    rng = np.random.default_rng(5)
    for _ in range(3000):
        steps = rng.uniform(0.0, 2.0, rng.integers(0, 40))
        steps[rng.random(len(steps)) < 0.3] = 0.0  # zero-length steps tie arc lengths
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        length = float(rng.choice([0.0, rng.uniform(0.0, 12.0), 10.0]))
        pairs = odometry._segment_ends(cum, length)
        assert pairs == ref_segment_ends(cum, length)
        assert all(type(i) is int and type(j) is int for i, j in pairs)


def fold(steps):
    """(dx, dy, dtheta) steps composed from the origin, each heading wrapped
    first as `dead_reckon` wraps it: the (n + 1, 2) positions."""
    poses = [(0.0, 0.0, 0.0)]
    for dx, dy, dth in steps:
        poses.append(compose_xyt(*poses[-1], dx, dy, wrap_angle(dth)))
    return np.array(poses)[:, :2]


class TestFusedBeatsSingles:
    def _run(self, seed, n_segments=30, seg_steps=60, sigma=0.01):
        rng = np.random.default_rng(seed)
        sq = {k: [] for k in ("wheel", "imu", "fused")}
        for _ in range(n_segments):
            dth = rng.uniform(-0.08, 0.08)
            actions = [(0.2, 0.0, dth)] * seg_steps
            gt = [Pose2()]
            for a in actions:
                gt.append(compose(gt[-1], Pose2(*a)))
            gt_xy = np.array([[p.x, p.y] for p in gt])
            wheel_noise = rng.normal(0, sigma, seg_steps)
            imu_noise = rng.normal(0, sigma, seg_steps)
            incs = [
                SensorIncrement(wheel=(a[0], a[1], a[2] + w), imu_dtheta=a[2] + i)
                for a, w, i in zip(actions, wheel_noise, imu_noise)
            ]
            # the shipped weights against the wheel's heading alone and the IMU's alone
            ests = {
                "wheel": fold(inc.wheel for inc in incs),
                "imu": fold((*inc.wheel[:2], inc.imu_dtheta) for inc in incs),
                "fused": dead_reckon(incs, Pose2()).as_array()[:, :2],
            }
            for name, est in ests.items():
                sq[name].extend(((est - gt_xy) ** 2).sum(axis=1).tolist())
        return {k: math.sqrt(np.mean(v)) for k, v in sq.items()}

    def test_fusion_wins_on_90_percent_of_seeds(self):
        wins = 0
        for seed in range(100):
            r = self._run(seed)
            if r["fused"] <= r["wheel"] and r["fused"] <= r["imu"]:
                wins += 1
        assert wins >= 90
