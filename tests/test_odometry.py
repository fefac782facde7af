import math

import numpy as np
import pytest

from astra_nav.errors import GeometryMismatchError
from astra_nav.esdf import Grid
from astra_nav.geom import Pose2, PoseTrajectory, compose_se2
from astra_nav.odometry import (
    FusionWeights,
    OdometryError,
    SensorIncrement,
    correlation_volume,
    dead_reckon,
    fuse_increment,
    grid_match,
    rotate_grid,
    traj_metrics,
)


def random_grid(rng, h=24, w=24, res=0.2):
    return Grid(rng.random((h, w)) < 0.35, res)


def shifted(grid: Grid, sx: int, sy: int) -> Grid:
    out = np.zeros_like(grid.values)
    h, w = grid.values.shape
    ys, ye = max(0, sy), h + min(0, sy)
    xs, xe = max(0, sx), w + min(0, sx)
    out[ys:ye, xs:xe] = grid.values[ys - sy : ye - sy, xs - sx : xe - sx]
    return Grid(out, grid.resolution)


class TestCorrelationVolume:
    def test_identical_grids_peak_at_center(self):
        grid = random_grid(np.random.default_rng(0))
        vol = correlation_volume(grid, grid)
        assert vol.best_shift() == (0, 0)
        assert vol.scores[3, 3] == pytest.approx(1.0)

    def test_unit_shift(self):
        grid = random_grid(np.random.default_rng(1))
        vol = correlation_volume(grid, shifted(grid, 1, 0))
        assert vol.best_shift() == (1, 0)

    def test_uniform_grids_tie_to_center(self):
        grid = Grid(np.zeros((16, 16), bool), 0.2)
        vol = correlation_volume(grid, grid)
        assert (vol.scores == 0).all()
        assert vol.best_shift() == (0, 0)

    def test_geometry_mismatch(self):
        a = Grid(np.zeros((8, 8), bool), 0.2)
        b = Grid(np.zeros((8, 9), bool), 0.2)
        with pytest.raises(GeometryMismatchError):
            correlation_volume(a, b)

    def test_even_window_rejected(self):
        grid = random_grid(np.random.default_rng(2))
        with pytest.raises(OdometryError):
            correlation_volume(grid, grid, window=6)

    def test_recovers_all_window_shifts(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            grid = random_grid(rng)
            for sx in range(-3, 4):
                for sy in range(-3, 4):
                    vol = correlation_volume(grid, shifted(grid, sx, sy))
                    assert vol.best_shift() == (sx, sy), (trial, sx, sy)


class TestGridMatch:
    def test_identical(self):
        grid = random_grid(np.random.default_rng(4))
        assert grid_match(grid, grid) == (0.0, 0.0, 0.0)

    def test_pure_translation(self):
        grid = random_grid(np.random.default_rng(5))
        dx, dy, dth = grid_match(grid, shifted(grid, 2, 0))
        assert (dx, dy, dth) == (pytest.approx(0.4), 0.0, 0.0)

    def test_pure_rotation(self):
        rng = np.random.default_rng(6)
        grid = Grid(rng.random((32, 32)) < 0.3, 0.2)
        rotated = Grid(rotate_grid(grid, 0.1) > 0.5, 0.2)
        dx, dy, dth = grid_match(grid, rotated, angle_set=(-0.1, -0.05, 0.0, 0.05, 0.1))
        assert dth == pytest.approx(0.1)
        assert abs(dx) <= 0.2 and abs(dy) <= 0.2

    def test_empty_angle_set(self):
        grid = random_grid(np.random.default_rng(7))
        with pytest.raises(OdometryError):
            grid_match(grid, grid, angle_set=())


class TestFusion:
    def test_wheel_only(self):
        inc = SensorIncrement(0.1, wheel=(0.2, 0.01, 0.05))
        assert fuse_increment(inc) == pytest.approx((0.2, 0.01, 0.05))

    def test_rotation_mean(self):
        inc = SensorIncrement(0.1, wheel=(0.1, 0.0, 0.10), imu_dtheta=0.12)
        w = FusionWeights(wheel_rot=0.5, imu_rot=0.5)
        assert fuse_increment(inc, w)[2] == pytest.approx(0.11)

    def test_consensus(self):
        inc = SensorIncrement(
            0.1, wheel=(0.2, 0.0, 0.05), imu_dtheta=0.05, vision=(0.2, 0.0, 0.05)
        )
        assert fuse_increment(inc) == pytest.approx((0.2, 0.0, 0.05))

    def test_no_source(self):
        with pytest.raises(OdometryError):
            fuse_increment(SensorIncrement(0.1))

    def test_weight_split_invariance(self):
        # duplicating a source with split weights changes nothing
        inc = SensorIncrement(0.1, wheel=(0.3, -0.1, 0.02), imu_dtheta=0.04)
        a = fuse_increment(inc, FusionWeights(wheel_trans=1.0, wheel_rot=0.4, imu_rot=0.6))
        b = fuse_increment(inc, FusionWeights(wheel_trans=0.5, wheel_rot=0.2, imu_rot=0.3))
        assert a == pytest.approx(b)

    def test_dt_positive(self):
        with pytest.raises(OdometryError):
            SensorIncrement(0.0, wheel=(0, 0, 0))


class TestDeadReckon:
    def test_empty(self):
        start = Pose2(1, 2, 0.3)
        out = dead_reckon([], start)
        assert len(out) == 1 and out[0] is start

    def test_straight(self):
        incs = [SensorIncrement(0.1, wheel=(1.0, 0.0, 0.0))] * 3
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
            gt.append(compose_se2(gt[-1], Pose2(step, 0, dth)))
            est_incs.append(SensorIncrement(0.1, wheel=(step, 0.0, dth + noises[k])))
        est = dead_reckon(est_incs, Pose2())
        err = np.hypot(
            est.as_array()[:, 0] - PoseTrajectory(tuple(gt)).as_array()[:, 0],
            est.as_array()[:, 1] - PoseTrajectory(tuple(gt)).as_array()[:, 1],
        )
        cum_heading_err = np.abs(np.cumsum(noises)).max()
        bound = (n * step) * cum_heading_err * 1.5 + 1e-6
        assert err.max() <= bound


class TestMetrics:
    def straight(self, n=101, step=1.0, scale=1.0):
        return PoseTrajectory(tuple(Pose2(i * step * scale, 0.0, 0.0) for i in range(n)))

    def test_identical_is_zero(self):
        gt = self.straight()
        m = traj_metrics(gt, gt)
        assert m == {"rte_percent": 0.0, "rre_deg_per_10m": 0.0, "ate_m": 0.0}

    def test_rigid_offset(self):
        gt = self.straight()
        est = PoseTrajectory(tuple(Pose2(p.x + 1.0, p.y, p.theta) for p in gt.poses))
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
        still = PoseTrajectory((Pose2(), Pose2()))
        with pytest.raises(OdometryError):
            traj_metrics(still, still)

    def test_short_path_falls_back_to_whole_span(self):
        gt = self.straight(6, 0.5)  # 2.5 m « 10 m segment
        est = PoseTrajectory(tuple(Pose2(p.x * 1.1, 0, 0) for p in gt.poses))
        m = traj_metrics(est, gt)
        assert m["rte_percent"] == pytest.approx(10.0)

    def test_heading_error_scales_to_degrees(self):
        gt = self.straight(101, 1.0)
        est = PoseTrajectory(
            tuple(
                Pose2(p.x, p.y, 0.0 if i < 50 else math.radians(2.0))
                for i, p in enumerate(gt.poses)
            )
        )
        m = traj_metrics(est, gt)
        # segments spanning index 50 see a 2 degree relative heading error per 10 m
        assert 0.0 < m["rre_deg_per_10m"] <= 2.0


class TestFusedBeatsSingles:
    def _run(self, seed, n_segments=30, seg_steps=60, sigma=0.01):
        rng = np.random.default_rng(seed)
        weights = {
            "wheel": FusionWeights(1, 0, 1, 0, 0),
            "imu": FusionWeights(1, 0, 0, 1, 0),
            "fused": FusionWeights(1, 0, 0.5, 0.5, 0),
        }
        sq = {k: [] for k in weights}
        for _ in range(n_segments):
            dth = rng.uniform(-0.08, 0.08)
            actions = [(0.2, 0.0, dth)] * seg_steps
            gt = [Pose2()]
            for a in actions:
                gt.append(compose_se2(gt[-1], Pose2(*a)))
            gt_xy = np.array([[p.x, p.y] for p in gt])
            wheel_noise = rng.normal(0, sigma, seg_steps)
            imu_noise = rng.normal(0, sigma, seg_steps)
            incs = [
                SensorIncrement(0.1, wheel=(a[0], a[1], a[2] + w), imu_dtheta=a[2] + i)
                for a, w, i in zip(actions, wheel_noise, imu_noise)
            ]
            for name, w in weights.items():
                est = dead_reckon(incs, Pose2(), w).as_array()[:, :2]
                sq[name].extend(((est - gt_xy) ** 2).sum(axis=1).tolist())
        return {k: math.sqrt(np.mean(v)) for k, v in sq.items()}

    def test_fusion_wins_on_90_percent_of_seeds(self):
        wins = 0
        for seed in range(100):
            r = self._run(seed)
            if r["fused"] <= r["wheel"] and r["fused"] <= r["imu"]:
                wins += 1
        assert wins >= 90
