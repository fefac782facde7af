import math

import numpy as np
import pytest

from astra_nav.errors import GeometryMismatchError
from astra_nav.esdf import (
    Grid,
    GridParseError,
    compress_grid,
    edt,
    edt_squared,
    load_grid,
    make_mask,
    mask_esdf,
    sample_bilinear,
    save_grid,
    signed_esdf,
)
from astra_nav.geom import Pose2, PoseTrajectory, poses_to_actions
from astra_nav.planner import PlanningSample, VectorFieldModel, planning_loss_at


def brute_force_sq(mask: np.ndarray, target: np.ndarray) -> np.ndarray:
    """O((HW)^2) oracle: integer squared cell distance to the nearest target cell."""
    h, w = target.shape
    if not target.any():
        return np.full((h, w), w * w + h * h, dtype=np.int64)
    tr, tc = np.nonzero(target)
    rows = np.arange(h)[:, None, None]
    cols = np.arange(w)[None, :, None]
    d2 = (rows - tr[None, None, :]) ** 2 + (cols - tc[None, None, :]) ** 2
    return d2.min(axis=2).astype(np.int64)


def bin2d(values, res=1.0, origin=(0.0, 0.0)):
    return Grid(np.asarray(values, dtype=bool), res, origin)


class TestCompress:
    def test_empty(self):
        grid = Grid(np.zeros((3, 4, 5), bool), 0.5)
        out = compress_grid(grid)
        assert out.values.shape == (4, 5)
        assert not out.values.any()

    def test_single_voxel(self):
        vals = np.zeros((8, 6, 7), bool)
        vals[5, 3, 2] = True
        out = compress_grid(Grid(vals, 1.0))
        expect = np.zeros((6, 7), bool)
        expect[3, 2] = True
        assert (out.values == expect).all()

    def test_full_column_equals_single_voxel(self):
        a = np.zeros((4, 3, 3), bool)
        a[:, 1, 1] = True
        b = np.zeros((4, 3, 3), bool)
        b[2, 1, 1] = True
        out_a = compress_grid(Grid(a, 1.0))
        out_b = compress_grid(Grid(b, 1.0))
        assert (out_a.values == out_b.values).all()


class TestEdt:
    def test_single_center_obstacle(self):
        m = bin2d([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        d = edt(m, "occupied")
        assert d[1, 1] == 0.0
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 0] == pytest.approx(math.sqrt(2))

    def test_all_free_is_capped(self):
        m = bin2d(np.zeros((4, 6)))
        d = edt(m, "occupied")
        assert (d == np.hypot(6, 4) * 1.0).all()

    def test_midpoint_between_two_obstacles(self):
        vals = np.zeros((1, 5))
        vals[0, 0] = vals[0, 4] = 1
        d = edt(bin2d(vals), "occupied")
        assert d[0, 2] == pytest.approx(2.0)

    def test_matches_brute_force_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h, w = rng.integers(1, 33, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.05, 0.6)
            m = bin2d(mask)
            np.testing.assert_array_equal(edt_squared(m, "occupied"), brute_force_sq(mask, mask))
            np.testing.assert_array_equal(edt_squared(m, "free"), brute_force_sq(mask, ~mask))
            # a 0/1 integer grid is the same occupancy as the boolean one
            ints = Grid(mask.astype(int), 1.0)
            np.testing.assert_array_equal(edt_squared(ints, "free"), brute_force_sq(mask, ~mask))
            np.testing.assert_array_equal(signed_esdf(ints).values, signed_esdf(m).values)


class TestSignedEsdf:
    def test_single_obstacle_pixel(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = 1
        phi = signed_esdf(bin2d(vals, res=0.5))
        assert phi.values[1, 1] == pytest.approx(-0.5)
        assert phi.values[0, 1] == pytest.approx(0.5)

    def test_checkerboard(self):
        vals = np.indices((4, 4)).sum(axis=0) % 2 == 0
        phi = signed_esdf(bin2d(vals, res=0.25))
        np.testing.assert_allclose(np.abs(phi.values), 0.25)

    def test_all_obstacle(self):
        m = bin2d(np.ones((3, 5)))
        phi = signed_esdf(m)
        assert (phi.values == -np.hypot(5, 3) * 1.0).all()

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        mask = rng.random((12, 12)) < 0.3
        mask[0, 0] = True  # ensure both classes exist
        mask[5, 5] = False
        phi = signed_esdf(bin2d(mask))
        assert (phi.values[mask] <= 0).all()
        assert (phi.values[~mask] > 0).all()


class TestMask:
    def test_zero_radius_marks_cells_on_line(self):
        geom = bin2d(np.zeros((3, 7)))
        poses = PoseTrajectory((Pose2(0, 1, 0), Pose2(6, 1, 0)))
        mask = make_mask(poses, geom, 0.0)
        assert mask.values[1].all()
        assert not mask.values[0].any() and not mask.values[2].any()

    def test_corridor_width(self):
        geom = bin2d(np.zeros((9, 21)), res=0.25)
        poses = PoseTrajectory((Pose2(0, 1.0, 0), Pose2(5.0, 1.0, 0)))
        mask = make_mask(poses, geom, 0.5)
        # row spacing 0.25 m: rows within 0.5 m of y=1.0 are rows 2..6 (five rows)
        marked_rows = np.nonzero(mask.values.any(axis=1))[0]
        np.testing.assert_array_equal(marked_rows, [2, 3, 4, 5, 6])

    def test_empty_trajectory(self):
        geom = bin2d(np.zeros((3, 3)))
        mask = make_mask(PoseTrajectory(()), geom, 1.0)
        assert not mask.values.any()

    def test_outside_grid_warns(self, caplog):
        geom = bin2d(np.zeros((3, 3)))
        poses = PoseTrajectory((Pose2(100, 100, 0), Pose2(101, 100, 0)))
        with caplog.at_level("WARNING"):
            mask = make_mask(poses, geom, 0.1)
        assert not mask.values.any()
        assert any("outside" in rec.message for rec in caplog.records)


class TestMaskEsdf:
    def _pair(self):
        phi = Grid(np.full((4, 4), 2.0), 1.0)
        mvals = np.zeros((4, 4), bool)
        mvals[1:3, 1:3] = True
        return phi, Grid(mvals, 1.0)

    def test_alpha_zero_is_identity(self):
        phi, mask = self._pair()
        out = mask_esdf(phi, mask, 0.0)
        np.testing.assert_array_equal(out.values, phi.values)

    def test_alpha_one_zeroes_inside(self):
        phi, mask = self._pair()
        out = mask_esdf(phi, mask, 1.0)
        assert (out.values[mask.values] == 0).all()
        assert (out.values[~mask.values] == 2.0).all()

    def test_alpha_scalar_example(self):
        phi, mask = self._pair()
        out = mask_esdf(phi, mask, 0.3)
        assert out.values[1, 1] == pytest.approx(1.4)

    def test_geometry_mismatch(self):
        phi, _ = self._pair()
        with pytest.raises(GeometryMismatchError):
            mask_esdf(phi, Grid(np.zeros((3, 3), bool), 1.0), 0.5)


class TestBilinear:
    def test_cell_center_exact(self):
        rng = np.random.default_rng(1)
        phi = Grid(rng.normal(size=(5, 7)), 0.5, (1.0, -2.0))
        for r in range(5):
            for c in range(7):
                pt = (1.0 + c * 0.5, -2.0 + r * 0.5)
                assert sample_bilinear(phi, [pt])[0] == phi.values[r, c]

    def test_midpoint_linearity(self):
        phi = Grid(np.array([[1.0, 3.0]]), 1.0)
        assert sample_bilinear(phi, [(0.5, 0.0)])[0] == pytest.approx(2.0)

    def test_corner_layout_hand_value(self):
        # corners: f(0,0)=1, f(+x,0)=2, f(0,+y)=3, f(+x,+y)=4; point (u, v) = (0.25, 0.75)
        phi = Grid(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0)
        assert sample_bilinear(phi, [(0.25, 0.75)])[0] == pytest.approx(2.75)

    def test_clamping(self):
        phi = Grid(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0)
        vals = sample_bilinear(phi, [(-5.0, 0.0), (0.5, 0.5)])
        assert vals[0] == pytest.approx(1.0)


def traj_penalty(phi: Grid, poses: PoseTrajectory) -> float:
    """The clearance penalty planning_loss_at returns for one sample following `poses`.

    At t = 0 with x0 = 0 the one-shot reconstruction is the sample's own
    actions, so the penalty is the field summed over the poses after the start.
    """
    actions = poses_to_actions(poses).steps
    n = len(actions)
    model = VectorFieldModel.create(n, 1, hidden=(2,), seed=0)
    sample = PlanningSample(actions, np.zeros(1), poses[0], phi)
    return planning_loss_at(model, [sample], 1.0, np.zeros(1), np.zeros((1, 3 * n)))[2]["penalty"]


class TestTrajSum:
    def test_uniform_field(self):
        phi = Grid(np.full((6, 6), 1.5), 1.0)
        poses = PoseTrajectory(tuple(Pose2(1 + k, 2, 0) for k in range(4)))
        assert traj_penalty(phi, poses) == pytest.approx(3 * 1.5)

    def test_empty_trajectory(self):
        phi = Grid(np.full((3, 3), 2.0), 1.0)
        assert traj_penalty(phi, PoseTrajectory((Pose2(),))) == 0.0

    def test_hand_summed(self):
        phi = Grid(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0)
        poses = PoseTrajectory((Pose2(0, 0, 0), Pose2(0.5, 0.0, 0), Pose2(0.5, 0.5, 0), Pose2(1.0, 1.0, 0)))
        # bilinear: (0.5,0)->0.5, (0.5,0.5)->1.5, (1,1)->3
        assert traj_penalty(phi, poses) == pytest.approx(0.5 + 1.5 + 3.0)

    def test_linearity_in_field(self):
        rng = np.random.default_rng(5)
        phi = Grid(rng.normal(size=(8, 8)), 0.5)
        poses = PoseTrajectory(tuple(Pose2(*rng.uniform(0.5, 3.0, 2), 0) for _ in range(5)))
        base = traj_penalty(phi, poses)
        scaled = traj_penalty(Grid(3.0 * phi.values, 0.5), poses)
        assert scaled == pytest.approx(3.0 * base)


class TestGridFiles:
    def test_occupancy_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        for shape in ((2, 5, 4), (5, 4)):  # 3-D and 2-D OCC2
            grid = Grid(rng.random(shape) < 0.4, 0.25, (1.5, -0.5))
            path = tmp_path / "g.occ"
            save_grid(grid, path)
            loaded = load_grid(path)
            assert loaded.values.dtype == bool
            np.testing.assert_array_equal(loaded.values, grid.values)
            assert loaded.resolution == grid.resolution
            assert loaded.origin == grid.origin

    def test_esdf_round_trip(self, tmp_path):
        phi = Grid(np.array([[0.5, -1.25], [2.0, 0.0]]), 0.1, (0.0, 3.0))
        path = tmp_path / "f.esdf"
        save_grid(phi, path)
        loaded = load_grid(path)
        assert loaded.values.dtype == float
        np.testing.assert_array_equal(loaded.values, phi.values)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.occ"
        path.write_text("NOPE 1 2 3\n")
        with pytest.raises(GridParseError, match="line 1"):
            load_grid(path)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "short.occ"
        path.write_text("OCC2 3 2 1.0 0.0 0.0\n1 0 1\n")
        with pytest.raises(GridParseError, match="expected 6"):
            load_grid(path)
