import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astra_nav import esdf, sim
from astra_nav.errors import AstraError, GeometryMismatchError
from astra_nav.esdf import (
    Grid,
    _bilinear,
    _cell_weights,
    GridParseError,
    compress_grid,
    edt,
    load_grid,
    make_mask,
    mask_esdf,
    sample_bilinear,
    save_grid,
    signed_esdf,
    stack_fields,
)
from astra_nav.geom import PoseTrajectory, poses_to_actions
from astra_nav.planner import PlanningSample, VectorFieldModel, _penalty_and_grad, planning_loss_at


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


def brute_force_edt(mask: np.ndarray, target: np.ndarray, res: float) -> np.ndarray:
    """The brute-force squared distance's root, in meters: the bytes `edt` must give."""
    return np.sqrt(brute_force_sq(mask, target).astype(float)) * res


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


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
            self.assert_both_targets_match(mask)
            # a 0/1 integer grid is the same occupancy as the boolean one
            ints = Grid(mask.astype(int), 1.0)
            assert_same_bytes(edt(ints, "free"), brute_force_edt(mask, ~mask, 1.0))
            np.testing.assert_array_equal(signed_esdf(ints).values, signed_esdf(bin2d(mask)).values)

    @staticmethod
    def assert_both_targets_match(mask):
        for res in (1.0, 0.25, 0.1):
            m = bin2d(mask, res)
            assert_same_bytes(edt(m, "occupied"), brute_force_edt(mask, mask, res))
            assert_same_bytes(edt(m, "free"), brute_force_edt(mask, ~mask, res))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (40, 3), (3, 40)])
    def test_single_target_in_each_corner(self, shape):
        # the farthest cell is a full width away, so the column-offset sweep runs to its end
        h, w = shape
        for r, c in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]:
            mask = np.zeros(shape, dtype=bool)
            mask[r, c] = True
            self.assert_both_targets_match(mask)  # one occupied cell
            self.assert_both_targets_match(~mask)  # one free cell: all but one occupied

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (5, 17), (17, 5), (12, 31)])
    def test_all_but_one_occupied(self, shape):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mask = np.ones(shape, dtype=bool)
            mask[rng.integers(shape[0]), rng.integers(shape[1])] = False
            self.assert_both_targets_match(mask)

    def test_sparse_targets_on_non_square_grids(self):
        # few targets leave large distances, so the sweep runs many offsets
        rng = np.random.default_rng(11)
        for h, w in [(2, 37), (37, 2), (13, 29), (29, 13), (39, 38)]:
            for density in (0.001, 0.01, 0.05):
                mask = rng.random((h, w)) < density
                mask[rng.integers(h), rng.integers(w)] = True
                self.assert_both_targets_match(mask)

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=40, density=0.1, seed=0)
    @example(h=40, w=1, density=0.1, seed=0)
    @example(h=40, w=40, density=0.0, seed=0)
    @example(h=40, w=40, density=1.0, seed=0)
    def test_matches_brute_force_on_any_grid(self, h, w, density, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        m = bin2d(mask, 0.1)
        assert_same_bytes(edt(m, "occupied"), brute_force_edt(mask, mask, 0.1))
        assert_same_bytes(edt(m, "free"), brute_force_edt(mask, ~mask, 0.1))

    def test_long_strip_takes_the_wide_integers(self):
        # (h + w)^2, the squared sentinel, passes 2^31, so an int32 transform
        # would wrap; the targets are 97 cells apart, so the sweep stops
        # after 49 offsets
        h, w, res = 1, 46400, 0.05
        assert (h + w) ** 2 >= 2**31
        mask = np.zeros((h, w), dtype=bool)
        targets = np.arange(40, w, 97)
        mask[0, targets] = True
        cols = np.arange(w)
        after = np.searchsorted(targets, cols).clip(1, len(targets) - 1)
        nearest = np.minimum(np.abs(cols - targets[after - 1]), np.abs(cols - targets[after]))
        assert_same_bytes(edt(bin2d(mask, res), "occupied"), (nearest * res)[None, :])
        assert_same_bytes(edt(bin2d(mask, res), "free"), np.where(mask, res, 0.0))

    def test_one_obstacle_runs_the_sweep_to_its_end(self):
        # the far corner is 255 columns away: the sweep stops at k = w, not
        # at k^2 >= the largest entry (255^2 + 255^2)
        mask = np.zeros((256, 256), dtype=bool)
        mask[0, 0] = True
        m = bin2d(mask, 0.05)
        assert_same_bytes(edt(m, "occupied"), brute_force_edt(mask, mask, 0.05))
        assert_same_bytes(edt(m, "free"), np.where(mask, 0.05, 0.0))

    @pytest.mark.parametrize("transform", [edt, lambda m: edt(m, "free"), signed_esdf])
    def test_3d_occupancy_is_refused(self, transform):
        grid = Grid(np.zeros((2, 3, 4), dtype=bool), 1.0)
        with pytest.raises(ValueError, match=r"\(2, 3, 4\).*compress_grid"):
            transform(grid)

    def test_pinned_digest(self):
        # the fields of an earlier, loop-based column pass, pinned so that
        # any change of a byte shows
        digest = hashlib.sha256()
        for mask, res in pinned_grids():
            m = bin2d(mask, res)
            for values in (edt(m, "occupied"), edt(m, "free"), signed_esdf(m).values):
                digest.update(values.tobytes())
        assert digest.hexdigest() == PINNED_EDT_SHA256


def pinned_grids():
    """Seeded occupancy grids and resolutions: empty and full grids, 1 x N and
    N x 1 strips, grids with columns holding no target of either class, and
    random grids up to 256 x 256."""
    rng = np.random.default_rng(2506)
    grids = [np.zeros((5, 7), bool), np.ones((7, 5), bool)]
    for shape in [(1, 1), (1, 40), (40, 1), (19, 31), (64, 64), (256, 256)]:
        for density in (0.01, 0.2, 0.6):
            grids.append(rng.random(shape) < density)
    striped = rng.random((33, 47)) < 0.3
    striped[:, 5] = False
    striped[:, 20] = True
    grids.append(striped)
    return [(mask, (0.1, 0.25, 1.0)[i % 3]) for i, mask in enumerate(grids)]


PINNED_EDT_SHA256 = "688f85de33edcc1b8938899e7c9fc1fe39297bbb7725be980258ada49dd547a1"


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
        poses = PoseTrajectory([(0, 1, 0), (6, 1, 0)])
        mask = make_mask(poses, geom, 0.0)
        assert mask.values[1].all()
        assert not mask.values[0].any() and not mask.values[2].any()

    def test_corridor_width(self):
        geom = bin2d(np.zeros((9, 21)), res=0.25)
        poses = PoseTrajectory([(0, 1.0, 0), (5.0, 1.0, 0)])
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
        poses = PoseTrajectory([(100, 100, 0), (101, 100, 0)])
        with caplog.at_level("WARNING"):
            mask = make_mask(poses, geom, 0.1)
        assert not mask.values.any()
        assert any("outside" in rec.message for rec in caplog.records)


def ref_make_mask(gt_poses: PoseTrajectory, geometry: Grid, dilation_radius: float) -> np.ndarray:
    """Mask values from segment distances evaluated on every cell of the grid."""
    return ref_mask_distances(gt_poses, geometry) <= dilation_radius


def ref_mask_distances(gt_poses: PoseTrajectory, geometry: Grid) -> np.ndarray:
    """Every cell's distance to the trajectory polyline, one segment at a
    time; inf for an empty trajectory."""
    h, w = geometry.values.shape[-2:]
    res, origin = geometry.resolution, geometry.origin
    pts = gt_poses.as_array()[:, :2]
    if len(pts) == 0:
        return np.full((h, w), np.inf)
    gx, gy = np.meshgrid(origin[0] + np.arange(w) * res, origin[1] + np.arange(h) * res)
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    min_d = np.full(centers.shape[0], np.inf)
    if len(pts) == 1:
        min_d = np.hypot(*(centers - pts[0]).T)
    else:
        for a, b in zip(pts[:-1], pts[1:]):
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                d = np.hypot(*(centers - a).T)
            else:
                t = np.clip((centers - a) @ ab / denom, 0.0, 1.0)
                d = np.hypot(*(centers - (a + t[:, None] * ab)).T)
            np.minimum(min_d, d, out=min_d)
    return min_d.reshape(h, w)


@st.composite
def mask_cases(draw):
    """A grid geometry, a trajectory and a radius. Points lie inside the grid,
    across its border or outside it; some sit on cell centers, where radius-0
    and whole-cell radii meet distances exactly; some poses repeat."""
    h, w = draw(st.integers(1, 14), label="h"), draw(st.integers(1, 14), label="w")
    res = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]), label="res")
    origin = (draw(st.floats(-3, 3), label="ox"), draw(st.floats(-3, 3), label="oy"))
    on_centers = draw(st.booleans(), label="on_centers")
    if on_centers:
        coord = st.tuples(st.integers(-4, w + 3), st.integers(-4, h + 3))
        cells = draw(st.lists(coord, min_size=1, max_size=6), label="cells")
        pts = [(origin[0] + c * res, origin[1] + r * res) for c, r in cells]
    else:
        frac = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))
        fracs = draw(st.lists(frac, min_size=1, max_size=6), label="fracs")
        pts = [(origin[0] + u * w * res, origin[1] + v * h * res) for u, v in fracs]
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3), label="repeats"):
        pts.insert(i, pts[i])
    radius = draw(
        st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]).map(lambda k: k * res),
                  st.floats(0.0, 3.0)),
        label="radius",
    )
    poses = PoseTrajectory([(x, y, 0.0) for x, y in pts])
    return bin2d(np.zeros((h, w)), res, origin), poses, radius


class TestMaskBox:
    """make_mask evaluates only the trajectory's box; the full grid is the reference."""

    @settings(max_examples=400, deadline=None)
    @given(mask_cases())
    def test_matches_full_grid_reference(self, case):
        geom, poses, radius = case
        got = make_mask(poses, geom, radius)
        assert got.values.tobytes() == ref_make_mask(poses, geom, radius).tobytes()
        assert (got.resolution, got.origin) == (geom.resolution, geom.origin)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 11)])
    def test_named_cases(self, shape):
        geom = bin2d(np.zeros(shape), 0.25, (-0.5, 0.75))
        h, w = shape
        far = (-0.5 + 3 * w * 0.25, 0.75 + 3 * h * 0.25)
        corner = (-0.5 - 0.3, 0.75 - 0.3)  # just outside the first cell, one box cell
        cases = {
            "single": [(0.0, 1.0)],
            "repeated": [(0.0, 1.0)] * 3 + [(0.4, 1.3)] * 2,
            "crossing": [(-2.0, 0.9), (5.0, 1.1)],
            "outside": [far, (far[0] + 1.0, far[1])],
            "corner": [corner],
            "on-centers": [(-0.5, 0.75), (-0.5 + 0.25 * (w - 1), 0.75 + 0.25 * (h - 1))],
        }
        for pts in cases.values():
            poses = PoseTrajectory([(x, y, 0.0) for x, y in pts])
            for radius in (0.0, 0.25, 0.3, 0.5, 100.0):
                want = ref_make_mask(poses, geom, radius)
                assert make_mask(poses, geom, radius).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_pose_rejected(self, bad, field):
        geom = bin2d(np.zeros((4, 4)))
        row = [1.0, 1.0, 0.0]
        row[field] = bad
        poses = PoseTrajectory([(0.0, 0.0, 0.0), row])
        with pytest.raises(ValueError):
            make_mask(poses, geom, 0.5)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.1])
    def test_dilation_must_be_finite_and_non_negative(self, radius):
        # a NaN radius once passed the `< 0` test and masked nothing
        poses = PoseTrajectory([(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)])
        with pytest.raises(esdf.MaskError, match="dilation radius must be finite and >= 0"):
            make_mask(poses, bin2d(np.zeros((4, 4))), radius)

    def test_outside_grid_still_warns_and_is_empty(self, caplog):
        geom = bin2d(np.zeros((5, 5)), 0.5)
        poses = PoseTrajectory([(-10, -10, 0), (-9, -10, 0)])
        with caplog.at_level("WARNING"):
            mask = make_mask(poses, geom, 0.3)
        assert not mask.values.any()
        assert any("outside" in rec.message for rec in caplog.records)


class TestMaskBatchedPass:
    """The segments go through one blocked pass; every cell keeps the bits of
    the per-segment distances, so the mask equals the per-segment reference."""

    @pytest.fixture(scope="class")
    def windows(self):
        worlds = [sim.generate_world(s, 48) for s in range(3)]
        return [(worlds[wi].phi(), window) for wi, window, _ in sim.expert_windows(worlds, 128)]

    def test_dataset_windows_match_reference(self, windows):
        assert len(windows) == 384
        for phi, window in windows:
            for radius in (0.0, 0.3, 1.0):
                want = ref_make_mask(window, phi, radius)
                assert make_mask(window, phi, radius).values.tobytes() == want.tobytes()

    def test_cells_on_the_radius_keep_their_bits(self, windows):
        # a radius equal to a cell's reference distance marks the cell, and
        # the next float below it does not: a distance one bit off flips it
        rng = np.random.default_rng(12)
        for phi, window in windows[::6]:
            dist = ref_mask_distances(window, phi)
            near = np.unique(dist[(dist > 0.0) & (dist <= 1.2)])
            for radius in rng.choice(near, size=min(12, len(near)), replace=False):
                for r in (radius, np.nextafter(radius, -np.inf)):
                    assert make_mask(window, phi, r).values.tobytes() == (dist <= r).tobytes()

    @staticmethod
    def long_walk():
        """A 600-pose random walk with a run of repeated poses (zero-length
        segments) and one stretch that leaves the grid."""
        rng = np.random.default_rng(8)
        pts = rng.normal(0.0, 0.3, size=(600, 2)).cumsum(axis=0) + (6.0, 5.0)
        pts[200:212] = pts[200]
        pts[400:420, 0] = -3.0 + np.arange(20) * 0.1
        return PoseTrajectory([(x, y, 0.0) for x, y in pts])

    def test_long_trajectory_matches_reference(self):
        geom = bin2d(np.zeros((90, 120)), 0.1, (-1.0, -0.5))
        poses = self.long_walk()
        for radius in (0.0, 0.3, 1.0):
            want = ref_make_mask(poses, geom, radius)
            got = make_mask(poses, geom, radius)
            assert got.values.tobytes() == want.tobytes()
            assert not want.all() and (want.any() or radius == 0.0)

    @pytest.mark.parametrize("pairs", [1, 37, 300, 100_000])
    def test_block_size_does_not_change_the_mask(self, windows, monkeypatch, pairs):
        geom = bin2d(np.zeros((90, 120)), 0.1, (-1.0, -0.5))
        cases = [(geom, self.long_walk())] + [(phi, w) for phi, w in windows[::37]]
        want = [make_mask(poses, g, 0.3).values.tobytes() for g, poses in cases]
        monkeypatch.setattr(esdf, "_MASK_PAIRS", pairs)
        assert [make_mask(poses, g, 0.3).values.tobytes() for g, poses in cases] == want


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

    def test_out_holds_the_same_bits(self):
        rng = np.random.default_rng(8)
        phi = Grid(rng.normal(size=(5, 7)), 0.25, (1.0, -2.0))
        mask = Grid(rng.random((5, 7)) < 0.5, 0.25, (1.0, -2.0))
        buffer = np.full(50, np.nan)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            out = buffer[10:45].reshape(5, 7)
            got = mask_esdf(phi, mask, alpha, out=out)
            assert got.values is out
            assert out.tobytes() == mask_esdf(phi, mask, alpha).values.tobytes()
            assert (got.resolution, got.origin) == (phi.resolution, phi.origin)
        assert np.isnan(buffer[:10]).all() and np.isnan(buffer[45:]).all()


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (9, 13)])
    def test_values_equal_gradient_kernel(self, shape):
        # the values-only sampler must match the gradient kernel bit for bit,
        # inside the lattice and on points clamped to its border
        rng = np.random.default_rng(7)
        phi = Grid(rng.normal(size=shape), 0.3, (-1.0, 2.0))
        lo = np.array(phi.origin) - 1.0
        hi = np.array(phi.origin) + np.array([phi.width, phi.height]) * phi.resolution + 1.0
        pts = np.concatenate([rng.uniform(lo, hi, size=(500, 2)), [lo, hi, phi.origin]])
        want = _bilinear(stack_fields([phi]), pts[None])[0][0]
        assert sample_bilinear(phi, pts).tobytes() == want.tobytes()


    @pytest.mark.parametrize("width", [4, 5])
    @pytest.mark.parametrize("pt", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (-math.nan, 1.0)],
                             ids=["x", "y", "both", "negative-x"])
    def test_nan_coordinate_raises(self, pt, width):
        # a NaN point has no cell; a NaN y used to read row 0 on an even width
        phi = Grid(np.arange(3.0 * width).reshape(3, width), 0.5)
        with pytest.raises(esdf.SamplePointError) as raised:
            sample_bilinear(phi, [(1.0, 0.5), pt])
        assert isinstance(raised.value, AstraError) and isinstance(raised.value, ValueError)

    def test_infinite_coordinates_clamp(self):
        phi = Grid(np.arange(12.0).reshape(3, 4), 0.5)
        got = sample_bilinear(phi, [(math.inf, -math.inf), (-math.inf, math.inf), (math.inf, math.inf)])
        assert got.tolist() == [3.0, 8.0, 11.0]
        assert sample_bilinear(phi, np.zeros((0, 2))).shape == (0,)


def ref_cell_weights(fields, pts):
    """_cell_weights clamping with np.clip, one axis and one corner at a time."""
    flat, offset, w, resolution, (ox, oy) = fields[:5]
    h = fields.last[1].astype(np.intp) + 1
    gx = (pts[..., 0] - ox) / resolution
    gy = (pts[..., 1] - oy) / resolution
    cx = np.clip(gx, 0.0, w - 1.0)
    cy = np.clip(gy, 0.0, h - 1.0)
    ix = np.minimum(np.floor(cx).astype(np.intp), np.maximum(w - 2, 0))
    iy = np.minimum(np.floor(cy).astype(np.intp), np.maximum(h - 2, 0))
    jx = np.minimum(ix + 1, w - 1)
    jy = np.minimum(iy + 1, h - 1)
    row0, row1 = offset + iy * w, offset + jy * w
    corners = (flat[row0 + ix], flat[row0 + jx], flat[row1 + ix], flat[row1 + jx])
    u, v = cx - ix, cy - iy
    return (np.stack([gx, gy]), np.stack([cx, cy]), np.stack([[1 - u, 1 - v], [u, v]]),
            np.stack([corners[:2], corners[2:]]))


def unsigned_zero(a: np.ndarray) -> bytes:
    """The bytes of a with -0.0 read as +0.0; NaN and every other value keep their bits."""
    return np.where(a == 0, 0.0, a).tobytes()


def kernel_outcome(fn, *args):
    """The bytes of every array that fn returns, or the type of the error it raises
    (a NaN coordinate may index outside the field). The clamped coordinates and
    offsets are compared without the sign of a zero: np.clip itself gives -0.0 or
    +0.0 for -0.0 depending on the array's layout."""
    with np.errstate(invalid="ignore"):
        try:
            g, c, weights, corners = fn(*args)
        except IndexError as e:
            return type(e)
    return [a.tobytes() for a in (g, *corners)] + [unsigned_zero(a) for a in (c, *weights)]


class TestClampKernel:
    """The bilinear kernel clamps with np.minimum/np.maximum, as np.clip did."""

    SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, -2.5, 0.3, 1e300, -1e-320]

    def fields(self, signed_zeros: bool):
        rng = np.random.default_rng(5)
        out = []
        for shape in [(1, 1), (1, 6), (5, 1), (7, 9)]:
            values = rng.normal(size=shape)
            values[rng.random(shape) < 0.3] = 0.0
            if signed_zeros:
                values[rng.random(shape) < 0.3] = -0.0
            for origin in [(0.0, 0.0), (-1.0, 2.0)]:
                out.append(Grid(values, 0.5, origin))
        return out

    def points(self, phi):
        hi = [phi.origin[0] + (phi.width - 1) * phi.resolution,
              phi.origin[1] + (phi.height - 1) * phi.resolution]
        xs = self.SPECIAL + [phi.origin[0], hi[0], hi[0] + 0.7]
        ys = self.SPECIAL + [phi.origin[1], hi[1], hi[1] + 0.7]
        return np.array([(x, y) for x in xs for y in ys])

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_cell_weights_match_clip(self, signed_zeros):
        for phi in self.fields(signed_zeros):
            single = esdf._one_field(phi)
            stack = stack_fields([phi, phi])
            for pt in self.points(phi):
                for fields, pts in [(single, pt[None]), (stack, np.stack([pt[None], pt[None]]))]:
                    want = kernel_outcome(ref_cell_weights, fields, pts)
                    assert kernel_outcome(_cell_weights, fields, pts) == want, (phi.values.shape, pt)

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_samplers_match_clip(self, monkeypatch, signed_zeros):
        # bit for bit on fields without -0.0 values, which is every field the
        # library builds except a masked one at alpha 1; with -0.0 values in the
        # field a zero result may differ in its sign only
        def lookups(phi, pts):
            return [sample_bilinear(phi, pts), *_bilinear(stack_fields([phi, phi]), np.stack([pts, pts[::-1]]))]

        cases = []
        for phi in self.fields(signed_zeros):
            pts = self.points(phi)
            pts = pts[~np.isnan(pts).any(axis=1)]  # NaN points index outside the field
            with np.errstate(invalid="ignore"):
                cases.append((phi, pts, lookups(phi, pts)))
        monkeypatch.setattr(esdf, "_cell_weights", ref_cell_weights)
        for phi, pts, got in cases:
            with np.errstate(invalid="ignore"):
                want = lookups(phi, pts)
            if signed_zeros:
                assert [unsigned_zero(a) for a in got] == [unsigned_zero(a) for a in want]
            else:
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def traj_penalty(phi: Grid, poses: PoseTrajectory) -> float:
    """The clearance penalty planning_loss_at returns for one sample following `poses`.

    At t = 0 with x0 = 0 the one-shot reconstruction is the sample's own
    actions, so the penalty is the field summed over the poses after the start.
    """
    actions = poses_to_actions(poses)
    n = len(actions)
    model = VectorFieldModel.create(n, 1, hidden=(2,), seed=0)
    sample = PlanningSample(actions, np.zeros(1), poses[0], phi)
    return planning_loss_at(model, [sample], 1.0, np.zeros(1), np.zeros((1, 3 * n)))[2]["penalty"]


class TestTrajSum:
    def test_uniform_field(self):
        phi = Grid(np.full((6, 6), 1.5), 1.0)
        poses = PoseTrajectory([(1 + k, 2, 0) for k in range(4)])
        assert traj_penalty(phi, poses) == pytest.approx(3 * 1.5)

    def test_empty_trajectory(self):
        # a model plans at least one action, so the loss's clearance term is
        # read on its own for a trajectory of the start pose alone
        phi = Grid(np.full((3, 3), 2.0), 1.0)
        sums, dact = _penalty_and_grad(stack_fields([phi]), np.zeros((1, 0, 3)), np.zeros((1, 3)))
        assert sums.tolist() == [0.0] and dact.shape == (1, 0, 3)

    def test_hand_summed(self):
        phi = Grid(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0)
        poses = PoseTrajectory([(0, 0, 0), (0.5, 0.0, 0), (0.5, 0.5, 0), (1.0, 1.0, 0)])
        # bilinear: (0.5,0)->0.5, (0.5,0.5)->1.5, (1,1)->3
        assert traj_penalty(phi, poses) == pytest.approx(0.5 + 1.5 + 3.0)

    def test_linearity_in_field(self):
        rng = np.random.default_rng(5)
        phi = Grid(rng.normal(size=(8, 8)), 0.5)
        poses = PoseTrajectory([(*rng.uniform(0.5, 3.0, 2), 0) for _ in range(5)])
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


# --- the kernel against its per-axis form -------------------------------------------

def per_axis_stack(fields):
    """The per-axis layout the kernel had: offset, height, width, resolution and
    origin x and y, each a (B, 1) column."""
    shapes = np.array([f.values.shape for f in fields], dtype=np.intp)
    sizes = shapes[:, 0] * shapes[:, 1]
    return (
        np.concatenate([f.values.ravel() for f in fields]),
        (np.cumsum(sizes) - sizes)[:, None],
        shapes[:, :1],
        shapes[:, 1:],
        np.array([[f.resolution] for f in fields], dtype=float),
        np.array([[f.origin[0]] for f in fields]),
        np.array([[f.origin[1]] for f in fields]),
    )


def per_axis_cell_weights(fields, pts):
    flat, offset, h, w, resolution, ox, oy = fields
    gx = (pts[..., 0] - ox) / resolution
    gy = (pts[..., 1] - oy) / resolution
    cx = np.minimum(np.maximum(gx, 0.0), w - 1.0)
    cy = np.minimum(np.maximum(gy, 0.0), h - 1.0)
    ix = np.minimum(np.floor(cx).astype(np.intp), np.maximum(w - 2, 0))
    iy = np.minimum(np.floor(cy).astype(np.intp), np.maximum(h - 2, 0))
    jx = np.minimum(ix + 1, w - 1)
    jy = np.minimum(iy + 1, h - 1)
    row0, row1 = offset + iy * w, offset + jy * w
    corners = (flat[row0 + ix], flat[row0 + jx], flat[row1 + ix], flat[row1 + jx])
    return (gx, gy), (cx, cy), (cx - ix, cy - iy), corners


def per_axis_interpolate(u, v, f00, f10, f01, f11):
    return f00 * (1 - u) * (1 - v) + f10 * u * (1 - v) + f01 * (1 - u) * v + f11 * u * v


def per_axis_bilinear(fields, pts):
    (gx, gy), (cx, cy), (u, v), (f00, f10, f01, f11) = per_axis_cell_weights(fields, pts)
    out = per_axis_interpolate(u, v, f00, f10, f01, f11)
    du = (f10 - f00) * (1 - v) + (f11 - f01) * v
    dv = (f01 - f00) * (1 - u) + (f11 - f10) * u
    inside_x = (gx == cx).astype(float)
    inside_y = (gy == cy).astype(float)
    resolution = fields[4]
    return out, du * inside_x / resolution, dv * inside_y / resolution


def per_axis_sample(phi, pts):
    h, w = phi.values.shape
    fields = (phi.values.ravel(), 0, h, w, phi.resolution, *phi.origin)
    _, _, (u, v), corners = per_axis_cell_weights(fields, pts)
    return per_axis_interpolate(u, v, *corners)


class TestKernelMatchesPerAxisForm:
    """Every output of the kernel, which holds x and y on one axis, bit for bit
    against the kernel that did its x and y arithmetic apart and computed
    1 - u and 1 - v at every use."""

    SPECIAL = [math.inf, -math.inf, -0.0, 0.0, -2.5, 1e300, -1e-320]

    def grids(self):
        rng = np.random.default_rng(11)
        for shape in [(1, 1), (1, 7), (6, 1), (2, 2), (9, 13), (40, 31)]:
            values = rng.normal(size=shape)
            values[rng.random(shape) < 0.2] = 0.0
            values[rng.random(shape) < 0.2] = -0.0
            for resolution, origin in [(0.25, (0.0, 0.0)), (0.3, (-1.0, 2.5)), (1.7, (-0.0, -3.0))]:
                yield Grid(values, resolution, origin)

    def points(self, phi, rng):
        lo = np.array(phi.origin) - 1.0
        hi = np.array(phi.origin) + np.array([phi.width, phi.height]) * phi.resolution + 1.0
        special = [(x, y) for x in self.SPECIAL for y in self.SPECIAL]
        return np.concatenate([rng.uniform(lo, hi, size=(200, 2)), special, [lo, hi, phi.origin]])

    def test_sampler(self):
        rng = np.random.default_rng(3)
        for phi in self.grids():
            pts = self.points(phi, rng)
            assert sample_bilinear(phi, pts).tobytes() == per_axis_sample(phi, pts).tobytes()
            assert sample_bilinear(phi, np.zeros((0, 2))).tobytes() == b""

    def test_sampler_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(6)
        phi = Grid(rng.normal(size=(40, 31)), 0.3, (-1.0, 2.5))
        pts = np.concatenate([self.points(phi, rng)] * 100)[: 2 * esdf._BLOCK + 5]
        sizes = []
        cell_weights = esdf._cell_weights

        def recording(fields, pts):
            sizes.append(len(pts))
            return cell_weights(fields, pts)

        monkeypatch.setattr(esdf, "_cell_weights", recording)
        assert sample_bilinear(phi, pts).tobytes() == per_axis_sample(phi, pts).tobytes()
        assert sum(sizes) == len(pts) and len(sizes) == 3 and max(sizes) <= esdf._BLOCK

    def test_sampler_reads_transposed_rows_in_blocks(self):
        # the (P, 2) view of x and y rows, as `sim._segments_clear` passes it,
        # split into blocks: the same bytes as a C-contiguous copy
        rng = np.random.default_rng(7)
        phi = Grid(rng.normal(size=(40, 31)), 0.3, (-1.0, 2.5))
        rows = np.concatenate([self.points(phi, rng)] * 100)[: 2 * esdf._BLOCK + 5].T.copy()
        view = rows.T
        assert view.flags.f_contiguous and not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        assert sample_bilinear(phi, view).tobytes() == sample_bilinear(phi, copy).tobytes()
        rows[1, esdf._BLOCK + 3] = math.nan
        with pytest.raises(esdf.SamplePointError):
            sample_bilinear(phi, rows.T)

    def test_cell_weights(self):
        rng = np.random.default_rng(4)
        for phi in self.grids():
            pts = self.points(phi, rng)
            g, c, ((u1, v1), (u, v)), ((f00, f10), (f01, f11)) = _cell_weights(esdf._one_field(phi), pts)
            h, w = phi.values.shape
            (gx, gy), (cx, cy), (ux, vy), want = per_axis_cell_weights(
                (phi.values.ravel(), 0, h, w, phi.resolution, *phi.origin), pts
            )
            got = [*g, *c, u, v, u1, v1, f00, f10, f01, f11]
            ref = [gx, gy, cx, cy, ux, vy, 1 - ux, 1 - vy, *want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    def test_stacked_fields_through_the_gradient_kernel(self):
        rng = np.random.default_rng(5)
        grids = list(self.grids())
        for _ in range(20):
            fields = [grids[i] for i in rng.integers(len(grids), size=int(rng.integers(1, 6)))]
            pts = np.stack([self.points(phi, rng)[:120] for phi in fields])
            got = _bilinear(stack_fields(fields), pts)
            want = per_axis_bilinear(per_axis_stack(fields), pts)
            assert [a.shape for a in got] == [a.shape for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_packed_fields_are_read_in_place(self):
        # fields that are views of one flat buffer, in any order and with gaps
        # between them, are looked up there, alone or as rows of a larger stack
        rng = np.random.default_rng(7)
        grids = list(self.grids())
        buffer = np.full(sum(g.values.size + 3 for g in grids), np.nan)
        packed, used = [], 3
        for g in grids:
            view = buffer[used : used + g.values.size].reshape(g.values.shape)
            view[...] = g.values
            packed.append(Grid(view, g.resolution, g.origin))
            used += g.values.size + 3
        for _ in range(20):
            rows = rng.integers(len(grids), size=int(rng.integers(1, 6)))
            fields = [packed[i] for i in rows]
            pts = np.stack([self.points(phi, rng)[:120] for phi in fields])
            want = per_axis_bilinear(per_axis_stack([grids[i] for i in rows]), pts)
            stack = stack_fields(fields)
            assert stack.flat is buffer
            taken = stack_fields(packed).take(rows)
            assert taken.flat is buffer
            for got in (_bilinear(stack, pts), _bilinear(taken, pts)):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_fields_of_separate_arrays_are_copied(self):
        buffer = np.arange(40.0)
        view = Grid(buffer[:20].reshape(4, 5), 1.0)
        cases = [
            [Grid(np.ones((2, 3)), 1.0), Grid(np.ones((2, 3)), 1.0)],  # separate arrays
            [view, Grid(np.ones((2, 3)), 1.0)],  # one view and one array of its own
            [Grid(np.arange(24.0).reshape(2, 3, 4)[i], 1.0) for i in (0, 1)],  # views of a 3-D array
            [Grid(buffer[::2].reshape(4, 5), 1.0)],  # a strided view
            [Grid(buffer.view(np.uint8)[4:164].view(float).reshape(4, 5), 1.0)],  # off the element grid
        ]
        for fields in cases:
            stack = stack_fields(fields)
            assert not np.shares_memory(stack.flat, buffer)
            assert stack.flat.tobytes() == np.concatenate([f.values.ravel() for f in fields]).tobytes()
