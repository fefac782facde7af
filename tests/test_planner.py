import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from astra_nav import planner, sim
from astra_nav.esdf import Grid, SamplePointError, sample_bilinear, signed_esdf, stack_fields
from astra_nav.geom import Pose2, PoseTrajectory, poses_from_actions, wrap_angle
from astra_nav.planner import (
    PlannerError,
    PlanningCondition,
    PlanningSample,
    ShapeMismatchError,
    TrainConfig,
    VectorFieldModel,
    collision_check,
    distance_field,
    occupancy_features,
    plans_collide,
    planning_loss,
    planning_loss_at,
    reconstruct,
    sample,
    train,
)

GOLDEN_SEED0 = [
    0.07204962098735684,
    0.30745647779606533,
    0.4029011983715847,
    0.5852685904532521,
    -0.6471279652194855,
    -0.4935917979550649,
]


def vf_eval(model, x_t, t, cond):
    """The vector field at one flattened trajectory point."""
    x_t = np.asarray(x_t, dtype=float).ravel()
    if x_t.size != 3 * model.n_actions:
        raise ShapeMismatchError(f"x_t has {x_t.size} entries, expected {3 * model.n_actions}")
    return model.forward(np.concatenate([x_t, [t], planner._cond_vector(cond)]))


def smooth_field(n=12, res=0.5):
    xs = np.arange(n) * res
    vals = np.sin(xs[None, :] * 0.7) * 0.8 + np.cos(np.arange(n)[:, None] * 0.45) * 0.6
    return Grid(vals, res, (0.0, 0.0))


def tiny_samples(rng, n_actions=2, cond_dim=4, count=3):
    out = []
    for _ in range(count):
        out.append(
            PlanningSample(
                rng.normal(0, 0.08, (n_actions, 3)),
                rng.normal(0, 1, cond_dim),
                Pose2(2.7, 2.3, 0.4),
                smooth_field(),
            )
        )
    return out


class TestVectorField:
    def test_zero_weights_give_zero(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=0)
        m.set_params(np.zeros(m.param_count))
        out = vf_eval(m, np.ones(6), 0.5, np.ones(3))
        assert (out == 0).all()

    def test_identity_linear_layer(self):
        # single linear layer passing the trajectory block straight through
        n, c = 2, 3
        d_in, d_out = 3 * n + 1 + c, 3 * n
        w = np.zeros((d_in, d_out))
        w[:d_out, :] = np.eye(d_out)
        m = VectorFieldModel([d_in, d_out], np.concatenate([w.ravel(), np.zeros(d_out)]), n, c)
        x = np.arange(6.0)
        np.testing.assert_array_equal(vf_eval(m, x, 0.9, np.ones(3)), x)

    def test_golden_seed0(self):
        m = VectorFieldModel.create(n_actions=2, cond_dim=3, hidden=(8, 8), seed=0)
        out = vf_eval(m, np.linspace(-1, 1, 6), 0.37, np.array([0.5, -0.25, 1.0]))
        np.testing.assert_allclose(out, GOLDEN_SEED0, rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=0)
        with pytest.raises(ShapeMismatchError):
            vf_eval(m, np.ones(5), 0.5, np.ones(3))
        with pytest.raises(ShapeMismatchError):
            vf_eval(m, np.ones(6), 0.5, np.ones(2))

    def test_save_load_round_trip(self, tmp_path):
        m = VectorFieldModel.create(3, 5, hidden=(16, 8), seed=3)
        path = tmp_path / "m.json"
        m.save(path)
        loaded = VectorFieldModel.load(path)
        x = np.random.default_rng(0).normal(size=(4, m.layer_sizes[0]))
        assert loaded.forward(x).tobytes() == m.forward(x).tobytes()

    def test_create_keeps_its_draws(self):
        # the parameters of a bench-size model, as drawn layer by layer since the first release
        m = VectorFieldModel.create(16, 262, (64, 64), 0)
        assert hashlib.sha256(m.get_params().tobytes()).hexdigest() == (
            "5f4f9cb54a3b9a7ad6c3b54f9a67b50284c77e7641be1fb449845d1711454463"
        )


class TestReconstruct:
    def test_t_zero_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(reconstruct(x, 0.0, np.ones(3)), x)

    def test_scalar_example(self):
        assert reconstruct(np.array([0.5]), 0.5, np.array([-1.0]))[0] == pytest.approx(1.0)

    def test_exact_identity_on_random_tensors(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = int(rng.integers(1, 12))
            x0 = rng.normal(size=dim)
            x1 = rng.normal(size=dim)
            t = float(rng.random())
            x_t = (1 - t) * x1 + t * x0
            u = x0 - x1
            err = np.abs(reconstruct(x_t, t, u) - x1)
            assert err.max() < 1e-12


def cfm_samples(x1, cond):
    """PlanningSamples without a field: the planning loss at lambda 0 needs none."""
    return [PlanningSample(a, c) for a, c in zip(np.atleast_2d(x1), np.atleast_2d(cond))]


def flow_loss_at(model, x1, cond, t, x0):
    """Flow-matching loss and gradients: the planning loss at lambda 0."""
    loss, grads, _ = planning_loss_at(model, cfm_samples(x1, cond), 0.0, t, x0)
    return loss, grads


class TestCfmLoss:
    def test_zero_fixture(self):
        m = VectorFieldModel.create(1, 2, hidden=(4,), seed=0)
        m.set_params(np.zeros(m.param_count))
        x1 = np.zeros((2, 3))
        cond = np.zeros((2, 2))
        loss, grads = flow_loss_at(m, x1, cond, np.array([0.3, 0.8]), np.zeros((2, 3)))
        assert loss == 0.0
        assert (grads == 0).all()

    def test_model_matching_target_has_zero_loss(self):
        # constant-output model whose bias equals the fixed conditional velocity
        n, c = 1, 2
        d_in, d_out = 3 * n + 1 + c, 3 * n
        x0 = np.array([[0.4, -0.2, 0.1]])
        x1 = np.array([[1.0, 0.5, -0.3]])
        u = x0 - x1
        m = VectorFieldModel([d_in, d_out], np.concatenate([np.zeros(d_in * d_out), u[0]]), n, c)
        loss, _ = flow_loss_at(m, x1, np.zeros((1, 2)), np.array([0.6]), x0)
        assert loss == pytest.approx(0.0, abs=1e-30)

    def test_hand_computed_1d(self):
        # zero model, x1 with a single unit entry, forced t=0.5 and x0=0:
        # u = -x1, loss = ||0 - u||^2 = 1
        m = VectorFieldModel.create(1, 1, hidden=(4,), seed=0)
        m.set_params(np.zeros(m.param_count))
        x1 = np.array([[1.0, 0.0, 0.0]])
        loss, _ = flow_loss_at(m, x1, np.zeros((1, 1)), np.array([0.5]), np.zeros((1, 3)))
        assert loss == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        m = VectorFieldModel.create(1, 1, hidden=(4,), seed=0)
        with pytest.raises(PlannerError):
            planning_loss(m, [], 0.0, np.random.default_rng(0))

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        m = VectorFieldModel.create(2, 4, hidden=(12,), seed=2)
        x1 = rng.normal(size=(3, 6))
        cond = rng.normal(size=(3, 4))
        t = rng.uniform(0.1, 0.9, 3)
        x0 = rng.normal(size=(3, 6))
        _, grads = flow_loss_at(m, x1, cond, t, x0)
        p = m.get_params().copy()
        fd = np.zeros_like(grads)
        for i in range(p.size):
            h = 1e-5 * max(1.0, abs(p[i]))
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            m.set_params(pp)
            lp = flow_loss_at(m, x1, cond, t, x0)[0]
            m.set_params(pm)
            lm = flow_loss_at(m, x1, cond, t, x0)[0]
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(grads - fd) / np.maximum(1e-6, np.maximum(np.abs(grads), np.abs(fd)))
        assert rel.max() < 1e-4


class TestPlanningLoss:
    def test_lambda_zero_equals_cfm(self):
        # at lambda 0 the loss is ||v(x_t, t | c) - (x0 - x1)||^2 averaged over the
        # batch, whatever fields the samples carry
        rng = np.random.default_rng(5)
        samples = tiny_samples(rng)
        m = VectorFieldModel.create(2, 4, hidden=(8,), seed=1)
        t = rng.uniform(0.1, 0.9, 3)
        x0 = rng.normal(size=(3, 6))
        loss_p, grads_p, parts = planning_loss_at(m, samples, 0.0, t, x0)
        x1 = np.stack([s.actions.ravel() for s in samples])
        cond = np.stack([np.asarray(s.condition, dtype=float) for s in samples])
        xt = (1.0 - t)[:, None] * x1 + t[:, None] * x0
        v = m.forward(np.concatenate([xt, t[:, None], cond], axis=1))
        assert loss_p == pytest.approx(np.sum((v - (x0 - x1)) ** 2) / 3, rel=1e-14)
        assert loss_p == parts["cfm"]
        loss_c, grads_c = flow_loss_at(m, x1, cond, t, x0)
        assert loss_p == loss_c
        np.testing.assert_array_equal(grads_p, grads_c)
        assert parts["penalty"] == 0.0

    def test_uniform_field_penalty_constant(self):
        rng = np.random.default_rng(6)
        c_val = 0.7
        samples = tiny_samples(rng)
        for s in samples:
            s.phi = Grid(np.full((12, 12), c_val), 0.5, (0.0, 0.0))
        m = VectorFieldModel.create(2, 4, hidden=(8,), seed=1)
        t = rng.uniform(0.1, 0.9, 3)
        x0 = rng.normal(size=(3, 6))
        lam = 0.3
        loss, grads, parts = planning_loss_at(m, samples, lam, t, x0)
        n = 2
        assert parts["penalty"] == pytest.approx(n * c_val)
        loss0, grads0, _ = planning_loss_at(m, samples, 0.0, t, x0)
        assert loss == pytest.approx(loss0 - lam * n * c_val)
        np.testing.assert_allclose(grads, grads0, atol=1e-15)

    def test_field_shift_moves_loss_exactly(self):
        rng = np.random.default_rng(7)
        samples = tiny_samples(rng)
        m = VectorFieldModel.create(2, 4, hidden=(8,), seed=1)
        t = rng.uniform(0.1, 0.9, 3)
        x0 = rng.normal(size=(3, 6))
        lam, shift, n = 0.2, 0.9, 2
        base, _, _ = planning_loss_at(m, samples, lam, t, x0)
        for s in samples:
            s.phi = Grid(s.phi.values + shift, s.phi.resolution, s.phi.origin)
        moved, _, _ = planning_loss_at(m, samples, lam, t, x0)
        assert moved == pytest.approx(base - lam * n * shift)

    def test_missing_field_rejected(self):
        rng = np.random.default_rng(8)
        samples = tiny_samples(rng)
        samples[1].phi = None
        m = VectorFieldModel.create(2, 4, hidden=(8,), seed=1)
        with pytest.raises(PlannerError):
            planning_loss(m, samples, 0.1, np.random.default_rng(0))

    def test_gradcheck_with_penalty(self):
        rng = np.random.default_rng(42)
        samples = tiny_samples(rng)
        m = VectorFieldModel.create(2, 4, hidden=(16, 16), seed=1)
        t = rng.uniform(0.1, 0.9, 3)
        x0 = rng.normal(0, 0.1, (3, 6))
        _, grads, _ = planning_loss_at(m, samples, 0.25, t, x0)
        p = m.get_params().copy()
        fd = np.zeros_like(grads)
        for i in range(p.size):
            h = 1e-5 * max(1.0, abs(p[i]))
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            m.set_params(pp)
            lp = planning_loss_at(m, samples, 0.25, t, x0)[0]
            m.set_params(pm)
            lm = planning_loss_at(m, samples, 0.25, t, x0)[0]
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(grads - fd) / np.maximum(1e-6, np.maximum(np.abs(grads), np.abs(fd)))
        assert rel.max() < 1e-4


class TestTrain:
    def test_determinism(self):
        rng = np.random.default_rng(9)
        dataset = tiny_samples(rng, count=8)
        config = TrainConfig(epochs=5, batch_size=4, hidden=(8,), seed=3, esdf_lambda=0.1)
        m1, log1 = train(dataset, config)
        m2, log2 = train(dataset, config)
        np.testing.assert_array_equal(m1.get_params(), m2.get_params())
        assert log1 == log2

    def test_overfit_single_sample(self):
        # one expert trajectory, replicated so each step averages many (t, x0) draws
        rng = np.random.default_rng(10)
        target = rng.normal(0, 0.15, (2, 3))
        cond = np.array([0.3, -0.1])
        dataset = [PlanningSample(target, cond)] * 64
        config = TrainConfig(
            epochs=9000,
            batch_size=64,
            learning_rate=3e-3,
            hidden=(64, 64),
            seed=0,
            esdf_lambda=0.0,
        )
        model, log = train(dataset, config)
        assert math.isfinite(log[-1]["cfm"])
        draws = [sample(model, [cond], 40, [np.random.default_rng(s)])[0][0] for s in range(6)]
        err = np.stack([d - target for d in draws])
        assert np.abs(err).max() < 0.05

    def test_empty_dataset(self):
        with pytest.raises(PlannerError):
            train([], TrainConfig(epochs=1))

    def test_divergence_keeps_last_finite(self):
        rng = np.random.default_rng(11)
        dataset = tiny_samples(rng, count=4)
        config = TrainConfig(
            epochs=50, batch_size=4, learning_rate=1e6, hidden=(8,), seed=0, esdf_lambda=0.0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            model, log = train(dataset, config)
        assert np.isfinite(model.get_params()).all()
        assert any(entry.get("diverged") for entry in log)


class _TrueField:
    """Analytic field of a single data point: v(x, t) = (x - x1) / t."""

    def __init__(self, x1):
        self.x1 = np.asarray(x1, dtype=float)
        self.n_actions = self.x1.size // 3
        self.cond_dim = 1

    def forward(self, inp):
        # rows of [x, t, c], as the sampler passes them
        x = inp[:, : 3 * self.n_actions]
        t = inp[:, 3 * self.n_actions : 3 * self.n_actions + 1]
        return (x - self.x1) / t


class TestSample:
    def test_true_field_recovers_data_exactly(self):
        rng = np.random.default_rng(12)
        x1 = rng.normal(size=6)
        field = _TrueField(x1)
        for steps in (1, 5, 20):
            (plan,), _ = sample(field, [np.zeros(1)], steps, [np.random.default_rng(3)])
            np.testing.assert_allclose(plan.ravel(), x1, atol=1e-12)

    def test_one_step_equals_reconstruct_from_noise(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=4)
        cond = np.array([0.1, 0.2, 0.3])
        noise = np.random.default_rng(7).standard_normal(6)
        v = vf_eval(m, noise, 1.0, cond)
        expect = reconstruct(noise, 1.0, v)
        (plan,), _ = sample(m, [cond], 1, [np.random.default_rng(7)])
        np.testing.assert_allclose(plan.ravel(), expect, atol=1e-15)

    def test_fixed_rng_reproducible(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=4)
        cond = np.zeros(3)
        a = sample(m, [cond], 20, [np.random.default_rng(5)])
        b = sample(m, [cond], 20, [np.random.default_rng(5)])
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_poses_consistent_with_actions(self):
        # a plan's poses are the recurrence the loss integrates with, to the bit,
        # headings unwrapped; a PoseTrajectory of them wraps each as a Pose2 holds it
        m = VectorFieldModel.create(3, 2, hidden=(8,), seed=1)
        m.params *= 4.0  # turns of a few radians, so headings leave (-pi, pi]
        rng = np.random.default_rng(2)
        unwrapped = 0
        for i in range(20):
            start = Pose2(*rng.uniform(-5.0, 5.0, 2), rng.uniform(-math.pi, math.pi))
            actions, poses = sample(m, [rng.normal(size=2)], 10, [np.random.default_rng(i)],
                                    [start.as_tuple()])
            assert actions.shape == (1, 3, 3) and poses.shape == (1, 4, 3)
            want = poses_from_actions(actions, np.array([start.as_tuple()]))[0]
            assert poses.tobytes() == want.tobytes()
            wrapped = PoseTrajectory(poses[0])
            assert wrapped[0] == start
            assert wrapped.as_array()[:, 2].tolist() == [wrap_angle(th) for th in want[0, :, 2]]
            unwrapped += int((np.abs(want[..., 2]) > math.pi).sum())
        assert unwrapped > 0


class TestCollision:
    def grid(self):
        vals = np.zeros((9, 9), bool)
        vals[4, 4] = True
        return Grid(vals, 0.2)

    def test_empty_grid_never_collides(self):
        grid = Grid(np.zeros((5, 5), bool), 0.2)
        poses = PoseTrajectory([(0.4, 0.4, 0)])
        assert collision_check(poses, grid, 0.3) is False

    def test_pose_on_obstacle(self):
        poses = PoseTrajectory([(0.8, 0.8, 0)])
        assert collision_check(poses, self.grid(), 0.3) is True

    def test_radius_threshold(self):
        # obstacle cell center at (0.8, 0.8); pose 0.4 m away on a cell center
        poses = PoseTrajectory([(1.2, 0.8, 0)])
        assert collision_check(poses, self.grid(), 0.3) is False
        assert collision_check(poses, self.grid(), 0.5) is True

    def test_precomputed_field(self):
        grid = self.grid()
        dist = distance_field(grid)
        poses = PoseTrajectory([(0.8, 0.8, 0)])
        assert collision_check(poses, None, 0.3, dist) is True


def test_occupancy_features_shape_and_content():
    vals = np.zeros((20, 20), bool)
    vals[:, 10:] = True  # occupied where x >= 2.5
    grid = Grid(vals, 0.25)
    (feats,) = occupancy_features(grid, [(2.0, 2.0, 0.0)], signed_esdf(grid))
    assert feats.shape == (16 * 16 + 1,) == (planner.OCCUPANCY_FEATURES,)
    patch = feats[:-1].reshape(16, 16)
    # patch spans x in [0, 4]: columns ahead of the pose hit the occupied slab
    assert patch[:, :8].mean() < patch[:, 8:].mean()
    assert feats[-1] <= 0.5  # mean signed distance half a meter from the wall


def ref_occupancy_features(grid, pose, phi):
    """The encoding with its patch grid and ring built per call."""
    step = 2.0 * 2.0 / 16
    offs = -2.0 + step * (np.arange(16) + 0.5)
    u, v = np.meshgrid(offs, offs)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    wx = pose.x + c * u - s * v
    wy = pose.y + s * u + c * v
    col = np.rint((wx - grid.origin[0]) / grid.resolution).astype(int)
    row = np.rint((wy - grid.origin[1]) / grid.resolution).astype(int)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    patch = np.ones(u.shape)
    patch[inside] = grid.values[row[inside], col[inside]].astype(float)
    r = grid.resolution
    ring = [(pose.x + dx * r, pose.y + dy * r) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    return np.concatenate([patch.ravel(), [float(np.mean(sample_bilinear(phi, np.asarray(ring))))]])


def test_occupancy_features_match_per_call_grids_bit_for_bit():
    rng = np.random.default_rng(8)
    grid = Grid(rng.random((24, 30)) < 0.25, 0.25, (-1.0, 0.5))
    phi = signed_esdf(grid)
    # off-grid positions on every side, signed zeros, and headings at and next to +-pi
    xs = [-0.0, 0.0, -1.0, 3.3, 8.0] + rng.uniform(-2.0, 9.0, 20).tolist()
    thetas = [math.pi, -math.pi, math.nextafter(math.pi, 0.0), -0.0, 0.0] + rng.uniform(-4, 4, 20).tolist()
    poses = [Pose2(x, y, theta) for x, y, theta in zip(xs, rng.permutation(xs), thetas)]
    want = [ref_occupancy_features(grid, pose, phi) for pose in poses]
    # one batch of all 25 poses, each pose as a batch of one, and an empty batch
    batch = occupancy_features(grid, np.array([pose.as_tuple() for pose in poses]), phi)
    assert batch.shape == (25, planner.OCCUPANCY_FEATURES)
    for pose, got, ref in zip(poses, batch, want):
        assert got.tobytes() == ref.tobytes()
        (alone,) = occupancy_features(grid, [pose.as_tuple()], phi)
        assert alone.tobytes() == ref.tobytes()
    assert occupancy_features(grid, np.zeros((0, 3)), phi).shape == (0, planner.OCCUPANCY_FEATURES)


def ref_plan_collides(poses, dist, radius):
    """One plan's verdict, one scalar lookup per pose."""
    return any(sample_bilinear(dist, [pose[:2]])[0] < radius for pose in poses)


def test_plans_collide_matches_per_plan_checks():
    rng = np.random.default_rng(3)
    grid = Grid(rng.random((20, 26)) < 0.05, 0.25, (-0.5, 1.0))
    dist = distance_field(grid)
    verdicts = []
    for b, m in ((40, 17), (5, 1), (1, 4), (0, 17), (3, 0)):
        # short random walks from starts spread past the grid on every side
        poses = rng.normal(0.0, 0.1, (b, m, 3))
        poses[:, :1] = rng.uniform(-2.0, 7.5, (b, 1, 3))
        poses = np.cumsum(poses, axis=1)
        for radius in (0.0, 0.3, 0.6):
            got = plans_collide(poses, dist, radius)
            assert got.dtype == bool and got.shape == (b,)
            want = [ref_plan_collides(plan, dist, radius) for plan in poses]
            assert got.tolist() == want
            assert want == [collision_check(PoseTrajectory(plan), None, radius, dist) for plan in poses]
            assert want == [collision_check(PoseTrajectory(plan), grid, radius) for plan in poses]
            # (x, y) rows alone give the same verdicts
            assert plans_collide(poses[..., :2], dist, radius).tolist() == want
            verdicts += want
    assert 0 < sum(verdicts) < len(verdicts) - 20
    poses = np.ones((3, 4, 3))
    poses[1, 2, 1] = np.nan
    with pytest.raises(SamplePointError):
        plans_collide(poses, dist, 0.3)
    with pytest.raises(SamplePointError):
        collision_check(PoseTrajectory(poses[1]), None, 0.3, dist)
    with pytest.raises(PlannerError, match="radius"):
        plans_collide(np.ones((1, 2, 3)), dist, -0.1)


def test_condition_vector_layout():
    cond = PlanningCondition(Pose2(1, 2, 0.5), (0.2, -0.1), np.array([9.0, 8.0]))
    np.testing.assert_allclose(cond.vector(), [1, 2, 0.5, 0.2, -0.1, 9.0, 8.0])
    rebuilt = PlanningCondition.from_jsonable(cond.to_jsonable())
    np.testing.assert_allclose(rebuilt.vector(), cond.vector())
    # the batched layout is the one-condition layout, row by row, to the byte
    rng = np.random.default_rng(3)
    conds = [PlanningCondition(Pose2(*rng.normal(size=3)), (float(v), 0.0), rng.normal(size=4))
             for v in rng.uniform(0, 0.2, size=6)]
    rows = planner.condition_vectors([c.goal for c in conds], [c.velocity for c in conds],
                                     np.stack([c.occ_features for c in conds]))
    want = [np.concatenate([c.goal.as_tuple(), c.velocity, c.occ_features]).tobytes() for c in conds]
    assert [r.tobytes() for r in rows] == want
    assert [c.vector().tobytes() for c in conds] == want
    assert planner.condition_vectors([], [], np.zeros((0, 4))).shape == (0, 9)
    with pytest.raises(ValueError):
        planner.condition_vectors([cond.goal], [], np.zeros((1, 2)))


# --- references: the per-sample training path and one-at-a-time sampling ------

def ref_bilinear(values, resolution, origin, pts):
    """The one-field bilinear kernel with gradient that training used per sample."""
    h, w = values.shape
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    gx = (pts[:, 0] - origin[0]) / resolution
    gy = (pts[:, 1] - origin[1]) / resolution
    cx = np.clip(gx, 0.0, w - 1.0)
    cy = np.clip(gy, 0.0, h - 1.0)
    ix = np.minimum(np.floor(cx).astype(np.intp), max(w - 2, 0))
    iy = np.minimum(np.floor(cy).astype(np.intp), max(h - 2, 0))
    jx = np.minimum(ix + 1, w - 1)
    jy = np.minimum(iy + 1, h - 1)
    f00, f10, f01, f11 = values[iy, ix], values[iy, jx], values[jy, ix], values[jy, jx]
    u, v = cx - ix, cy - iy
    out = f00 * (1 - u) * (1 - v) + f10 * u * (1 - v) + f01 * (1 - u) * v + f11 * u * v
    du = (f10 - f00) * (1 - v) + (f11 - f01) * v
    dv = (f01 - f00) * (1 - u) + (f11 - f10) * u
    inside_x = (gx == cx).astype(float)
    inside_y = (gy == cy).astype(float)
    return out, du * inside_x / resolution, dv * inside_y / resolution


def ref_poses_from_actions(actions, starts):
    """The pose recurrence one step at a time, over the whole batch."""
    b, n, _ = actions.shape
    poses = np.empty((b, n + 1, 3))
    poses[:, 0] = starts
    for k in range(1, n + 1):
        th = poses[:, k - 1, 2]
        c, s = np.cos(th), np.sin(th)
        dx, dy, dth = actions[:, k - 1, 0], actions[:, k - 1, 1], actions[:, k - 1, 2]
        poses[:, k, 0] = poses[:, k - 1, 0] + c * dx - s * dy
        poses[:, k, 1] = poses[:, k - 1, 1] + s * dx + c * dy
        poses[:, k, 2] = th + dth
    return poses


def ref_adjoint(poses, actions, gx, gy):
    """The action gradient by reverse accumulation one step at a time."""
    b, n, _ = actions.shape
    dact = np.zeros_like(actions)
    ax_adj, ay_adj, at_adj = np.zeros(b), np.zeros(b), np.zeros(b)
    for k in range(n, 0, -1):
        ax_adj = ax_adj + gx[:, k - 1]
        ay_adj = ay_adj + gy[:, k - 1]
        th = poses[:, k - 1, 2]
        c, s = np.cos(th), np.sin(th)
        dx, dy = actions[:, k - 1, 0], actions[:, k - 1, 1]
        dact[:, k - 1, 0] = ax_adj * c + ay_adj * s
        dact[:, k - 1, 1] = -ax_adj * s + ay_adj * c
        dact[:, k - 1, 2] = at_adj
        at_adj = at_adj + ax_adj * (-s * dx - c * dy) + ay_adj * (c * dx - s * dy)
    return dact


def ref_penalty_and_grad(samples, actions, starts):
    """Clearance bonus and action gradient with one field lookup per sample,
    the recurrence and its adjoint one step at a time."""
    b, n, _ = actions.shape
    poses = ref_poses_from_actions(actions, starts)
    values, gx, gy = np.zeros((b, n)), np.zeros((b, n)), np.zeros((b, n))
    for i, s in enumerate(samples):
        values[i], gx[i], gy[i] = ref_bilinear(s.phi.values, s.phi.resolution, s.phi.origin, poses[i, 1:, :2])
    return values.sum(axis=1), ref_adjoint(poses, actions, gx, gy)


def ref_forward_cached(model, x):
    """Every layer's activation, each from a fresh product plus bias."""
    acts = [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < len(model.weights) - 1 else z)
    return acts[-1], acts


def ref_planning_loss(model, samples, lam, rng):
    """The planning loss with the batch's arrays rebuilt from its samples."""
    t = rng.random(len(samples))
    x0 = rng.standard_normal((len(samples), 3 * model.n_actions))
    x1 = np.stack([s.actions.ravel() for s in samples])
    cond = np.stack([planner._cond_vector(s.condition) for s in samples])
    starts = np.array([[s.start.x, s.start.y, s.start.theta] for s in samples])
    b = x1.shape[0]
    xt = (1.0 - t)[:, None] * x1 + t[:, None] * x0
    v, acts = ref_forward_cached(model, np.concatenate([xt, t[:, None], cond], axis=1))
    diff = v - (x0 - x1)
    cfm = float(np.sum(diff * diff) / b)
    dv = 2.0 * diff / b
    penalty = 0.0
    if lam != 0.0:
        n = model.n_actions
        sums, dact = ref_penalty_and_grad(samples, reconstruct(xt, t, v).reshape(b, n, 3), starts)
        penalty = float(sums.mean())
        dv = dv + (lam / b) * t[:, None] * dact.reshape(b, 3 * n)
    return cfm - lam * penalty, ref_backward(model, acts, dv), {"cfm": cfm, "penalty": penalty}


def ref_train(dataset, config):
    """Momentum SGD over batches of samples (no divergence handling needed here)."""
    model = VectorFieldModel.create(
        dataset[0].actions.shape[0], planner._cond_vector(dataset[0].condition).size,
        config.hidden, seed=config.seed,
    )
    rng = np.random.default_rng(config.seed + 1)
    velocity = np.zeros(model.param_count)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        cfm_terms, penalty_terms = [], []
        for lo in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[lo : lo + config.batch_size]]
            _, grads, parts = ref_planning_loss(model, batch, config.esdf_lambda, rng)
            velocity = config.momentum * velocity - config.learning_rate * grads
            model.set_params(model.get_params() + velocity)
            cfm_terms.append(parts["cfm"])
            penalty_terms.append(parts["penalty"])
        log.append({
            "epoch": epoch,
            "cfm": float(np.mean(cfm_terms)),
            "penalty": float(np.mean(penalty_terms)),
            "loss": float(np.mean(cfm_terms) - config.esdf_lambda * np.mean(penalty_terms)),
        })
    return model, log


@pytest.fixture(scope="module")
def mixed_dataset():
    """Expert windows from worlds of two sizes, so a batch mixes field geometries."""
    worlds = [sim.generate_world(0, 24), sim.generate_world(1, 32)]
    data = sim.build_planning_dataset(worlds, 6, n_actions=8, seed=0)
    assert {s.phi.values.shape for s in data} == {(24, 24), (32, 32)}
    return data


def random_fields(rng, count):
    """Fields of differing shape, resolution and origin, one per sample."""
    fields = []
    for _ in range(count):
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        fields.append(Grid(rng.normal(size=(h, w)), float(rng.choice([0.1, 0.25, 0.3, 1.0])),
                           tuple(rng.uniform(-2.0, 2.0, size=2))))
    return fields


def test_penalty_gather_matches_per_sample_reference():
    # one flat gather over mixed geometries gives the per-sample lookups bit for bit,
    # inside the lattices and on points clamped to their borders
    rng = np.random.default_rng(21)
    for n in (1, 3, 16):
        fields = random_fields(rng, 12)
        samples = [PlanningSample(np.zeros((n, 3)), np.zeros(1), phi=f) for f in fields]
        actions = rng.normal(0.0, 1.5, size=(12, n, 3))
        starts = rng.uniform(-3.0, 6.0, size=(12, 3))
        got = planner._penalty_and_grad(stack_fields(fields), actions, starts)
        want = ref_penalty_and_grad(samples, actions, starts)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_train_matches_per_sample_reference(mixed_dataset, lam):
    config = TrainConfig(epochs=3, batch_size=4, hidden=(16,), seed=2, esdf_lambda=lam)
    model, log = train(mixed_dataset, config)
    ref_model, ref_log = ref_train(mixed_dataset, config)
    assert model.get_params().tobytes() == ref_model.get_params().tobytes()
    assert log == ref_log


def unpacked(dataset):
    """The samples with each field copied into an array of its own."""
    return [dataclasses.replace(s, phi=Grid(s.phi.values.copy(), s.phi.resolution, s.phi.origin))
            for s in dataset]


def test_packed_and_unpacked_datasets_train_alike(mixed_dataset):
    buffer = mixed_dataset[0].phi.values.base
    assert buffer is not None and all(s.phi.values.base is buffer for s in mixed_dataset)
    config = TrainConfig(epochs=3, batch_size=4, hidden=(16,), seed=2, esdf_lambda=0.1)
    model, log = train(mixed_dataset, config)
    copied_model, copied_log = train(unpacked(mixed_dataset), config)
    assert model.get_params().tobytes() == copied_model.get_params().tobytes()
    assert log == copied_log


def test_stack_of_a_packed_dataset_shares_its_buffer(mixed_dataset):
    buffer = mixed_dataset[0].phi.values.base
    stack = stack_fields([s.phi for s in mixed_dataset])
    assert np.shares_memory(stack.flat, buffer)
    assert np.shares_memory(stack_fields([s.phi for s in mixed_dataset[::-3]]).flat, buffer)
    copied = stack_fields([s.phi for s in unpacked(mixed_dataset)])
    assert not np.shares_memory(copied.flat, buffer)
    for a, b in zip(stack[1:], copied[1:]):
        assert a.tobytes() == b.tobytes()


def test_training_allocates_less_than_the_dataset_fields():
    # a packed dataset at the benchmark's size: training reads its fields in
    # place, so no copy of them, whole or per batch, adds up to their bytes
    worlds = [sim.generate_world(s, 48) for s in range(3)]
    data = sim.build_planning_dataset(worlds, 128, seed=0)
    field_bytes = sum(s.phi.values.nbytes for s in data)
    config = TrainConfig(epochs=2, batch_size=64, seed=0, esdf_lambda=0.1)
    tracemalloc.start()
    try:
        train(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 384 and peak < field_bytes


@pytest.fixture(scope="module")
def bench_dataset():
    """16-action expert windows from the three 48-cell worlds, with the full
    condition encoding: 160 samples, so an epoch has two batches of 64 and
    one of 32."""
    worlds = [sim.generate_world(s, 48) for s in range(3)]
    data = sim.build_planning_dataset(worlds, 54, seed=0)[:160]
    assert len(data) == 160 and data[0].actions.shape == (16, 3)
    return data


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_train_matches_reference_at_bench_shapes(bench_dataset, lam):
    # the in-place momentum step, activations and gradients, at the layer
    # widths and batch size the benchmark trains with
    config = TrainConfig(epochs=2, batch_size=64, hidden=(128, 128, 128), seed=0, esdf_lambda=lam)
    model, log = train(bench_dataset, config)
    ref_model, ref_log = ref_train(bench_dataset, config)
    assert model.get_params().tobytes() == ref_model.get_params().tobytes()
    assert log == ref_log


def signed_zero_actions(rng, b, n, turn_scale=1.0):
    """Actions with many exact zeros of both signs; a large turn_scale carries
    the headings far beyond +-pi."""
    actions = rng.normal(0.0, 1.5, size=(b, n, 3))
    actions[..., 2] *= turn_scale
    actions[rng.random(actions.shape) < 0.25] = -0.0
    actions[rng.random(actions.shape) < 0.1] = 0.0
    return actions


@pytest.mark.parametrize("n", [0, 1, 2, 16])
@pytest.mark.parametrize("b", [1, 64])
def test_pose_recurrence_and_adjoint_match_the_step_loops(n, b):
    rng = np.random.default_rng(100 * n + b)
    far = 0.0
    for trial, scale in enumerate([1.0, 1e3, -50.0, 1.0, 7.0, 1e6]):
        actions = signed_zero_actions(rng, b, n, scale)
        starts = rng.uniform(-3.0, 6.0, size=(b, 3))
        starts[:, 2] *= scale
        if trial == 3:
            starts[:] = -0.0
        poses = poses_from_actions(actions, starts)[0]
        assert poses.tobytes() == ref_poses_from_actions(actions, starts).tobytes()
        far = max(far, np.abs(poses[..., 2]).max())
        fields = random_fields(rng, b)
        samples = [PlanningSample(np.zeros((n, 3)), np.zeros(1), phi=f) for f in fields]
        got = planner._penalty_and_grad(stack_fields(fields), actions, starts)
        want = ref_penalty_and_grad(samples, actions, starts)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    assert far > 10 * math.pi


def test_adjoint_matches_the_step_loop_on_signed_zero_gradients(monkeypatch):
    # gradients of exact zeros of both signs, as clamped points give: the
    # reverse sums start from 0.0, as the loop's np.zeros do
    rng = np.random.default_rng(9)
    b, n = 64, 16
    actions = signed_zero_actions(rng, b, n, 40.0)
    poses = ref_poses_from_actions(actions, rng.normal(size=(b, 3)))
    gx, gy = (rng.choice([0.0, -0.0, 1.5, -2.0], size=(b, n)) for _ in range(2))
    fields = [Grid(np.zeros((2, 2)), 1.0)] * b

    monkeypatch.setattr(planner, "_bilinear", lambda stack, pts: (np.zeros(pts.shape[:2]), gx, gy))
    _, dact = planner._penalty_and_grad(stack_fields(fields), actions, poses[:, 0])
    assert dact.tobytes() == ref_adjoint(poses, actions, gx, gy).tobytes()


def test_cos_and_sin_keep_their_bits_on_any_layout():
    # the recurrence takes the cosine and sine of all headings at once, the
    # loop of one strided column at a time; numpy may vectorize contiguous
    # and strided inputs differently, so equal bits are checked, not assumed
    rng = np.random.default_rng(4)
    headings = np.concatenate([rng.normal(0.0, s, 4000) for s in (1.0, 10.0, 1e3, 1e6, 1e12)])
    headings[:50] = [k * math.pi / 4 for k in range(-25, 25)]
    poses = np.zeros((len(headings) // 17, 17, 3))
    poses[..., 2] = headings[: poses.shape[0] * 17].reshape(-1, 17)
    block = poses[:, :-1, 2]
    for fn in (np.cos, np.sin):
        whole = fn(block)
        assert whole.tobytes() == fn(np.ascontiguousarray(block)).tobytes()
        for k in range(16):
            assert whole[:, k].tobytes() == fn(poses[:, k, 2]).tobytes()


def test_training_gathers_fields_once_per_train(mixed_dataset, monkeypatch):
    gathers = []

    def counting(fields):
        gathers.append(len(fields))
        return stack_fields(fields)

    monkeypatch.setattr(planner, "stack_fields", counting)
    train(mixed_dataset, TrainConfig(epochs=2, batch_size=5, hidden=(8,), esdf_lambda=0.1))
    assert gathers == [len(mixed_dataset)]


def test_batched_sampler_matches_sequential_samples():
    m = VectorFieldModel.create(4, 5, hidden=(16, 16), seed=3)
    cond = np.linspace(-1.0, 1.0, 5)
    start = (1.0, -2.0, 0.5)
    # k plans of one condition from one shared generator, against k plans drawn one at a time
    for k in (1, 2, 7):
        actions, poses = sample(m, [cond] * k, 20, [np.random.default_rng(k)] * k, [start] * k)
        rng = np.random.default_rng(k)
        alone = [sample(m, [cond], 20, [rng], [start]) for _ in range(k)]
        seq_actions = np.concatenate([a for a, _ in alone])
        seq_poses = np.concatenate([p for _, p in alone])
        assert actions.shape == (k, 4, 3) and poses.shape == (k, 5, 3)
        assert actions.tobytes() == seq_actions.tobytes() and poses.tobytes() == seq_poses.tobytes()
    # one plan per condition, each from its own generator and start, against plans drawn alone
    conds = [np.linspace(-1.0, 1.0, 5) * s for s in (1.0, -0.5, 2.0)]
    starts = [(0.0, 0.0, 0.0), (1.0, -2.0, 0.5), (-3.0, 0.5, -2.5)]
    actions, poses = sample(m, conds, 20, [np.random.default_rng(s) for s in (4, 5, 6)], starts)
    for a, p, cond, seed, start in zip(actions, poses, conds, (4, 5, 6), starts):
        (alone_a,), (alone_p,) = sample(m, [cond], 20, [np.random.default_rng(seed)], [start])
        assert a.tobytes() == alone_a.tobytes() and p.tobytes() == alone_p.tobytes()
        assert p[0].tolist() == list(start)


def test_batched_sampler_draws_the_sequential_noise():
    # with a zero field the Euler steps leave the noise as it was drawn
    m = VectorFieldModel.create(3, 2, hidden=(8,), seed=0)
    m.set_params(np.zeros(m.param_count))
    # k plans that share one generator draw the stream of one (k, 3n) draw
    actions, _ = sample(m, [np.zeros(2)] * 6, 5, [np.random.default_rng(4)] * 6)
    assert actions.reshape(6, 9).tobytes() == np.random.default_rng(4).standard_normal((6, 9)).tobytes()
    rng = np.random.default_rng(4)
    noise = np.stack([rng.standard_normal(9) for _ in range(6)])
    assert actions.reshape(6, 9).tobytes() == noise.tobytes()
    # one plan per generator: each plan's noise is its own generator's first draw
    actions, _ = sample(m, [np.zeros(2)] * 3, 5, [np.random.default_rng(s) for s in (7, 8, 9)])
    for plan, seed in zip(actions, (7, 8, 9)):
        assert plan.tobytes() == np.random.default_rng(seed).standard_normal(9).tobytes()


def test_sampler_takes_a_condition_array_as_its_rows():
    m = VectorFieldModel.create(3, 4, hidden=(8,), seed=2)
    conds = np.random.default_rng(1).normal(size=(5, 4))
    starts = np.random.default_rng(2).normal(size=(5, 3))
    got = sample(m, conds, 6, [np.random.default_rng(s) for s in range(5)], starts)
    want = sample(m, list(conds), 6, [np.random.default_rng(s) for s in range(5)], starts)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    actions, poses = sample(m, np.zeros((0, 4)), 6, [])
    assert actions.shape == (0, 3, 3) and poses.shape == (0, 4, 3)


def test_sampler_checks_shapes_once_and_finiteness_once(monkeypatch):
    m = VectorFieldModel.create(2, 3, hidden=(8,), seed=1)
    # a condition of the wrong size is refused before any generator draws,
    # whether it comes as a row of a list or as the width of an array
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatchError):
        sample(m, [np.zeros(3), np.zeros(4)], 5, [rng, rng])
    for width in (2, 4):
        with pytest.raises(ShapeMismatchError, match=f"condition has {width} entries, expected 3"):
            sample(m, np.zeros((2, width)), 5, [rng, rng])
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
    with pytest.raises(PlannerError):
        sample(m, [np.zeros(3)] * 3, 0, [np.random.default_rng(0)] * 3)
    original = VectorFieldModel.forward
    for bad in (np.nan, np.inf, -np.inf):
        calls = []

        def poisoned(self, x):
            calls.append(x.shape)
            out = original(self, x)
            if len(calls) >= 3:
                # an infinity, then the opposite one, whose difference with x is NaN
                out[1, 0] = bad if len(calls) == 3 else -bad
            return out

        monkeypatch.setattr(VectorFieldModel, "forward", poisoned)
        # a non-finite output at step 3 leaves x non-finite through the later
        # steps, which run without a RuntimeWarning, and the one check after
        # the loop raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PlannerError, match="non-finite"):
                sample(m, [np.zeros(3)] * 4, 10, [np.random.default_rng(0)] * 4)
        assert calls == [(4, 10)] * 10


@pytest.mark.parametrize(
    "n_actions, cond_dim, hidden",
    [(4, 6, ()), (4, 6, (8,)), (4, 6, (16, 8)), (16, 262, (64, 64))],
    ids=["1-layer", "2-layer", "3-layer", "bench-size"],
)
def test_forward_matches_the_cached_pass_bit_for_bit(n_actions, cond_dim, hidden):
    m = VectorFieldModel.create(n_actions, cond_dim, hidden=hidden, seed=2)
    m.params += np.random.default_rng(1).normal(0.0, 0.1, m.param_count)  # nonzero biases
    rng = np.random.default_rng(5)
    d_in = m.layer_sizes[0]
    for rows in (1, 3, 30):
        x = rng.normal(0.0, 3.0, size=(rows, d_in))
        kept = x.tobytes()
        got = m.forward(x)
        assert got.shape == (rows, 3 * n_actions)
        assert got.tobytes() == m._forward_cached(x)[0].tobytes()
        assert x.tobytes() == kept  # the input is left as it was
    row = rng.normal(size=d_in)
    got = m.forward(row)
    assert got.shape == (3 * n_actions,)
    assert got.tobytes() == m._forward_cached(row)[0].tobytes()
    assert m.forward(row.tolist()).tobytes() == got.tobytes()
    for bad in (np.zeros((2, d_in + 1)), np.zeros(d_in - 1)):
        with pytest.raises(ShapeMismatchError):
            m.forward(bad)


def shares_params(model):
    """Whether every layer's weights and biases are views into model.params,
    which starts on a 64-byte boundary."""
    return all(
        np.shares_memory(p, model.params) for p in (*model.weights, *model.biases)
    ) and model.param_count == sum(w.size + b.size for w, b in zip(model.weights, model.biases)) and (
        model.params.ctypes.data % 64 == 0
    )


def ref_backward(model, acts, dout):
    """Per-layer gradients concatenated as W1, b1, W2, b2, ..."""
    delta = np.atleast_2d(dout)
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - acts[i] ** 2)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grads_w, grads_b)])


class TestFlatParams:
    def test_layers_are_views_after_create_load_and_train(self, tmp_path, mixed_dataset):
        m = VectorFieldModel.create(3, 5, hidden=(16, 8), seed=3)
        assert shares_params(m)
        m.save(tmp_path / "m.json")
        loaded = VectorFieldModel.load(tmp_path / "m.json")
        assert shares_params(loaded)
        assert loaded.params.tobytes() == m.params.tobytes()
        trained, _ = train(mixed_dataset, TrainConfig(epochs=2, batch_size=5, hidden=(8,)))
        assert shares_params(trained)

    def test_layout_is_w1_b1_w2_b2(self):
        m = VectorFieldModel.create(2, 3, hidden=(8, 4), seed=1)
        want = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(m.weights, m.biases)])
        assert m.get_params().tobytes() == want.tobytes()
        m.set_params(np.arange(m.param_count, dtype=float))
        assert m.weights[0][0, 1] == 1.0 and m.biases[0][0] == m.weights[0].size
        assert m.weights[1][0, 0] == m.weights[0].size + m.biases[0].size

    def test_get_params_is_a_copy_and_set_params_checks_size(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=0)
        before = m.params.copy()
        p = m.get_params()
        p += 1.0
        assert m.params.tobytes() == before.tobytes()
        for size in (m.param_count - 1, m.param_count + 1, 0):
            with pytest.raises(ShapeMismatchError):
                m.set_params(np.zeros(size))
        assert m.params.tobytes() == before.tobytes()

    def test_constructor_checks_layer_shapes(self):
        n, c = 2, 3
        d_in, d_out = 3 * n + 1 + c, 3 * n
        count = (d_in + 1) * d_out
        VectorFieldModel([d_in, d_out], np.zeros(count), n, c)
        for params in (np.zeros(count - 1), np.zeros(count + 1), np.zeros((d_out, d_in + 1)), []):
            with pytest.raises(ShapeMismatchError):
                VectorFieldModel([d_in, d_out], params, n, c)
        for sizes in ([d_in + 1, d_out], [d_in, d_out + 1]):
            with pytest.raises(ShapeMismatchError):
                VectorFieldModel(sizes, np.zeros((sizes[0] + 1) * sizes[1]), n, c)

    @pytest.mark.parametrize("hidden", [(), (8,), (16, 8, 4)])
    def test_backward_matches_per_layer_concatenation(self, hidden):
        m = VectorFieldModel.create(3, 4, hidden=hidden, seed=5)
        rng = np.random.default_rng(6)
        for rows in (1, 7):
            _, acts = m._forward_cached(rng.normal(size=(rows, m.layer_sizes[0])))
            dout = rng.normal(size=(rows, m.layer_sizes[-1]))
            assert m.backward(acts, dout).tobytes() == ref_backward(m, acts, dout).tobytes()

    def test_train_steps_in_place(self, mixed_dataset, monkeypatch):
        counts = {"get_params": 0, "set_params": 0}
        for name in counts:
            original = getattr(VectorFieldModel, name)

            def counting(self, *args, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(VectorFieldModel, name, counting)
        epochs = 3
        train(mixed_dataset, TrainConfig(epochs=epochs, batch_size=2, hidden=(8,)))
        assert len(mixed_dataset) > 2 * epochs
        # one checkpoint before training and one per epoch, none per batch
        assert counts == {"get_params": epochs + 1, "set_params": 0}
