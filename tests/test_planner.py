import math

import numpy as np
import pytest

from astra_nav.esdf import Grid
from astra_nav.geom import Pose2, PoseTrajectory, actions_to_poses
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
    planning_loss,
    planning_loss_at,
    reconstruct,
    sample,
    train,
    vf_eval,
)

GOLDEN_SEED0 = [
    0.07204962098735684,
    0.30745647779606533,
    0.4029011983715847,
    0.5852685904532521,
    -0.6471279652194855,
    -0.4935917979550649,
]


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
        m = VectorFieldModel([d_in, d_out], [w], [np.zeros(d_out)], n, c)
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
        x, t, c = np.ones(9), 0.3, np.zeros(5)
        np.testing.assert_array_equal(vf_eval(m, x, t, c), vf_eval(loaded, x, t, c))


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
        m = VectorFieldModel([d_in, d_out], [np.zeros((d_in, d_out))], [u[0].copy()], n, c)
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
        config = TrainConfig(
            epochs=5, batch_size=4, hidden=(8,), seed=3, esdf_lambda=0.1, n_actions=2
        )
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
            n_actions=2,
        )
        model, log = train(dataset, config)
        assert math.isfinite(log[-1]["cfm"])
        draws = [
            sample(model, cond, steps=40, rng=np.random.default_rng(s)) for s in range(6)
        ]
        err = np.stack([d.actions.steps - target for d in draws])
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
        x = inp[: 3 * self.n_actions]
        t = inp[3 * self.n_actions]
        return (x - self.x1) / t


class TestSample:
    def test_true_field_recovers_data_exactly(self):
        rng = np.random.default_rng(12)
        x1 = rng.normal(size=6)
        field = _TrueField(x1)
        for steps in (1, 5, 20):
            plan = sample(field, np.zeros(1), steps, np.random.default_rng(3))
            np.testing.assert_allclose(plan.actions.steps.ravel(), x1, atol=1e-12)

    def test_one_step_equals_reconstruct_from_noise(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=4)
        cond = np.array([0.1, 0.2, 0.3])
        noise = np.random.default_rng(7).standard_normal(6)
        v = vf_eval(m, noise, 1.0, cond)
        expect = reconstruct(noise, 1.0, v)
        plan = sample(m, cond, steps=1, rng=np.random.default_rng(7))
        np.testing.assert_allclose(plan.actions.steps.ravel(), expect, atol=1e-15)

    def test_fixed_rng_reproducible(self):
        m = VectorFieldModel.create(2, 3, hidden=(8,), seed=4)
        cond = np.zeros(3)
        a = sample(m, cond, 20, np.random.default_rng(5))
        b = sample(m, cond, 20, np.random.default_rng(5))
        np.testing.assert_array_equal(a.actions.steps, b.actions.steps)

    def test_poses_consistent_with_actions(self):
        m = VectorFieldModel.create(3, 2, hidden=(8,), seed=1)
        plan = sample(m, np.zeros(2), 10, np.random.default_rng(1), start=Pose2(1, 2, 0.3))
        rebuilt = actions_to_poses(plan.actions, Pose2(1, 2, 0.3))
        np.testing.assert_allclose(plan.poses.as_array(), rebuilt.as_array())


class TestCollision:
    def grid(self):
        vals = np.zeros((9, 9), bool)
        vals[4, 4] = True
        return Grid(vals, 0.2)

    def test_empty_grid_never_collides(self):
        grid = Grid(np.zeros((5, 5), bool), 0.2)
        poses = PoseTrajectory((Pose2(0.4, 0.4, 0),))
        assert collision_check(poses, grid, 0.3) is False

    def test_pose_on_obstacle(self):
        poses = PoseTrajectory((Pose2(0.8, 0.8, 0),))
        assert collision_check(poses, self.grid(), 0.3) is True

    def test_radius_threshold(self):
        # obstacle cell center at (0.8, 0.8); pose 0.4 m away on a cell center
        poses = PoseTrajectory((Pose2(1.2, 0.8, 0),))
        assert collision_check(poses, self.grid(), 0.3) is False
        assert collision_check(poses, self.grid(), 0.5) is True

    def test_precomputed_field(self):
        grid = self.grid()
        dist = distance_field(grid)
        poses = PoseTrajectory((Pose2(0.8, 0.8, 0),))
        assert collision_check(poses, None, 0.3, dist) is True


def test_occupancy_features_shape_and_content():
    vals = np.zeros((20, 20), bool)
    vals[:, 10:] = True  # occupied where x >= 2.5
    grid = Grid(vals, 0.25)
    feats = occupancy_features(grid, Pose2(2.0, 2.0, 0.0), extent=1.0, cells=8)
    assert feats.shape == (65,)
    patch = feats[:-1].reshape(8, 8)
    # patch spans x in [1, 3]: columns ahead of the pose hit the occupied slab
    assert patch[:, :4].mean() < patch[:, 4:].mean()
    assert feats[-1] <= 0.5  # mean signed distance half a meter from the wall


def test_condition_vector_layout():
    cond = PlanningCondition(Pose2(1, 2, 0.5), (0.2, -0.1), np.array([9.0, 8.0]))
    np.testing.assert_allclose(cond.vector(), [1, 2, 0.5, 0.2, -0.1, 9.0, 8.0])
    rebuilt = PlanningCondition.from_jsonable(cond.to_jsonable())
    np.testing.assert_allclose(rebuilt.vector(), cond.vector())
