"""Flow-matching local planner over relative-action trajectories.

A small MLP represents the vector field v(x_t, t | c). Training follows the
conditional flow-matching objective with the straight path placing data at
t = 0:

    x_t = (1 - t) * x1 + t * x0,   u = x0 - x1,   loss = E ||v - u||^2

so the one-shot reconstruction x~ = x_t - t * v recovers x1 exactly when
v equals u. The full planning loss subtracts a clearance bonus,
lambda * sum of the masked signed-distance field sampled along the pose
trajectory reconstructed from x~; its gradient is accumulated by hand
through the bilinear interpolation and the SE(2) pose recurrence, so the
loss exposes exact reverse-mode parameter gradients; at lambda = 0 it is the
plain flow-matching loss.

Sampling integrates the learned field with Euler steps from t = 1 (noise)
down to t = 0: x <- x - dt * v(x, t | c).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AstraError
from .esdf import Grid, _bilinear, edt, sample_bilinear, signed_esdf
from .geom import ActionTrajectory, Pose2, PoseTrajectory, actions_to_poses


class PlannerError(AstraError):
    pass


class ShapeMismatchError(PlannerError):
    pass


@dataclass
class PlanningCondition:
    """Conditioning input: subgoal in the ego frame, current velocity, and a
    fixed-length encoding of the local occupancy."""

    goal: Pose2
    velocity: tuple[float, float] = (0.0, 0.0)
    occ_features: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def vector(self) -> np.ndarray:
        occ = np.asarray(self.occ_features, dtype=float).ravel()
        head = np.array(
            [self.goal.x, self.goal.y, self.goal.theta, self.velocity[0], self.velocity[1]]
        )
        return np.concatenate([head, occ])

    def to_jsonable(self) -> dict:
        return {
            "goal": list(self.goal.as_tuple()),
            "velocity": [float(self.velocity[0]), float(self.velocity[1])],
            "occ_features": [float(v) for v in np.asarray(self.occ_features).ravel()],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "PlanningCondition":
        return cls(
            Pose2(*data["goal"]),
            tuple(data.get("velocity", (0.0, 0.0))),
            np.asarray(data.get("occ_features", []), dtype=float),
        )


def _cond_vector(cond) -> np.ndarray:
    if isinstance(cond, PlanningCondition):
        return cond.vector()
    return np.asarray(cond, dtype=float).ravel()


class VectorFieldModel:
    """Fully-connected vector field with tanh hidden layers and a linear head."""

    def __init__(self, layer_sizes, weights, biases, n_actions, cond_dim, activation="tanh"):
        if activation != "tanh":
            raise PlannerError(f"unsupported activation: {activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.n_actions = int(n_actions)
        self.cond_dim = int(cond_dim)
        self.activation = activation
        expect_in = 3 * self.n_actions + 1 + self.cond_dim
        if self.layer_sizes[0] != expect_in or self.layer_sizes[-1] != 3 * self.n_actions:
            raise ShapeMismatchError(
                f"layer sizes {self.layer_sizes} incompatible with "
                f"n_actions={self.n_actions}, cond_dim={self.cond_dim}"
            )

    @classmethod
    def create(cls, n_actions: int, cond_dim: int, hidden=(128, 128, 128), seed: int = 0):
        rng = np.random.default_rng(seed)
        sizes = [3 * n_actions + 1 + cond_dim, *hidden, 3 * n_actions]
        weights, biases = [], []
        for d_in, d_out in zip(sizes[:-1], sizes[1:]):
            weights.append(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)))
            biases.append(np.zeros(d_out))
        return cls(sizes, weights, biases, n_actions, cond_dim)

    # -- parameters -----------------------------------------------------------

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.param_count:
            raise ShapeMismatchError(f"expected {self.param_count} parameters, got {flat.size}")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos : pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos : pos + b.size].copy()
            pos += b.size

    # -- forward / backward ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_cached(x)[0]

    def _forward_cached(self, x: np.ndarray):
        a = np.asarray(x, dtype=float)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        if a.shape[1] != self.layer_sizes[0]:
            raise ShapeMismatchError(
                f"input dim {a.shape[1]} != expected {self.layer_sizes[0]}"
            )
        acts = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(np.tanh(z) if i < n_layers - 1 else z)
        out = acts[-1]
        return (out[0] if squeeze else out), acts

    def backward(self, acts, dout: np.ndarray):
        """Parameter gradients given d(loss)/d(output); returns a flat vector."""
        delta = np.atleast_2d(dout)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return np.concatenate(
            [np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grads_w, grads_b)]
        )

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "layer_sizes": self.layer_sizes,
            "activation": self.activation,
            "n_actions": self.n_actions,
            "cond_dim": self.cond_dim,
            "weights": [float(v) for v in self.get_params()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "VectorFieldModel":
        with open(path) as fh:
            doc = json.load(fh)
        sizes = doc["layer_sizes"]
        model = cls(
            sizes,
            [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
            [np.zeros(b) for b in sizes[1:]],
            doc["n_actions"],
            doc["cond_dim"],
            doc.get("activation", "tanh"),
        )
        model.set_params(np.asarray(doc["weights"], dtype=float))
        return model


def vf_eval(model: VectorFieldModel, x_t: np.ndarray, t: float, cond) -> np.ndarray:
    """Evaluate the vector field at one flattened trajectory point."""
    x_t = np.asarray(x_t, dtype=float).ravel()
    if x_t.size != 3 * model.n_actions:
        raise ShapeMismatchError(f"x_t has {x_t.size} entries, expected {3 * model.n_actions}")
    c = _cond_vector(cond)
    if c.size != model.cond_dim:
        raise ShapeMismatchError(f"condition has {c.size} entries, expected {model.cond_dim}")
    out = model.forward(np.concatenate([x_t, [float(t)], c]))
    if not np.isfinite(out).all():
        raise PlannerError("vector field produced non-finite output")
    return out


def reconstruct(x_t: np.ndarray, t, v: np.ndarray) -> np.ndarray:
    """One-shot data estimate x~ = x_t - t * v."""
    x_t = np.asarray(x_t, dtype=float)
    v = np.asarray(v, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 1 and x_t.ndim == 2:
        t_arr = t_arr[:, None]
    return x_t - t_arr * v


@dataclass
class PlanningSample:
    """One training example: expert actions, conditioning, the world-frame start
    pose, and the (already masked) field the clearance bonus samples. Samples
    built from worlds also carry their occupancy file, the expert poses as
    [[x, y, theta], ...] and the index of their world."""

    actions: np.ndarray
    condition: object
    start: Pose2 = field(default_factory=Pose2)
    phi: Grid | None = None
    grid_ref: str | None = None
    gt_poses: list | None = None
    world_index: int | None = None

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=float).reshape(-1, 3)


def _batch_arrays(samples: list[PlanningSample]):
    x1 = np.stack([s.actions.ravel() for s in samples])
    cond = np.stack([_cond_vector(s.condition) for s in samples])
    starts = np.array([[s.start.x, s.start.y, s.start.theta] for s in samples])
    return x1, cond, starts


def _poses_from_actions(actions: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Batched pose recurrence, headings left unwrapped. (B, n, 3) -> (B, n+1, 3)."""
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


def _penalty_and_grad(samples, actions: np.ndarray, starts: np.ndarray):
    """Clearance bonus sum(phi~) per sample plus its gradient w.r.t. the actions.

    The spatial gradient from bilinear sampling back-propagates through the
    pose recurrence with the usual reverse accumulation: position adjoints
    pass through unchanged, heading adjoints collect the rotated-step terms.
    """
    b, n, _ = actions.shape
    poses = _poses_from_actions(actions, starts)
    values = np.zeros((b, n))
    gx = np.zeros((b, n))
    gy = np.zeros((b, n))
    for i, s in enumerate(samples):
        out, dx, dy = _bilinear(s.phi.values, s.phi.resolution, s.phi.origin, poses[i, 1:, :2])
        values[i], gx[i], gy[i] = out, dx, dy
    dact = np.zeros_like(actions)
    ax_adj = np.zeros(b)
    ay_adj = np.zeros(b)
    at_adj = np.zeros(b)
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
    return values.sum(axis=1), dact


def planning_loss_at(model: VectorFieldModel, samples, lam, t, x0):
    """Total loss = CFM - lambda * mean_b sum_k phi~(pose_k), with exact gradients.

    Returns (loss, flat param gradients, {"cfm":, "penalty":}); the penalty is
    the batch mean of the per-trajectory field sums.
    """
    x1, cond, starts = _batch_arrays(samples)
    b = x1.shape[0]
    t = np.asarray(t, dtype=float).ravel()
    x0 = np.atleast_2d(x0)
    xt = (1.0 - t)[:, None] * x1 + t[:, None] * x0
    u = x0 - x1
    inp = np.concatenate([xt, t[:, None], cond], axis=1)
    v, acts = model._forward_cached(inp)
    diff = v - u
    cfm = float(np.sum(diff * diff) / b)
    dv = 2.0 * diff / b
    penalty = 0.0
    if lam != 0.0:
        if any(s.phi is None for s in samples):
            raise PlannerError("planning loss with lambda != 0 needs a field on every sample")
        n = model.n_actions
        x_rec = reconstruct(xt, t, v)
        sums, dact = _penalty_and_grad(samples, x_rec.reshape(b, n, 3), starts)
        penalty = float(sums.mean())
        # d(loss)/dv += -lam/b * d(sum)/dx~ * dx~/dv, and dx~/dv = -t
        dv = dv + (lam / b) * t[:, None] * dact.reshape(b, 3 * n)
    loss = cfm - lam * penalty
    grads = model.backward(acts, dv)
    return loss, grads, {"cfm": cfm, "penalty": penalty}


def planning_loss(model: VectorFieldModel, samples, lam, rng):
    if not samples:
        raise PlannerError("batch must be nonempty")
    t = rng.random(len(samples))
    x0 = rng.standard_normal((len(samples), 3 * model.n_actions))
    return planning_loss_at(model, samples, lam, t, x0)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 100
    esdf_lambda: float = 0.1
    mask_alpha: float = 0.5
    mask_dilation: float = 0.3
    seed: int = 0
    euler_steps: int = 20
    n_actions: int = 16
    hidden: tuple[int, ...] = (128, 128, 128)

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise PlannerError("learning rate, batch size, and epochs must be positive")
        if self.esdf_lambda < 0 or not 0.0 <= self.mask_alpha <= 1.0:
            raise PlannerError("esdf_lambda must be >= 0 and mask_alpha in [0, 1]")
        self.hidden = tuple(int(h) for h in self.hidden)


def train(dataset: list[PlanningSample], config: TrainConfig):
    """Momentum-SGD training, deterministic per seed.

    Returns (model, log); the log holds one entry per epoch with the mean
    flow-matching term and mean clearance bonus. A non-finite loss aborts,
    restoring the last finite epoch checkpoint.
    """
    if not dataset:
        raise PlannerError("training dataset must be nonempty")
    n_actions = dataset[0].actions.shape[0]
    cond_dim = _cond_vector(dataset[0].condition).size
    model = VectorFieldModel.create(n_actions, cond_dim, config.hidden, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    velocity = np.zeros(model.param_count)
    log: list[dict] = []
    checkpoint = model.get_params()
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        cfm_terms, penalty_terms = [], []
        diverged = False
        for lo in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[lo : lo + config.batch_size]]
            loss, grads, parts = planning_loss(model, batch, config.esdf_lambda, rng)
            if not math.isfinite(loss) or not np.isfinite(grads).all():
                diverged = True
                break
            velocity = config.momentum * velocity - config.learning_rate * grads
            model.set_params(model.get_params() + velocity)
            cfm_terms.append(parts["cfm"])
            penalty_terms.append(parts["penalty"])
        if diverged:
            model.set_params(checkpoint)
            log.append({"epoch": epoch, "diverged": True})
            break
        checkpoint = model.get_params()
        log.append(
            {
                "epoch": epoch,
                "cfm": float(np.mean(cfm_terms)),
                "penalty": float(np.mean(penalty_terms)),
                "loss": float(np.mean(cfm_terms) - config.esdf_lambda * np.mean(penalty_terms)),
            }
        )
    return model, log


@dataclass
class PlanSample:
    actions: ActionTrajectory
    poses: PoseTrajectory
    mean_step: float

    def to_jsonable(self) -> dict:
        return {
            "actions": self.actions.to_jsonable(),
            "poses": self.poses.to_jsonable(),
            "mean_step": self.mean_step,
        }


def sample(
    model: VectorFieldModel,
    condition,
    steps: int,
    rng,
    start: Pose2 = Pose2(),
) -> PlanSample:
    """Draw one trajectory by Euler integration from noise at t=1 down to t=0."""
    if steps < 1:
        raise PlannerError("steps must be >= 1")
    c = _cond_vector(condition)
    x = rng.standard_normal(3 * model.n_actions)
    dt = 1.0 / steps
    for i in range(steps):
        t = 1.0 - i * dt
        x = x - dt * vf_eval(model, x, t, c)
    actions = ActionTrajectory(x.reshape(model.n_actions, 3))
    poses = actions_to_poses(actions, start)
    step_norms = np.hypot(actions.steps[:, 0], actions.steps[:, 1])
    return PlanSample(actions, poses, float(step_norms.mean()) if len(actions) else 0.0)


def distance_field(grid: Grid) -> Grid:
    """Unsigned distance-to-occupied as a sampleable field (for collision checks)."""
    return Grid(edt(grid, "occupied"), grid.resolution, grid.origin)


def collision_check(
    poses: PoseTrajectory,
    grid: Grid | None,
    footprint_radius: float = 0.3,
    dist_field: Grid | None = None,
) -> bool:
    """True iff any pose center's interpolated free-space distance drops below
    the footprint radius."""
    if footprint_radius < 0:
        raise PlannerError("footprint radius must be >= 0")
    if dist_field is None:
        if grid is None:
            raise PlannerError("collision check needs a grid or a distance field")
        dist_field = distance_field(grid)
    if len(poses) == 0:
        return False
    vals = sample_bilinear(dist_field, poses.as_array()[:, :2])
    return bool((vals < footprint_radius).any())


def occupancy_features(
    grid: Grid,
    pose: Pose2,
    phi: Grid | None = None,
    extent: float = 2.0,
    cells: int = 16,
) -> np.ndarray:
    """Default condition encoding: an ego-aligned cells x cells occupancy patch
    covering [-extent, extent]^2 around the pose (outside-grid points count as
    occupied), plus the mean signed distance over the pose's 8-neighborhood."""
    if phi is None:
        phi = signed_esdf(grid)
    step = 2.0 * extent / cells
    offs = -extent + step * (np.arange(cells) + 0.5)
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
    ring = [
        (pose.x + ddx * r, pose.y + ddy * r)
        for ddx in (-1, 0, 1)
        for ddy in (-1, 0, 1)
        if not (ddx == 0 and ddy == 0)
    ]
    mean_phi = float(np.mean(sample_bilinear(phi, np.asarray(ring))))
    return np.concatenate([patch.ravel(), [mean_phi]])
