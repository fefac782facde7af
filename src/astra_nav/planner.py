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
down to t = 0: x <- x - dt * v(x, t | c). There is one sampler, `sample`:
one plan per condition, each drawing its noise from its own generator, all
integrated together by one Euler loop, `_euler`, one forward pass per step,
and checked to be finite once, after the last step. It returns two arrays,
the (B, n, 3) actions and the (B, n+1, 3) poses, headings unwrapped. The
navigation loop calls it once per control cycle for every episode that
plans in it, the open-loop rollouts once per condition with K rows that
share one generator, and `astra plan sample` with one row. Around it, the
loop's field work is batched too: `occupancy_features` encodes a batch of
poses and `plans_collide` checks a batch of plans, each with one field
lookup for the whole batch; `collision_check` is the check of one
trajectory.

The network has one layer loop, `VectorFieldModel._forward_cached`:
`forward` returns its output, and training keeps its activations for the
backward pass. Training builds the dataset's arrays and its stack of masked
fields once (`esdf.stack_fields`, which reads a dataset packed into one
buffer in place), and each batch samples its rows of the stack in one
gather. A batch's momentum step, activations and gradient products are
computed in place, each to the bits of the fresh-array form.

A plan's poses and the loss's poses come from one batched recurrence,
`geom.poses_from_actions`. Its adjoint is a set of cumulative sums over the
steps as well. The reverse pass starts its accumulators from zeros and adds
one step at a time, from the last: the position adjoints are the reverse
sums of the field gradients behind a leading 0.0, and the heading adjoint
is the reverse sum of each step's x term and then its y term, behind a
leading 0.0. The cosine and sine of the headings are taken once, over all
steps, and serve both passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AstraError, check_fields, is_finite_number, read_json
from .esdf import FieldStack, Grid, _bilinear, edt, sample_bilinear, stack_fields
from .geom import Pose2, PoseTrajectory, poses_from_actions


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
        """The condition vector, the one row of `condition_vectors`."""
        occ = np.asarray(self.occ_features, dtype=float).reshape(1, -1)
        return condition_vectors([self.goal], [self.velocity], occ)[0]

    def to_jsonable(self) -> dict:
        return {
            "goal": list(self.goal.as_tuple()),
            "velocity": [float(self.velocity[0]), float(self.velocity[1])],
            "occ_features": [float(v) for v in np.asarray(self.occ_features).ravel()],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "PlanningCondition":
        """A JSON condition: "goal" a pose, "velocity" two finite numbers and
        "occ_features" a list of finite numbers, the last two optional.
        Anything else raises ValueError."""
        velocity = data.get("velocity", [0.0, 0.0])
        if not (isinstance(velocity, list) and len(velocity) == 2 and all(map(is_finite_number, velocity))):
            raise ValueError(f"velocity must be two finite numbers [vx, vy], got {velocity!r}")
        occ = data.get("occ_features", [])
        if not (isinstance(occ, list) and all(map(is_finite_number, occ))):
            raise ValueError("occ_features must be a list of finite numbers")
        return cls(Pose2.from_jsonable(data["goal"]), tuple(velocity), np.asarray(occ, dtype=float))


def condition_vectors(goals, velocities, occupancy) -> np.ndarray:
    """The condition vectors of B plans, as the rows of one array: plan b's
    subgoal in the ego frame `goals[b]` (a `Pose2`) as [x, y, theta], its
    velocity `velocities[b]` as [vx, vy], then its row of the (B, k)
    `occupancy` encoding. This is the one place that lays the vector out."""
    occupancy = np.asarray(occupancy, dtype=float)
    out = np.empty((len(occupancy), 5 + occupancy.shape[1]))
    for row, goal, velocity in zip(out, goals, velocities, strict=True):
        row[:5] = goal.x, goal.y, goal.theta, velocity[0], velocity[1]
    out[:, 5:] = occupancy
    return out


def _cond_vector(cond) -> np.ndarray:
    if isinstance(cond, PlanningCondition):
        return cond.vector()
    return np.asarray(cond, dtype=float).ravel()


def _param_count(layer_sizes) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list, list]:
    """Per-layer weight and bias views into one flat buffer laid out as
    W1, b1, W2, b2, ...; Wi has shape (d_in, d_out)."""
    weights, biases = [], []
    pos = 0
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[pos : pos + d_in * d_out].reshape(d_in, d_out))
        pos += d_in * d_out
        biases.append(flat[pos : pos + d_out])
        pos += d_out
    return weights, biases


class VectorFieldModel:
    """Fully-connected vector field with tanh hidden layers and a linear head.

    All parameters live in one flat vector, `params`, laid out as W1, b1, W2,
    b2, ... (the layout of a model file's "weights"); `weights[i]` and
    `biases[i]` are views into it. n_actions is an integer >= 1, cond_dim an
    integer >= 0 and every layer width an integer >= 1, or PlannerError.
    """

    def __init__(self, layer_sizes, params, n_actions, cond_dim):
        self.layer_sizes, self.n_actions, self.cond_dim = list(layer_sizes), n_actions, cond_dim
        check_fields(self, PlannerError, "a list of integers >= 1", "layer_sizes")
        check_fields(self, PlannerError, "an integer >= 1", "n_actions")
        check_fields(self, PlannerError, "an integer >= 0", "cond_dim")
        self.n_actions, self.cond_dim = int(n_actions), int(cond_dim)
        expect_in = 3 * self.n_actions + 1 + self.cond_dim
        if self.layer_sizes[0] != expect_in or self.layer_sizes[-1] != 3 * self.n_actions:
            raise ShapeMismatchError(
                f"layer sizes {self.layer_sizes} incompatible with "
                f"n_actions={self.n_actions}, cond_dim={self.cond_dim}"
            )
        flat = np.asarray(params, dtype=float)
        count = _param_count(self.layer_sizes)
        if flat.shape != (count,):
            raise ShapeMismatchError(f"expected {count} parameters for layer sizes "
                                     f"{self.layer_sizes}, got shape {flat.shape}")
        # a copy on a 64-byte boundary: a single-row pass over a buffer off that
        # boundary measured about 10% slower, and where a copy lands is chance
        buf = np.empty(count + 8)
        skip = (-buf.ctypes.data % 64) // 8
        self.params = buf[skip : skip + count]
        self.params[...] = flat
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)

    @classmethod
    def create(cls, n_actions: int, cond_dim: int, hidden=(128, 128, 128), seed: int = 0):
        """Normal weights with variance 1/d_in, drawn layer by layer, and zero
        biases."""
        rng = np.random.default_rng(seed)
        sizes = [3 * n_actions + 1 + cond_dim, *hidden, 3 * n_actions]
        params = np.zeros(_param_count(sizes))
        for w in _layer_views(params, sizes)[0]:
            w[...] = rng.normal(0.0, 1.0 / math.sqrt(w.shape[0]), size=w.shape)
        return cls(sizes, params, n_actions, cond_dim)

    # -- parameters -----------------------------------------------------------

    @property
    def param_count(self) -> int:
        return self.params.size

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.param_count:
            raise ShapeMismatchError(f"expected {self.param_count} parameters, got {flat.size}")
        self.params[...] = flat.ravel()

    # -- forward / backward ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The field at rows x (k, d_in), or at one row x (d_in,)."""
        return self._forward_cached(x)[0]

    def _forward_cached(self, x: np.ndarray):
        """The field at rows x and every layer's activation, the input first;
        each layer adds its bias and applies tanh in place. A single row is
        passed as a (1, d_in) matrix, so every product has the operand shapes
        of a batch."""
        a = np.asarray(x, dtype=float)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        if a.shape[1] != self.layer_sizes[0]:
            raise ShapeMismatchError(f"input dim {a.shape[1]} != expected {self.layer_sizes[0]}")
        acts = [a]
        *hidden, (w_out, b_out) = zip(self.weights, self.biases)
        for w, b in hidden:
            a = a @ w
            a += b
            np.tanh(a, out=a)
            acts.append(a)
        a = a @ w_out
        a += b_out
        acts.append(a)
        return (a[0] if squeeze else a), acts

    def backward(self, acts, dout: np.ndarray) -> np.ndarray:
        """Parameter gradients given d(loss)/d(output), laid out as `params`."""
        delta = np.atleast_2d(dout)
        grads = np.empty_like(self.params)
        grads_w, grads_b = _layer_views(grads, self.layer_sizes)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            if i > 0:
                slope = acts[i] * acts[i]
                np.subtract(1.0, slope, out=slope)
                delta = delta @ self.weights[i].T
                delta *= slope
        return grads

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "layer_sizes": self.layer_sizes,
            "activation": "tanh",
            "n_actions": self.n_actions,
            "cond_dim": self.cond_dim,
            "weights": self.params.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "VectorFieldModel":
        """The model a `save` file holds; each error names the file and keeps its class."""
        doc = read_json(path, PlannerError)
        try:
            if doc.get("activation", "tanh") != "tanh":
                raise PlannerError(f"unsupported activation: {doc['activation']!r}")
            return cls(doc["layer_sizes"], doc["weights"], doc["n_actions"], doc["cond_dim"])
        except PlannerError as e:
            raise type(e)(f"{path}: {e}") from e
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            raise PlannerError(f"{path}: malformed model file: {e!r}") from e


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


@dataclass
class PlanningBatch:
    """Array form of PlanningSamples: flattened actions x1 (B, 3n), condition
    vectors (B, c), start poses (B, 3) as [x, y, theta] rows, and the
    samples' masked fields as one `FieldStack`, None when a sample has no
    field."""

    x1: np.ndarray
    cond: np.ndarray
    starts: np.ndarray
    fields: FieldStack | None

    @classmethod
    def of(cls, samples) -> "PlanningBatch":
        """The samples' arrays; a PlanningBatch is returned as it is."""
        if isinstance(samples, PlanningBatch):
            return samples
        phis = [s.phi for s in samples]
        return cls(
            np.stack([s.actions.ravel() for s in samples]),
            np.stack([_cond_vector(s.condition) for s in samples]),
            np.array([[s.start.x, s.start.y, s.start.theta] for s in samples]),
            None if any(phi is None for phi in phis) else stack_fields(phis),
        )

    def __len__(self) -> int:
        return len(self.x1)

    def take(self, rows) -> "PlanningBatch":
        return PlanningBatch(
            self.x1[rows], self.cond[rows], self.starts[rows],
            None if self.fields is None else self.fields.take(rows),
        )


def _penalty_and_grad(fields: FieldStack, actions: np.ndarray, starts: np.ndarray):
    """Clearance bonus sum(phi~) per sample plus its gradient w.r.t. the actions.

    Row i samples field i of the stack; all rows are looked up together.
    The spatial gradient from bilinear sampling back-propagates through the
    pose recurrence with the usual reverse accumulation: position adjoints
    pass through unchanged, heading adjoints collect the rotated-step terms.
    Each accumulation is one reverse cumulative sum from 0.0 (see the module
    docstring).
    """
    b, n, _ = actions.shape
    poses, c, s = poses_from_actions(actions, starts)
    values, gx, gy = _bilinear(fields, poses[:, 1:, :2])
    # the position adjoints of step k are the sums of the gradients at poses k..n
    rev = np.zeros((2, b, n + 1))
    rev[0, :, 1:] = gx[:, ::-1]
    rev[1, :, 1:] = gy[:, ::-1]
    np.cumsum(rev, axis=2, out=rev)
    ax_adj, ay_adj = rev[:, :, :0:-1]
    dx, dy = actions[..., 0], actions[..., 1]
    dact = np.empty_like(actions)
    dact[..., 0] = ax_adj * c + ay_adj * s
    dact[..., 1] = -ax_adj * s + ay_adj * c
    # the heading adjoint before step k sums, from step n down to k + 1, each
    # step's x term and then its y term
    turn = np.zeros((b, 2 * n + 1))
    turn[:, 1::2] = (ax_adj * (-s * dx - c * dy))[:, ::-1]
    turn[:, 2::2] = (ay_adj * (c * dx - s * dy))[:, ::-1]
    np.cumsum(turn, axis=1, out=turn)
    dact[..., 2] = turn[:, :-1:2][:, ::-1]
    return values.sum(axis=1), dact


def planning_loss_at(model: VectorFieldModel, samples, lam, t, x0):
    """Total loss = CFM - lambda * mean_b sum_k phi~(pose_k), with exact gradients.

    `samples` is a list of PlanningSamples or a PlanningBatch. Returns (loss,
    flat param gradients, {"cfm":, "penalty":}); the penalty is the batch
    mean of the per-trajectory field sums.
    """
    batch = PlanningBatch.of(samples)
    x1, cond, starts = batch.x1, batch.cond, batch.starts
    b = x1.shape[0]
    t = np.asarray(t, dtype=float).ravel()
    x0 = np.atleast_2d(x0)
    # the network input [x_t, t, c], x_t = (1 - t) x1 + t x0 written in place
    n3 = x1.shape[1]
    inp = np.empty((b, n3 + 1 + cond.shape[1]))
    xt = inp[:, :n3]
    np.multiply((1.0 - t)[:, None], x1, out=xt)
    xt += t[:, None] * x0
    inp[:, n3] = t
    inp[:, n3 + 1 :] = cond
    v, acts = model._forward_cached(inp)
    diff = np.subtract(x0, x1)  # u
    np.subtract(v, diff, out=diff)
    cfm = float(np.sum(diff * diff) / b)
    dv = diff
    dv *= 2.0
    dv /= b
    penalty = 0.0
    if lam != 0.0:
        if batch.fields is None:
            raise PlannerError("planning loss with lambda != 0 needs a field on every sample")
        n = model.n_actions
        x_rec = reconstruct(xt, t, v)
        sums, dact = _penalty_and_grad(batch.fields, x_rec.reshape(b, n, 3), starts)
        penalty = float(sums.mean())
        # d(loss)/dv += -lam/b * d(sum)/dx~ * dx~/dv, and dx~/dv = -t
        dv += (lam / b) * t[:, None] * dact.reshape(b, 3 * n)
    loss = cfm - lam * penalty
    grads = model.backward(acts, dv)
    return loss, grads, {"cfm": cfm, "penalty": penalty}


def planning_loss(model: VectorFieldModel, samples, lam, rng):
    """The planning loss at times and noise drawn from rng."""
    if not len(samples):
        raise PlannerError("batch must be nonempty")
    t = rng.random(len(samples))
    x0 = rng.standard_normal((len(samples), 3 * model.n_actions))
    return planning_loss_at(model, samples, lam, t, x0)


@dataclass
class TrainConfig:
    """Momentum-SGD settings of `train`. learning_rate: positive and finite.
    momentum, esdf_lambda (loss per m of masked signed distance): finite and
    >= 0. batch_size (samples per step), epochs: integers >= 1. seed: an
    integer >= 0. hidden: a list of layer widths, integers >= 1. The masking
    of a dataset's fields is fixed by `esdf.MASK_ALPHA` and
    `esdf.MASK_DILATION`, which `sim.build_planning_dataset` and
    `sim.load_dataset` read."""

    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 100
    esdf_lambda: float = 0.1
    seed: int = 0
    hidden: tuple[int, ...] = (128, 128, 128)

    def __post_init__(self):
        check_fields(self, PlannerError, "positive and finite", "learning_rate")
        check_fields(self, PlannerError, "finite and >= 0", "momentum", "esdf_lambda")
        check_fields(self, PlannerError, "an integer >= 1", "batch_size", "epochs")
        check_fields(self, PlannerError, "an integer >= 0", "seed")
        check_fields(self, PlannerError, "a list of integers >= 1", "hidden")
        self.hidden = tuple(int(h) for h in self.hidden)


def train(dataset: list[PlanningSample], config: TrainConfig):
    """Momentum-SGD training, deterministic per seed.

    The dataset's arrays and its field stack are built once; each batch
    takes its rows of them. A dataset whose fields are views of one buffer,
    as `sim.build_planning_dataset` and `sim.load_dataset` pack them, is
    read in place; other fields are stacked into one copy.

    Returns (model, log); the log holds one entry per epoch with the mean
    flow-matching term and mean clearance bonus. A non-finite loss aborts,
    restoring the last finite epoch checkpoint.
    """
    if not dataset:
        raise PlannerError("training dataset must be nonempty")
    data = PlanningBatch.of(dataset)
    n_actions = dataset[0].actions.shape[0]
    cond_dim = data.cond.shape[1]
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
            batch = data.take(order[lo : lo + config.batch_size])
            loss, grads, parts = planning_loss(model, batch, config.esdf_lambda, rng)
            if not math.isfinite(loss) or not np.isfinite(grads).all():
                diverged = True
                break
            # momentum * velocity - learning_rate * grads, in place
            velocity *= config.momentum
            grads *= config.learning_rate
            velocity -= grads
            model.params += velocity
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


def _euler(model: VectorFieldModel, inp: np.ndarray, steps: int) -> np.ndarray:
    """The one Euler loop: integrate the noise in the trajectory columns of
    the network input `inp` (k, 3n + 1 + c) from t=1 down to t=0, one
    forward pass over all k rows per step, and return the (k, n, 3) actions.

    Each row is integrated in place, x <- x - (v * dt), which is x - dt * v
    to the bit. A non-finite output makes an entry of x non-finite, and the
    update keeps it so, so one check of x after the last step finds it.
    A one-row input runs as two copies of the row, and row 0 is returned.
    """
    if steps < 1:
        raise PlannerError("steps must be >= 1")
    if len(inp) == 1:
        # a one-row product takes BLAS's matrix-vector path, whose last bits
        # can differ from the same row of a batched product; as two rows it
        # takes the batched path, so a plan's floats do not depend on its batch
        return _euler(model, np.repeat(inp, 2, axis=0), steps)[:1]
    n3 = 3 * model.n_actions
    x = inp[:, :n3]
    dt = 1.0 / steps
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            inp[:, n3] = 1.0 - i * dt
            v = model.forward(inp)
            v *= dt
            x -= v
    if not np.isfinite(x).all():
        raise PlannerError("vector field produced non-finite output")
    return x.reshape(-1, model.n_actions, 3)


def sample(model: VectorFieldModel, conditions, steps: int, rngs, starts=None):
    """Draw one trajectory per condition by Euler integration from noise at
    t=1 down to t=0, all of them together: the (B, n, 3) actions and the
    (B, n+1, 3) poses they integrate to, the start first. One plan is the
    case of one condition, and k plans of one condition are k rows of it.
    `conditions` holds `PlanningCondition`s or condition vectors, such as
    the rows of a `condition_vectors` array; a condition of the wrong width
    raises ShapeMismatchError.

    Plan i's noise is one draw of 3n values from `rngs[i]`, the plans' draws
    made in order before the first step, so k plans that share one generator
    draw the stream of one (k, 3n) draw. Its poses are the rows of
    `poses_from_actions` on its actions from `starts[i]` (an [x, y, theta]
    row; the origin when `starts` is None), the recurrence the loss
    integrates with, their headings unwrapped; `PoseTrajectory` wraps a row.
    One plan alone runs as two copies of its row (`_euler`), so it takes the
    batched product's path and equals its row of any batch, bit for bit: a
    plan's floats do not depend on the other plans it is drawn with."""
    n3 = 3 * model.n_actions
    inp = np.empty((len(conditions), n3 + 1 + model.cond_dim))
    for row, cond in zip(inp, conditions):
        vector = _cond_vector(cond)
        if vector.size != model.cond_dim:
            raise ShapeMismatchError(f"condition has {vector.size} entries, expected {model.cond_dim}")
        row[n3 + 1 :] = vector
    for row, rng in zip(inp, rngs, strict=True):
        row[:n3] = rng.standard_normal(n3)
    actions = _euler(model, inp, steps)
    starts = np.zeros((len(inp), 3)) if starts is None else np.asarray(starts, dtype=float)
    return actions, poses_from_actions(actions, starts.reshape(-1, 3))[0]


def distance_field(grid: Grid) -> Grid:
    """Unsigned distance-to-occupied as a sampleable field (for collision checks)."""
    return Grid(edt(grid, "occupied"), grid.resolution, grid.origin)


def plans_collide(poses, dist_field: Grid, footprint_radius: float) -> np.ndarray:
    """bool[B]: whether any pose center of plan b, a row of `poses` (B, m,
    >= 2), has an interpolated free-space distance below the footprint
    radius. All plans' positions are looked up in one `sample_bilinear`
    call; a plan of no poses never collides."""
    if footprint_radius < 0:
        raise PlannerError("footprint radius must be >= 0")
    xy = np.asarray(poses, dtype=float)[..., :2]
    if xy.size == 0:
        return np.zeros(len(xy), dtype=bool)
    return (sample_bilinear(dist_field, xy).reshape(xy.shape[:2]) < footprint_radius).any(axis=1)


def collision_check(poses: PoseTrajectory, grid: Grid | None, footprint_radius: float,
                    dist_field: Grid | None = None) -> bool:
    """True iff any pose center's interpolated free-space distance drops below
    the footprint radius: `plans_collide` on one plan, against `dist_field`,
    or the distance field of `grid` when it is None."""
    if dist_field is None:
        if grid is None:
            raise PlannerError("collision check needs a grid or a distance field")
        dist_field = distance_field(grid)
    return bool(plans_collide(poses.as_array()[None], dist_field, footprint_radius)[0])


_PATCH_EXTENT = 2.0  # m from the pose to each side of the occupancy patch
_PATCH_CELLS = 16  # patch cells per side
_PATCH_STEP = 2.0 * _PATCH_EXTENT / _PATCH_CELLS
_PATCH_OFFSETS = -_PATCH_EXTENT + _PATCH_STEP * (np.arange(_PATCH_CELLS) + 0.5)
# the ego-frame (u, v) of every patch cell's center, v along the rows
_PATCH_U, _PATCH_V = np.meshgrid(_PATCH_OFFSETS, _PATCH_OFFSETS)
# the pose's 8-neighborhood in cells, as (dx, dy) rows
_RING = np.array([(dx, dy) for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0) if dx or dy])
# entries of one pose's encoding: the patch, then the ring's mean
OCCUPANCY_FEATURES = _PATCH_CELLS * _PATCH_CELLS + 1


def occupancy_features(grid: Grid, poses, phi: Grid) -> np.ndarray:
    """The condition encoding of each [x, y, theta] row of `poses` (B, 3),
    as the rows of a (B, OCCUPANCY_FEATURES) array: an ego-aligned
    _PATCH_CELLS x _PATCH_CELLS occupancy patch covering [-_PATCH_EXTENT,
    _PATCH_EXTENT]^2 around the pose (outside-grid points count as
    occupied), plus the mean of the signed field `phi` over the pose's
    8-neighborhood. All patches are gathered at once and all rings sampled
    with one `sample_bilinear` call. Each row depends on its pose alone, to
    the bit: the cosine and sine are taken per pose with `math`, the patch
    arithmetic keeps the per-pose order and each ring is averaged on its own
    row."""
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    x, y = poses[:, 0, None, None], poses[:, 1, None, None]
    theta = poses[:, 2].tolist()
    c = np.array([math.cos(t) for t in theta])[:, None, None]
    s = np.array([math.sin(t) for t in theta])[:, None, None]
    wx = x + c * _PATCH_U - s * _PATCH_V
    wy = y + s * _PATCH_U + c * _PATCH_V
    col = np.rint((wx - grid.origin[0]) / grid.resolution).astype(int)
    row = np.rint((wy - grid.origin[1]) / grid.resolution).astype(int)
    inside = (col >= 0) & (col < grid.width) & (row >= 0) & (row < grid.height)
    patch = np.ones(wx.shape)
    patch[inside] = grid.values[row[inside], col[inside]]
    out = np.empty((len(poses), OCCUPANCY_FEATURES))
    out[:, :-1] = patch.reshape(len(poses), OCCUPANCY_FEATURES - 1)
    if len(poses):
        ring = poses[:, None, :2] + _RING * grid.resolution
        out[:, -1] = np.mean(sample_bilinear(phi, ring).reshape(len(poses), len(_RING)), axis=1)
    return out
