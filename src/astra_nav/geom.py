"""Planar (SE2) pose algebra and pose trajectories.

An action trajectory is a sequence of relative increments
(dx_k, dy_k, dtheta_k), held as an (n, 3) array; the matching pose
trajectory is obtained by the recurrence

    [x_k]   [x_{k-1}]   [cos th_{k-1}  -sin th_{k-1}] [dx_k]
    [y_k] = [y_{k-1}] + [sin th_{k-1}   cos th_{k-1}] [dy_k]
    th_k  = th_{k-1} + dtheta_k

Convention: x forward, y left, theta counter-clockwise. A `Pose2` holds its
heading wrapped to (-pi, pi], and the pose algebra wraps after every
composition. A `PoseTrajectory` holds its poses as one read-only (n+1, 3)
array of [x, y, theta] rows, headings wrapped the same way, bit for bit;
indexing it builds the one `Pose2` asked for.

The pose algebra is written once, on plain floats (`inverse_xyt`,
`compose_xyt`, `relative_xyt`); `relative_pose` wraps its result in a
`Pose2`, and a loop that keeps its poses as floats calls the float forms
directly. Each returns its heading wrapped, and `wrap_angle` returns every
value it has wrapped unchanged, so a `Pose2` built from their output holds
the same bits.

The recurrence from actions to poses is written once, batched
(`poses_from_actions`): a plan's poses, the planning loss and the open-loop
rollouts all integrate with it. It leaves the headings unwrapped, and each
coordinate is one cumulative sum over the steps, which numpy adds strictly
left to right. The headings are the sum of [th_0, dth_1, ..., dth_n]. The
per-step loop computes x_k as (x_{k-1} + c dx_k) - s dy_k, and a - b is
a + (-b) to the bit, so x is the sum of the interleaved terms
[x_0, c dx_1, -(s dy_1), c dx_2, ...] read at every other place; y is the
sum of [y_0, s dx_1, c dy_1, ...] the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import is_finite_triple

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    w = theta % _TWO_PI  # [0, 2*pi)
    return w - _TWO_PI if w > math.pi else w


@dataclass(frozen=True)
class Pose2:
    """A planar pose. theta is stored wrapped to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @classmethod
    def from_jsonable(cls, value) -> "Pose2":
        """A JSON pose: a list of three finite numbers [x, y, theta]. Anything
        else raises ValueError."""
        if not is_finite_triple(value):
            raise ValueError(f"a pose must be three finite numbers [x, y, theta], got {value!r}")
        return cls(*value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.theta)


def inverse_xyt(x: float, y: float, theta: float) -> tuple[float, float, float]:
    """The inverse of the pose (x, y, theta), its heading -theta wrapped."""
    c, s = math.cos(theta), math.sin(theta)
    return (-c * x - s * y, s * x - c * y, wrap_angle(-theta))


def compose_xyt(ax: float, ay: float, ath: float, bx: float, by: float,
                bth: float) -> tuple[float, float, float]:
    """a (+) b on floats: rotate b's translation by ath, add, sum headings
    and wrap the sum. Headings are taken as given, so a caller passes them
    wrapped, as a `Pose2` holds them."""
    c, s = math.cos(ath), math.sin(ath)
    return (ax + c * bx - s * by, ay + s * bx + c * by, wrap_angle(ath + bth))


def relative_xyt(ax: float, ay: float, ath: float, bx: float, by: float,
                 bth: float) -> tuple[float, float, float]:
    """b expressed in the frame of a on floats, a^-1 (+) b: the inverse's
    heading is wrapped before it is composed."""
    return compose_xyt(*inverse_xyt(ax, ay, ath), bx, by, bth)


def relative_pose(a: Pose2, b: Pose2) -> Pose2:
    """b expressed in the frame of a, i.e. a^-1 (+) b."""
    return Pose2(*relative_xyt(a.x, a.y, a.theta, b.x, b.y, b.theta))


class PoseTrajectory:
    """Ordered poses, n+1 for n actions, the start pose first, held as one
    read-only (n+1, 3) float array of [x, y, theta] rows.

    The rows are copied and their headings wrapped to (-pi, pi]: the
    remainder modulo 2 pi, less 2 pi where it exceeds pi, which is
    `wrap_angle` to the bit (a heading that is already wrapped keeps its
    bits). Indexing with an int builds that row's `Pose2`."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        arr = np.array(rows, dtype=float).reshape(-1, 3)
        with np.errstate(invalid="ignore"):  # a non-finite heading wraps to nan, as in `wrap_angle`
            theta = np.remainder(arr[:, 2], _TWO_PI)
        theta[theta > math.pi] -= _TWO_PI
        arr[:, 2] = theta
        arr.setflags(write=False)
        object.__setattr__(self, "_rows", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> Pose2:
        return Pose2(*self._rows[i].tolist())

    def as_array(self) -> np.ndarray:
        """The (n+1, 3) read-only array of [x, y, theta] rows itself."""
        return self._rows

    def path_length(self) -> float:
        if len(self._rows) < 2:
            return 0.0
        return float(np.sum(np.hypot(*np.diff(self._rows[:, :2], axis=0).T)))

    def to_jsonable(self) -> list[list[float]]:
        return self._rows.tolist()

    @classmethod
    def from_jsonable(cls, data) -> "PoseTrajectory":
        """A JSON list of poses, each three finite numbers [x, y, theta].
        Anything else raises ValueError."""
        if not isinstance(data, list):
            raise ValueError(f"expected a list of poses, got {data!r}")
        for value in data:
            if not is_finite_triple(value):
                raise ValueError(f"a pose must be three finite numbers [x, y, theta], got {value!r}")
        return cls(data)


def poses_from_actions(actions: np.ndarray, starts: np.ndarray):
    """Batched pose recurrence, headings left unwrapped: the poses (B, n+1, 3)
    of actions (B, n, 3) from starts (B, 3), and the cosine and sine of each
    step's heading th_{k-1}, (B, n) each, which the recurrence's adjoint reads.

    Each coordinate is one left-to-right cumulative sum (see the module
    docstring), so every pose holds the bits of the per-step recurrence."""
    b, n, _ = actions.shape
    poses = np.empty((b, n + 1, 3))
    heading = poses[..., 2]
    heading[:, 0] = starts[:, 2]
    heading[:, 1:] = actions[..., 2]
    np.cumsum(heading, axis=1, out=heading)
    th = heading[:, :-1]
    c, s = np.cos(th), np.sin(th)
    dx, dy = actions[..., 0], actions[..., 1]
    # x: x0, c dx_1, -(s dy_1), c dx_2, ...; y: y0, s dx_1, c dy_1, s dx_2, ...
    terms = np.empty((2, b, 2 * n + 1))
    terms[:, :, 0] = starts[:, :2].T
    np.multiply(c, dx, out=terms[0, :, 1::2])
    np.multiply(s, dy, out=terms[0, :, 2::2])
    np.negative(terms[0, :, 2::2], out=terms[0, :, 2::2])
    np.multiply(s, dx, out=terms[1, :, 1::2])
    np.multiply(c, dy, out=terms[1, :, 2::2])
    np.cumsum(terms, axis=2, out=terms)
    poses[..., 0] = terms[0, :, ::2]
    poses[..., 1] = terms[1, :, ::2]
    return poses, c, s


def poses_to_actions(poses: PoseTrajectory) -> np.ndarray:
    """Invert the recurrence: the (n, 3) per-step increments, each in the
    previous pose's frame, `relative_xyt` on the rows' floats (the bits of
    `relative_pose`, whose `Pose2` keeps the wrapped heading as it is)."""
    if len(poses) == 0:
        raise ValueError("pose trajectory must contain at least the start pose")
    xyt = poses.as_array().tolist()
    steps = [relative_xyt(*a, *b) for a, b in zip(xyt, xyt[1:])]
    return np.array(steps, dtype=float).reshape(-1, 3)
