import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astra_nav.geom import (
    ActionTrajectory,
    Pose2,
    PoseTrajectory,
    compose_se2,
    poses_from_actions,
    poses_to_actions,
    relative_pose,
    wrap_angle,
)

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
finite_angle = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
poses = st.builds(Pose2, finite_coord, finite_coord, finite_angle)


def test_compose_identity():
    assert compose_se2(Pose2(), Pose2(1, 2, 0.3)) == Pose2(1, 2, 0.3)


def test_compose_quarter_turn():
    out = compose_se2(Pose2(0, 0, math.pi / 2), Pose2(1, 0, 0))
    assert out.x == pytest.approx(0.0, abs=1e-12)
    assert out.y == pytest.approx(1.0, abs=1e-12)
    assert out.theta == pytest.approx(math.pi / 2)


def test_compose_rotation_by_hand():
    # rotating (sqrt(2), 0) by pi/4 gives (1, 1)
    out = compose_se2(Pose2(1, 1, math.pi / 4), Pose2(math.sqrt(2), 0, math.pi / 4))
    assert out.x == pytest.approx(2.0, abs=1e-12)
    assert out.y == pytest.approx(2.0, abs=1e-12)
    assert out.theta == pytest.approx(math.pi / 2)


def integrate(actions, start):
    """The (n+1, 3) poses of one trajectory's (n, 3) actions from a start pose."""
    steps = np.asarray(actions, dtype=float).reshape(1, -1, 3)
    return poses_from_actions(steps, np.array([start.as_tuple()]))[0][0]


def test_actions_to_poses_zero_actions():
    start = Pose2(3.0, -1.0, 0.7)
    out = integrate(np.zeros((5, 3)), start)
    assert out.tolist() == [list(start.as_tuple())] * 6


def test_actions_to_poses_translation_only():
    out = integrate([[1, 0, 0], [1, 0, 0]], Pose2())
    assert out.tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0]]


def test_actions_to_poses_turn_then_go():
    last = integrate([[1, 0, math.pi / 2], [1, 0, 0]], Pose2())[-1]
    assert last[0] == pytest.approx(1.0, abs=1e-12)
    assert last[1] == pytest.approx(1.0, abs=1e-12)
    assert last[2] == pytest.approx(math.pi / 2)


def assert_same_poses(rows, traj):
    """rows equal the trajectory's poses to 1e-9, headings compared wrapped."""
    want = traj.as_array()
    np.testing.assert_allclose(rows[:, :2], want[:, :2], atol=1e-9)
    assert max(abs(wrap_angle(a - b)) for a, b in zip(rows[:, 2], want[:, 2])) < 1e-9


def test_poses_to_actions_single_pose_is_empty():
    assert len(poses_to_actions(PoseTrajectory((Pose2(1, 2, 3),)))) == 0


def test_poses_to_actions_unit_step():
    out = poses_to_actions(PoseTrajectory((Pose2(), Pose2(1, 0, 0))))
    np.testing.assert_allclose(out.steps, [[1, 0, 0]])


def test_round_trip_random_path():
    rng = np.random.default_rng(7)
    pts = [Pose2(0, 0, 0)]
    for _ in range(9):
        pts.append(
            Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        )
    original = PoseTrajectory(tuple(pts))
    assert_same_poses(integrate(poses_to_actions(original).steps, original[0]), original)


@given(st.lists(poses, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(pose_list):
    traj = PoseTrajectory(tuple(pose_list))
    assert_same_poses(integrate(poses_to_actions(traj).steps, traj[0]), traj)


def test_associativity_on_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = (
            Pose2(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        )
        left = compose_se2(compose_se2(a, b), c)
        right = compose_se2(a, compose_se2(b, c))
        assert abs(left.x - right.x) < 1e-12
        assert abs(left.y - right.y) < 1e-12
        assert abs(wrap_angle(left.theta - right.theta)) < 1e-12


def test_theta_wrap_quarter_turns():
    for k in range(17):
        pose = Pose2()
        for _ in range(k):
            pose = compose_se2(pose, Pose2(0, 0, math.pi / 2))
        assert -math.pi < pose.theta <= math.pi


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_action_trajectory_rejects_nan():
    with pytest.raises(ValueError):
        ActionTrajectory([[np.nan, 0, 0]])


def test_json_round_trip():
    traj = ActionTrajectory([[0.1, -0.2, 0.3], [0.0, 0.5, -0.1]])
    assert ActionTrajectory.from_jsonable(traj.to_jsonable()) == traj
    pt = PoseTrajectory((Pose2(1, 2, 0.4), Pose2(2, 2, -0.1)))
    assert PoseTrajectory.from_jsonable(pt.to_jsonable()).as_array() == pytest.approx(
        pt.as_array()
    )


# headings at and next to +-pi, the signed zeros, and ordinary values
edge_angle = st.sampled_from(
    [math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
     math.nextafter(math.pi, 4.0), 2 * math.pi, -2 * math.pi, 0.0, -0.0, 1e-300, -1e-300]
) | finite_angle


def ref_poses_to_actions(poses):
    """The per-step increments as `Pose2`s, one `relative_pose` per step."""
    steps = np.empty((len(poses) - 1, 3))
    for k in range(1, len(poses)):
        rel = relative_pose(poses[k - 1], poses[k])
        steps[k - 1] = (rel.x, rel.y, rel.theta)
    return ActionTrajectory(steps)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.builds(Pose2, finite_coord | st.sampled_from([0.0, -0.0]),
              finite_coord | st.sampled_from([0.0, -0.0]), edge_angle),
    min_size=1, max_size=20,
))
def test_poses_to_actions_matches_relative_pose_bit_for_bit(pose_list):
    traj = PoseTrajectory(tuple(pose_list))
    got, want = poses_to_actions(traj), ref_poses_to_actions(traj)
    assert got.steps.shape == want.steps.shape == (len(pose_list) - 1, 3)
    assert got.steps.tobytes() == want.steps.tobytes()
