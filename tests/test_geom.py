import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astra_nav.geom import (
    Pose2,
    PoseTrajectory,
    compose_xyt,
    poses_from_actions,
    poses_to_actions,
    relative_pose,
    wrap_angle,
)

finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
finite_angle = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
poses = st.builds(Pose2, finite_coord, finite_coord, finite_angle)


def test_compose_identity():
    assert compose_xyt(0.0, 0.0, 0.0, 1.0, 2.0, 0.3) == (1.0, 2.0, 0.3)


def test_compose_quarter_turn():
    x, y, theta = compose_xyt(0, 0, math.pi / 2, 1, 0, 0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(math.pi / 2)


def test_compose_rotation_by_hand():
    # rotating (sqrt(2), 0) by pi/4 gives (1, 1)
    x, y, theta = compose_xyt(1, 1, math.pi / 4, math.sqrt(2), 0, math.pi / 4)
    assert x == pytest.approx(2.0, abs=1e-12)
    assert y == pytest.approx(2.0, abs=1e-12)
    assert theta == pytest.approx(math.pi / 2)


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
    assert poses_to_actions(PoseTrajectory([(1, 2, 3)])).shape == (0, 3)


def test_poses_to_actions_unit_step():
    out = poses_to_actions(PoseTrajectory([(0, 0, 0), (1, 0, 0)]))
    np.testing.assert_allclose(out, [[1, 0, 0]])


def test_round_trip_random_path():
    rng = np.random.default_rng(7)
    pts = [Pose2(0, 0, 0)]
    for _ in range(9):
        pts.append(
            Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
        )
    original = PoseTrajectory([p.as_tuple() for p in pts])
    assert_same_poses(integrate(poses_to_actions(original), original[0]), original)


@given(st.lists(poses, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(pose_list):
    traj = PoseTrajectory([p.as_tuple() for p in pose_list])
    assert_same_poses(integrate(poses_to_actions(traj), traj[0]), traj)


def test_associativity_on_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = (
            (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        )
        left = compose_xyt(*compose_xyt(*a, *b), *c)
        right = compose_xyt(*a, *compose_xyt(*b, *c))
        assert abs(left[0] - right[0]) < 1e-12
        assert abs(left[1] - right[1]) < 1e-12
        assert abs(wrap_angle(left[2] - right[2])) < 1e-12


def test_theta_wrap_quarter_turns():
    for k in range(17):
        pose = (0.0, 0.0, 0.0)
        for _ in range(k):
            pose = compose_xyt(*pose, 0.0, 0.0, math.pi / 2)
        assert -math.pi < pose[2] <= math.pi


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_json_round_trip():
    pt = PoseTrajectory([(1, 2, 0.4), (2, 2, -0.1), (0.5, -3.0, 7.0)])
    doc = json.loads(json.dumps(pt.to_jsonable()))
    assert PoseTrajectory.from_jsonable(doc).as_array().tobytes() == pt.as_array().tobytes()


@pytest.mark.parametrize("doc", [{"poses": []}, "[]", [[0, 0]], [[0, 0, 0], [1, 2, math.nan]],
                                 [[0, 0, 0], [1, 2, "3"]], [[True, 0, 0]], [[10**400, 0, 0]]])
def test_from_jsonable_rejects_anything_but_rows_of_three_finite_numbers(doc):
    with pytest.raises(ValueError):
        PoseTrajectory.from_jsonable(doc)


# any finite heading, with +-pi, +-2 pi, the signed zeros, the smallest
# subnormal and the extremes among them
any_angle = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [math.pi, -math.pi, 2 * math.pi, -2 * math.pi, math.nextafter(math.pi, 4.0),
     math.nextafter(-math.pi, -4.0), 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_angle, min_size=1, max_size=20))
def test_stored_headings_are_wrap_angle_bit_for_bit(thetas):
    traj = PoseTrajectory([(0.0, 0.0, t) for t in thetas])
    want = np.array([wrap_angle(t) for t in thetas])
    assert traj.as_array()[:, 2].tobytes() == want.tobytes()
    # a wrapped heading keeps its bits
    assert PoseTrajectory(traj.as_array()).as_array().tobytes() == traj.as_array().tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_coord, finite_coord, any_angle), min_size=1, max_size=12))
def test_indexing_builds_the_row_pose_bit_for_bit(rows):
    traj = PoseTrajectory(rows)
    arr = traj.as_array()
    for i in range(-len(rows), len(rows)):
        pose = traj[i]
        assert type(pose.x) is float and pose == Pose2(*arr[i].tolist())
        assert np.array(pose.as_tuple()).tobytes() == arr[i].tobytes()
        assert np.array(Pose2(*rows[i]).as_tuple()).tobytes() == arr[i].tobytes()


def test_as_array_is_the_stored_read_only_array():
    rows = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 4.0]])
    traj = PoseTrajectory(rows)
    arr = traj.as_array()
    assert arr is traj.as_array() and arr.shape == (2, 3)
    with pytest.raises(ValueError):
        arr[0, 0] = 9.0
    rows[0, 0] = 9.0  # the constructor copied its input
    assert arr[0, 0] == 1.0
    with pytest.raises(AttributeError):
        traj._rows = rows
    assert PoseTrajectory([]).as_array().shape == (0, 3)


# headings at and next to +-pi, the signed zeros, and ordinary values
edge_angle = st.sampled_from(
    [math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
     math.nextafter(math.pi, 4.0), 2 * math.pi, -2 * math.pi, 0.0, -0.0, 1e-300, -1e-300]
) | finite_angle


def ref_poses_to_actions(poses):
    """The per-step increments of a list of `Pose2`s, one `relative_pose` per step."""
    steps = np.empty((len(poses) - 1, 3))
    for k in range(1, len(poses)):
        rel = relative_pose(poses[k - 1], poses[k])
        steps[k - 1] = (rel.x, rel.y, rel.theta)
    return steps


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.builds(Pose2, finite_coord | st.sampled_from([0.0, -0.0]),
              finite_coord | st.sampled_from([0.0, -0.0]), edge_angle),
    min_size=1, max_size=20,
))
def test_poses_to_actions_matches_relative_pose_bit_for_bit(pose_list):
    traj = PoseTrajectory([p.as_tuple() for p in pose_list])
    got, want = poses_to_actions(traj), ref_poses_to_actions(pose_list)
    assert got.shape == want.shape == (len(pose_list) - 1, 3)
    assert got.tobytes() == want.tobytes()
