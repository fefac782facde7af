"""Seeded grid worlds, an expert search-based planner, and the navigation loop.

Worlds are rejection-sampled until the free space is a single connected
component and the 1 m node lattice forms a connected graph. The expert
planner runs 8-connected A* on an obstacle map inflated by the footprint
radius (plus one cell of margin) and then shortcut-smooths the cell path,
keeping every sampled point at or above the inflated clearance, so its
output never trips the collision check at the same footprint radius.

The navigation loop mirrors the intended deployment: locate the goal
(optionally from a language instruction), self-localize, plan a global
node path, then repeatedly pick a lookahead subgoal, let the local planner
propose a trajectory, fall back to the expert planner when the proposal
would collide, execute a few steps under noisy kinematics, and dead-reckon
between periodic global fixes.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AstraError
from .esdf import (
    Grid,
    compress_grid,
    load_occupancy,
    make_mask,
    mask_esdf,
    sample_bilinear,
    save_grid,
    signed_esdf,
)
from .geom import (
    ActionTrajectory,
    Pose2,
    PoseTrajectory,
    actions_to_poses,
    compose_se2,
    poses_to_actions,
    relative_pose,
    wrap_angle,
)
from .localization import (
    GoalNotFoundError,
    LandmarkObservation,
    LocalizationConfig,
    QueryContext,
    goal_localize,
    localize,
    make_ground_truth_oracle,
)
from .odometry import FusionWeights, SensorIncrement, fuse_increment
from .planner import (
    PlanningCondition,
    PlanningSample,
    VectorFieldModel,
    collision_check,
    distance_field,
    occupancy_features,
)
from .planner import sample as plan_sample
from .topomap import Landmark, MapNode, Pose6, TopoMap


class SimError(AstraError):
    pass


class UnreachableError(SimError):
    """No collision-free grid path exists between the requested poses."""


_CATEGORIES = [
    "sofa", "door", "shelf", "table", "chair", "fridge",
    "tv", "plant", "sign", "cabinet", "light", "window",
]
_COLORS = ["gray", "brown", "white", "black", "blue", "red", "green"]
_MATERIALS = ["wood", "metal", "fabric", "plastic", "glass"]
_FUNCTIONS = {
    "sofa": "for resting in living areas",
    "door": "for passing between rooms",
    "shelf": "for document storage",
    "table": "for working and meetings",
    "chair": "for sitting down",
    "fridge": "for storing food",
    "tv": "for watching media",
    "plant": "for decorating the corner",
    "sign": "for wayfinding",
    "cabinet": "for keeping supplies",
    "light": "for lighting the room",
    "window": "for daylight",
}


@dataclass
class World:
    grid: Grid  # occupancy: 3-D as generated, 2-D as loaded
    map: TopoMap
    start_xy: list[tuple[float, float]]
    seed: int = 0
    source_dir: str | None = None

    def __post_init__(self):
        self._grid2d = None
        self._dist = None
        self._phi = None

    def grid2d(self) -> Grid:
        if self._grid2d is None:
            self._grid2d = compress_grid(self.grid)
        return self._grid2d

    def dist_field(self) -> Grid:
        if self._dist is None:
            self._dist = distance_field(self.grid2d())
        return self._dist

    def phi(self) -> Grid:
        if self._phi is None:
            self._phi = signed_esdf(self.grid2d())
        return self._phi


def _pose6(x: float, y: float) -> Pose6:
    return Pose6((x, y, 0.0), (1.0, 0.0, 0.0, 0.0))


def _connected(free: np.ndarray) -> bool:
    """True iff the free cells form one 8-connected component."""
    total = int(free.sum())
    if total == 0:
        return False
    h, w = free.shape
    seed_cell = tuple(np.argwhere(free)[0])
    seen = np.zeros_like(free)
    stack = [seed_cell]
    seen[seed_cell] = True
    count = 0
    while stack:
        r, c = stack.pop()
        count += 1
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and free[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    stack.append((rr, cc))
    return count == total


def _segment_clear(dist: Grid, a, b, clearance: float) -> bool:
    """All points sampled every half-cell along a->b keep at least `clearance`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.hypot(*(b - a)))
    n = max(2, int(length / (dist.resolution / 2.0)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    return bool((sample_bilinear(dist, pts) >= clearance).all())


def _build_lattice_map(
    grid2: Grid, dist: Grid, node_clearance: float, link_radius: float = 2.0
) -> TopoMap:
    """Nodes on a 1 m lattice over free space; lattice-neighbor edges plus
    proximity links under link_radius, all requiring a clear straight segment."""
    topo = TopoMap()
    res = grid2.resolution
    step_cells = max(1, round(1.0 / res))
    positions = {}
    idx = 0
    for r in range(0, grid2.height, step_cells):
        for c in range(0, grid2.width, step_cells):
            x = grid2.origin[0] + c * res
            y = grid2.origin[1] + r * res
            if not grid2.values[r, c] and sample_bilinear(dist, [(x, y)])[0] >= node_clearance:
                nid = f"n-{idx:03d}"
                topo.add_node(MapNode(nid, _pose6(x, y), image_ref=f"frame-{idx:04d}.jpg"))
                positions[nid] = (x, y)
                idx += 1
    ids = sorted(positions)
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1 :]:
            bx, by = positions[b]
            d = math.hypot(bx - ax, by - ay)
            if d >= link_radius:
                continue
            if _segment_clear(dist, (ax, ay), (bx, by), node_clearance):
                topo.add_edge(a, b, _pose6(bx - ax, by - ay))
    return topo


def _node_graph_connected(topo: TopoMap) -> bool:
    if not topo.nodes:
        return False
    adj = {nid: set() for nid in topo.nodes}
    for a, b in topo.edges:
        adj[a].add(b)
        adj[b].add(a)
    start = next(iter(topo.nodes))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(topo.nodes)


def _place_landmarks(world_map: TopoMap, grid2: Grid, count: int, rng) -> None:
    free = ~grid2.values
    occ = grid2.values
    near_wall = np.zeros_like(free)
    near_wall[:-1] |= occ[1:]
    near_wall[1:] |= occ[:-1]
    near_wall[:, :-1] |= occ[:, 1:]
    near_wall[:, 1:] |= occ[:, :-1]
    cells = np.argwhere(free & near_wall)
    if len(cells) == 0:
        cells = np.argwhere(free)
    order = rng.permutation(len(cells))
    node_ids = sorted(world_map.nodes)
    node_pos = {
        nid: np.asarray(world_map.nodes[nid].pose.position[:2]) for nid in node_ids
    }
    placed = 0
    for k in order:
        if placed >= count:
            break
        r, c = cells[k]
        x = grid2.origin[0] + c * grid2.resolution
        y = grid2.origin[1] + r * grid2.resolution
        dists = sorted(
            (float(np.linalg.norm(node_pos[nid] - (x, y))), nid) for nid in node_ids
        )
        visible = [nid for d, nid in dists if d <= 2.5][:3] or [dists[0][1]]
        category = _CATEGORIES[int(rng.integers(len(_CATEGORIES)))]
        lm = Landmark(
            f"lm-{placed:03d}",
            category,
            {
                "color": _COLORS[int(rng.integers(len(_COLORS)))],
                "material": _MATERIALS[int(rng.integers(len(_MATERIALS)))],
            },
            _FUNCTIONS[category],
        )
        for nid in visible:
            world_map.register_landmark(nid, lm)
        placed += 1


def _extrude(occ2: np.ndarray, depth: int, rng) -> np.ndarray:
    """Random per-column obstacle heights; the z-max collapses back to occ2."""
    heights = rng.integers(1, depth + 1, size=occ2.shape)
    occ3 = np.zeros((depth, *occ2.shape), dtype=bool)
    for z in range(depth):
        occ3[z] = occ2 & (heights > z)
    return occ3


def generate_world(
    seed: int,
    size: int = 48,
    obstacle_density: float = 0.15,
    landmark_count: int = 10,
    resolution: float = 0.25,
    depth: int = 3,
) -> World:
    """Deterministic random world: bordered room with rectangular obstacles,
    connected free space, a connected node lattice, and wall-side landmarks."""
    if not 0.0 <= obstacle_density <= 0.4:
        raise SimError("obstacle density must lie in [0, 0.4]")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        occ2 = np.zeros((size, size), dtype=bool)
        occ2[0], occ2[-1], occ2[:, 0], occ2[:, -1] = True, True, True, True
        interior = (size - 2) * (size - 2)
        target = obstacle_density * interior
        guard = 0
        while (occ2[1:-1, 1:-1].sum()) < target and guard < 200:
            guard += 1
            bw = int(rng.integers(2, max(3, size // 6)))
            bh = int(rng.integers(2, max(3, size // 6)))
            r = int(rng.integers(1, size - 1 - bh)) if size - 1 - bh > 1 else 1
            c = int(rng.integers(1, size - 1 - bw)) if size - 1 - bw > 1 else 1
            occ2[r : r + bh, c : c + bw] = True
        if not _connected(~occ2):
            continue
        grid2 = Grid(occ2, resolution)
        dist = distance_field(grid2)
        topo = _build_lattice_map(grid2, dist, node_clearance=0.3)
        if len(topo.nodes) < 4 or not _node_graph_connected(topo):
            continue
        _place_landmarks(topo, grid2, landmark_count, rng)
        report = topo.validate()
        if not report.ok:
            raise SimError(f"generated map failed validation: {report.violations[:3]}")
        grid3 = Grid(_extrude(occ2, depth, rng), resolution)
        start_xy = [
            (n.pose.position[0], n.pose.position[1])
            for n in sorted(topo.nodes.values(), key=lambda n: n.id)
            if n.landmark_ids
        ]
        if len(start_xy) < 2:
            continue
        return World(grid3, topo, start_xy, seed)
    raise SimError(f"could not generate a connected world at density {obstacle_density}")


# --- expert planner ----------------------------------------------------------

_DIAG = math.sqrt(2.0)
_MOVES = [
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, _DIAG), (-1, 1, _DIAG), (1, -1, _DIAG), (1, 1, _DIAG),
]


def _to_cell(grid2: Grid, x: float, y: float) -> tuple[int, int]:
    c = int(round((x - grid2.origin[0]) / grid2.resolution))
    r = int(round((y - grid2.origin[1]) / grid2.resolution))
    return (min(max(r, 0), grid2.height - 1), min(max(c, 0), grid2.width - 1))


def _nearest_open(blocked: np.ndarray, cell: tuple[int, int]) -> tuple[int, int] | None:
    if not blocked[cell]:
        return cell
    open_cells = np.argwhere(~blocked)
    if len(open_cells) == 0:
        return None
    d2 = (open_cells[:, 0] - cell[0]) ** 2 + (open_cells[:, 1] - cell[1]) ** 2
    order = np.lexsort((open_cells[:, 1], open_cells[:, 0], d2))
    return tuple(open_cells[order[0]])


def _astar(blocked: np.ndarray, start: tuple[int, int], goal: tuple[int, int]):
    h, w = blocked.shape

    def heur(cell):
        return math.hypot(cell[0] - goal[0], cell[1] - goal[1])

    g = {start: 0.0}
    came = {}
    counter = 0
    heap = [(heur(start), 0, start)]
    closed = set()
    while heap:
        _, _, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return path[::-1]
        closed.add(cur)
        for dr, dc, cost in _MOVES:
            rr, cc = cur[0] + dr, cur[1] + dc
            if not (0 <= rr < h and 0 <= cc < w) or blocked[rr, cc]:
                continue
            cand = g[cur] + cost
            if cand < g.get((rr, cc), math.inf):
                g[(rr, cc)] = cand
                came[(rr, cc)] = cur
                counter += 1
                heapq.heappush(heap, (cand + heur((rr, cc)), counter, (rr, cc)))
    return None


def resample_polyline(points: np.ndarray, step: float) -> np.ndarray:
    """Points at fixed arc-length spacing along a polyline (endpoints kept)."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return points.copy()
    seg = np.diff(points, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    total = cum[-1]
    if total == 0:
        return points[:1].copy()
    n = max(1, int(math.ceil(total / step)))
    targets = np.linspace(0.0, total, n + 1)
    out = np.empty((n + 1, 2))
    j = 0
    for i, s in enumerate(targets):
        while j < len(lens) - 1 and cum[j + 1] < s:
            j += 1
        t = 0.0 if lens[j] == 0 else (s - cum[j]) / lens[j]
        out[i] = points[j] + t * seg[j]
    return out


def oracle_plan(
    world: World,
    start: Pose2,
    goal: Pose2,
    footprint_radius: float = 0.3,
    step: float = 0.25,
    safety_margin: float = 0.25,
) -> PoseTrajectory:
    """Expert path: inflated-grid A*, clearance-aware shortcut smoothing, fixed-step
    resampling. Headings follow the local direction of travel; the first pose is
    the exact start. Plans prefer footprint + margin clearance and retry at the
    bare footprint inflation before declaring the goal unreachable."""
    grid2 = world.grid2d()
    dist = world.dist_field()
    cells = None
    clearance = footprint_radius + grid2.resolution
    for margin in ((safety_margin, 0.0) if safety_margin > 0 else (0.0,)):
        clearance = footprint_radius + grid2.resolution + margin
        blocked = dist.values < clearance
        s_cell = _nearest_open(blocked, _to_cell(grid2, start.x, start.y))
        g_cell = _nearest_open(blocked, _to_cell(grid2, goal.x, goal.y))
        if s_cell is None or g_cell is None:
            continue
        cells = _astar(blocked, s_cell, g_cell)
        if cells is not None:
            break
    if cells is None:
        raise UnreachableError("start and goal are not connected at this clearance")
    res, (ox, oy) = grid2.resolution, grid2.origin
    pts = [(start.x, start.y)]
    pts += [(ox + c * res, oy + r * res) for r, c in cells]
    pts.append((goal.x, goal.y))
    pts = np.asarray(pts)
    # shortcut smoothing: greedily jump to the farthest point still at clearance
    keep = [0]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not _segment_clear(dist, pts[i], pts[j], clearance):
            j -= 1
        keep.append(j)
        i = j
    smooth = pts[keep]
    dense = resample_polyline(smooth, step)
    poses = [start]
    for k in range(1, len(dense)):
        dx, dy = dense[k] - dense[k - 1]
        heading = math.atan2(dy, dx) if (dx or dy) else poses[-1].theta
        poses.append(Pose2(dense[k][0], dense[k][1], heading))
    if len(poses) == 1:
        return PoseTrajectory((start,))
    return PoseTrajectory(tuple(poses))


def select_subgoal(path: PoseTrajectory, current: Pose2, lookahead: float) -> Pose2:
    """First path pose at least `lookahead` of arc length beyond the path point
    nearest to the current pose; the final pose when none remains."""
    if len(path) == 0:
        raise SimError("cannot select a subgoal from an empty path")
    arr = path.as_array()
    d = np.hypot(arr[:, 0] - current.x, arr[:, 1] - current.y)
    nearest = int(np.argmin(d))
    seg = np.hypot(*np.diff(arr[:, :2], axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = cum[nearest] + lookahead
    for k in range(nearest, len(arr)):
        if cum[k] >= target:
            return path[k]
    return path[-1]


# --- navigation loop ---------------------------------------------------------

@dataclass
class NavConfig:
    goal_tolerance: float = 0.5
    lookahead: float = 2.0
    fix_every: int = 20
    execute_steps: int = 4
    budget_factor: float = 10.0
    footprint_radius: float = 0.3
    max_step: float = 0.25
    wheel_trans_sigma: float = 0.02  # fraction of the step length
    wheel_rot_sigma: float = 0.01
    imu_sigma: float = 0.005
    exec_trans_sigma: float = 0.02
    exec_rot_sigma: float = 0.01
    fix_oracle_radius: float = 0.8
    planner: str = "model"  # "model" | "oracle"
    fallback: bool = True
    euler_steps: int = 20
    seed: int = 0


@dataclass
class EpisodeReport:
    success: bool
    reason: str  # reached | localization-fail | timeout | stuck
    fallback_count: int = 0
    planner_calls: int = 0
    collision_count: int = 0
    path_length: float = 0.0
    mean_velocity: float = 0.0
    final_error: float = math.inf

    def to_jsonable(self) -> dict:
        return {
            "success": self.success,
            "reason": self.reason,
            "fallback_count": self.fallback_count,
            "planner_calls": self.planner_calls,
            "collision_count": self.collision_count,
            "path_length": self.path_length,
            "mean_velocity": self.mean_velocity,
            "final_error": None if math.isinf(self.final_error) else self.final_error,
        }


def observations_at(world: World, pose: Pose2, max_range: float = 6.0):
    """Noiseless landmark observations from the nearest landmark-bearing node."""
    best = None
    for nid in sorted(world.map.nodes):
        node = world.map.nodes[nid]
        if not node.landmark_ids:
            continue
        d = math.hypot(node.pose.position[0] - pose.x, node.pose.position[1] - pose.y)
        if d <= max_range and (best is None or d < best[0]):
            best = (d, nid)
    if best is None:
        return []
    node = world.map.nodes[best[1]]
    return [
        LandmarkObservation(
            world.map.landmarks[lid].category,
            dict(world.map.landmarks[lid].visual_attributes),
        )
        for lid in sorted(node.landmark_ids)
    ]


def _global_fix(world: World, true_pose: Pose2, radius: float) -> Pose2 | None:
    obs = observations_at(world, true_pose)
    if not obs:
        return None
    cfg = LocalizationConfig(fine_mode="nearest")
    result = localize(
        obs, QueryContext(pose=true_pose), world.map, cfg, make_ground_truth_oracle(radius)
    )
    return result.estimated_pose if result.confidence > 0 else None


def _nearest_node(topo: TopoMap, pose: Pose2) -> str:
    return min(
        sorted(topo.nodes),
        key=lambda nid: (
            math.hypot(
                topo.nodes[nid].pose.position[0] - pose.x,
                topo.nodes[nid].pose.position[1] - pose.y,
            ),
            nid,
        ),
    )


def _clip_action(a: np.ndarray, max_step: float) -> np.ndarray:
    out = a.copy()
    norm = math.hypot(out[0], out[1])
    if norm > max_step:
        out[0] *= max_step / norm
        out[1] *= max_step / norm
    out[2] = float(np.clip(out[2], -0.5, 0.5))
    return out


def run_episode(
    world: World,
    goal,
    config: NavConfig,
    model: VectorFieldModel | None = None,
    seed: int = 0,
    start: Pose2 | None = None,
) -> EpisodeReport:
    """One navigation episode; `goal` is a Pose2 or an instruction string."""
    rng = np.random.default_rng(seed)
    grid2 = world.grid2d()
    dist = world.dist_field()
    phi = world.phi()
    if start is None:
        sx, sy = world.start_xy[int(rng.integers(len(world.start_xy)))]
        start = Pose2(sx, sy, float(rng.uniform(-math.pi, math.pi)))
    true_pose = start

    if isinstance(goal, str):
        try:
            _, goal_pose = goal_localize(goal.split(), world.map, start)
        except GoalNotFoundError:
            return EpisodeReport(False, "localization-fail")
    else:
        goal_pose = goal

    fix = _global_fix(world, true_pose, radius=0.51)
    if fix is None:
        return EpisodeReport(False, "localization-fail")
    # localization recovers position; heading comes from the robot's own frame
    est_pose = Pose2(fix.x, fix.y, true_pose.theta)

    start_node = _nearest_node(world.map, est_pose)
    goal_node = _nearest_node(world.map, goal_pose)
    node_path = world.map.shortest_path(start_node, goal_node)
    if not node_path:
        return EpisodeReport(False, "stuck")
    global_poses = [world.map.nodes[nid].pose.planar() for nid in node_path]
    global_poses.append(goal_pose)
    global_path = PoseTrajectory(tuple(global_poses))

    try:
        oracle_ref = oracle_plan(
            world, start, goal_pose, config.footprint_radius, config.max_step
        )
    except UnreachableError:
        return EpisodeReport(False, "stuck")
    budget = max(60, int(config.budget_factor * oracle_ref.path_length() / config.max_step))

    report = EpisodeReport(False, "timeout")
    executed = 0
    step_lengths: list[float] = []
    best_goal_dist = math.hypot(true_pose.x - goal_pose.x, true_pose.y - goal_pose.y)
    stall = 0
    stall_limit = max(80, 4 * config.fix_every)

    def goal_distance() -> float:
        return math.hypot(true_pose.x - goal_pose.x, true_pose.y - goal_pose.y)

    while executed < budget:
        if goal_distance() <= config.goal_tolerance:
            report.success, report.reason = True, "reached"
            break
        subgoal = select_subgoal(global_path, est_pose, config.lookahead)
        actions = None
        if config.planner == "model" and model is not None:
            cond = PlanningCondition(
                relative_pose(est_pose, subgoal),
                (step_lengths[-1] if step_lengths else 0.0, 0.0),
                occupancy_features(grid2, est_pose, phi),
            )
            plan = plan_sample(model, cond, config.euler_steps, rng)
            report.planner_calls += 1
            world_poses = actions_to_poses(plan.actions, est_pose)
            if collision_check(world_poses, None, config.footprint_radius, dist):
                if config.fallback:
                    report.fallback_count += 1
                else:
                    actions = plan.actions
            else:
                actions = plan.actions
        if actions is None:  # oracle planner, or a fallback replacement segment
            try:
                ref = oracle_plan(
                    world, est_pose, subgoal, config.footprint_radius, config.max_step
                )
            except UnreachableError:
                report.reason = "stuck"
                break
            if len(ref) < 2:
                ref = PoseTrajectory((est_pose, subgoal))
            actions = poses_to_actions(ref)
            if len(actions) == 0:
                report.reason = "stuck"
                break

        for a in actions.steps[: config.execute_steps]:
            a = _clip_action(np.asarray(a, dtype=float), config.max_step)
            step_len = math.hypot(a[0], a[1])
            exec_inc = a + np.array(
                [
                    rng.normal(0.0, config.exec_trans_sigma * step_len),
                    rng.normal(0.0, config.exec_trans_sigma * step_len),
                    rng.normal(0.0, config.exec_rot_sigma),
                ]
            )
            true_pose = compose_se2(true_pose, Pose2(*exec_inc))
            wheel = exec_inc + np.array(
                [
                    rng.normal(0.0, config.wheel_trans_sigma * step_len),
                    rng.normal(0.0, config.wheel_trans_sigma * step_len),
                    rng.normal(0.0, config.wheel_rot_sigma),
                ]
            )
            imu_dth = exec_inc[2] + rng.normal(0.0, config.imu_sigma)
            fused = fuse_increment(
                SensorIncrement(dt=0.1, wheel=tuple(wheel), imu_dtheta=imu_dth)
            )
            est_pose = compose_se2(est_pose, Pose2(*fused))
            executed += 1
            step_lengths.append(math.hypot(exec_inc[0], exec_inc[1]))
            report.path_length += step_lengths[-1]
            clearance = float(sample_bilinear(dist, [(true_pose.x, true_pose.y)])[0])
            if clearance < config.footprint_radius:
                report.collision_count += 1
            if executed % config.fix_every == 0:
                fix = _global_fix(world, true_pose, config.fix_oracle_radius)
                if fix is not None:
                    # position re-anchored to the map, heading kept from odometry
                    est_pose = Pose2(fix.x, fix.y, est_pose.theta)
            if goal_distance() <= config.goal_tolerance:
                break
        d = goal_distance()
        if d < best_goal_dist - 0.05:
            best_goal_dist = d
            stall = 0
        else:
            stall += config.execute_steps
            if stall >= stall_limit:
                report.reason = "stuck"
                break
        if report.success or report.reason == "stuck":
            break

    if goal_distance() <= config.goal_tolerance:
        report.success, report.reason = True, "reached"
    report.final_error = goal_distance()
    report.mean_velocity = (
        float(np.mean(step_lengths)) / config.max_step if step_lengths else 0.0
    )
    return report


def eval_suite(
    worlds: list[World],
    n_episodes: int,
    config: NavConfig,
    model: VectorFieldModel | None = None,
    master_seed: int = 0,
) -> dict:
    """Run seeded episodes round-robin over the worlds and aggregate the outcome."""
    if n_episodes < 1:
        raise SimError("need at least one episode")
    rng = np.random.default_rng(master_seed)
    seeds = rng.integers(0, 2**31 - 1, size=n_episodes)
    reports = []
    for i in range(n_episodes):
        world = worlds[i % len(worlds)]
        ep_rng = np.random.default_rng(int(seeds[i]))
        n = len(world.start_xy)
        si = int(ep_rng.integers(n))
        candidates = [
            j
            for j in range(n)
            if math.hypot(
                world.start_xy[j][0] - world.start_xy[si][0],
                world.start_xy[j][1] - world.start_xy[si][1],
            )
            >= 3.0
        ] or [j for j in range(n) if j != si] or [si]
        gi = candidates[int(ep_rng.integers(len(candidates)))]
        start = Pose2(*world.start_xy[si], float(ep_rng.uniform(-math.pi, math.pi)))
        goal = Pose2(*world.start_xy[gi], 0.0)
        reports.append(run_episode(world, goal, config, model, seed=int(seeds[i]), start=start))
    planner_eps = sum(1 for r in reports if r.planner_calls > 0)
    fallback_eps = sum(1 for r in reports if r.fallback_count > 0)
    agg = {
        "episodes": n_episodes,
        "success_rate": sum(r.success for r in reports) / n_episodes,
        "fallback_rate": (fallback_eps / planner_eps) if planner_eps else 0.0,
        "collision_rate": sum(1 for r in reports if r.collision_count > 0) / n_episodes,
        "mean_velocity": float(np.mean([r.mean_velocity for r in reports])),
        "reports": [r.to_jsonable() for r in reports],
    }
    return agg


# --- expert dataset and planner evaluation -----------------------------------

def build_planning_dataset(
    worlds: list[World],
    samples_per_world: int,
    n_actions: int = 16,
    seed: int = 0,
    footprint_radius: float = 0.3,
    max_step: float = 0.25,
    lookahead: float = 2.0,
    mask_alpha: float = 0.5,
    mask_dilation: float = 0.3,
) -> list[PlanningSample]:
    """Expert windows: oracle paths cut into n-action chunks with conditions and
    per-sample masked fields."""
    rng = np.random.default_rng(seed)
    dataset: list[PlanningSample] = []
    for wi, world in enumerate(worlds):
        grid2 = world.grid2d()
        phi = world.phi()
        grid_ref = os.path.join(world.source_dir, "grid.occ") if world.source_dir else None
        collected = 0
        guard = 0
        while collected < samples_per_world and guard < samples_per_world * 20:
            guard += 1
            n = len(world.start_xy)
            si, gi = rng.integers(n), rng.integers(n)
            s_xy, g_xy = world.start_xy[int(si)], world.start_xy[int(gi)]
            if math.hypot(g_xy[0] - s_xy[0], g_xy[1] - s_xy[1]) < 2.0:
                continue
            heading = math.atan2(g_xy[1] - s_xy[1], g_xy[0] - s_xy[0])
            try:
                path = oracle_plan(
                    world,
                    Pose2(*s_xy, heading),
                    Pose2(*g_xy, heading),
                    footprint_radius,
                    max_step,
                )
            except UnreachableError:
                continue
            arr = path.as_array()
            stride = max(1, n_actions // 2)
            for lo in range(0, len(arr) - n_actions - 1, stride):
                window = PoseTrajectory(tuple(path[lo : lo + n_actions + 1]))
                actions = poses_to_actions(window)
                start_pose = window[0]
                subgoal = select_subgoal(path, start_pose, lookahead)
                prev_len = (
                    math.hypot(arr[lo][0] - arr[lo - 1][0], arr[lo][1] - arr[lo - 1][1])
                    if lo > 0
                    else 0.0
                )
                cond = PlanningCondition(
                    relative_pose(start_pose, subgoal),
                    (prev_len, 0.0),
                    occupancy_features(grid2, start_pose, phi),
                )
                mask = make_mask(window, phi, mask_dilation)
                dataset.append(
                    PlanningSample(
                        actions.steps,
                        cond,
                        start_pose,
                        mask_esdf(phi, mask, mask_alpha),
                        grid_ref,
                        window.to_jsonable(),
                        wi,
                    )
                )
                collected += 1
                if collected >= samples_per_world:
                    break
    return dataset


def save_dataset(dataset: list[PlanningSample], path) -> None:
    """JSON-lines export; needs grid_ref/gt_poses metadata on every sample."""
    with open(path, "w") as fh:
        for s in dataset:
            if s.grid_ref is None or s.gt_poses is None:
                raise SimError("dataset sample lacks grid_ref/gt_poses metadata")
            fh.write(
                json.dumps(
                    {
                        "actions": [[float(v) for v in row] for row in s.actions],
                        "condition": s.condition.to_jsonable(),
                        "grid_ref": s.grid_ref,
                        "gt_poses": s.gt_poses,
                    }
                )
                + "\n"
            )


def load_dataset(path, mask_alpha: float = 0.5, mask_dilation: float = 0.3):
    """Rebuild PlanningSamples from a JSON-lines file, recomputing masked fields
    per referenced grid."""
    base = os.path.dirname(os.path.abspath(path))
    phis: dict[str, Grid] = {}
    dataset = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SimError(f"{path}:{line_no}: invalid JSON: {e}") from e
            grid_ref = rec["grid_ref"]
            full = grid_ref if os.path.isabs(grid_ref) else os.path.join(base, grid_ref)
            if full not in phis:
                phis[full] = signed_esdf(load_occupancy(full))
            phi = phis[full]
            gt = PoseTrajectory.from_jsonable(rec["gt_poses"])
            mask = make_mask(gt, phi, mask_dilation)
            dataset.append(
                PlanningSample(
                    np.asarray(rec["actions"], dtype=float),
                    PlanningCondition.from_jsonable(rec["condition"]),
                    gt[0],
                    mask_esdf(phi, mask, mask_alpha),
                    grid_ref,
                    rec["gt_poses"],
                )
            )
    return dataset


def evaluate_planner(
    model: VectorFieldModel,
    worlds: list[World],
    n_conditions_per_world: int = 10,
    rollouts_per_condition: int = 3,
    seed: int = 0,
    footprint_radius: float = 0.3,
    max_step: float = 0.25,
    euler_steps: int = 20,
) -> dict:
    """Open-loop rollout evaluation: collision rate and normalized velocity over
    expert-window conditions."""
    conditions = build_planning_dataset(
        worlds,
        n_conditions_per_world,
        n_actions=model.n_actions,
        seed=seed,
        footprint_radius=footprint_radius,
        max_step=max_step,
    )
    rng = np.random.default_rng(seed + 1)
    collided = 0
    total = 0
    velocities = []
    dists = [w.dist_field() for w in worlds]
    for cond_sample in conditions:
        dist = dists[cond_sample.world_index]
        for _ in range(rollouts_per_condition):
            plan = plan_sample(model, cond_sample.condition, euler_steps, rng)
            world_poses = actions_to_poses(plan.actions, cond_sample.start)
            total += 1
            if collision_check(world_poses, None, footprint_radius, dist):
                collided += 1
            velocities.append(plan.mean_step / max_step)
    return {
        "rollouts": total,
        "collision_rate": collided / total if total else 0.0,
        "mean_velocity": float(np.mean(velocities)) if velocities else 0.0,
    }


# --- world persistence --------------------------------------------------------

def save_world(world: World, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_grid(world.grid, os.path.join(out_dir, "grid.occ"))
    world.map.save(os.path.join(out_dir, "map.json"))
    with open(os.path.join(out_dir, "world.json"), "w") as fh:
        json.dump(
            {
                "seed": world.seed,
                "start_xy": [[float(x), float(y)] for x, y in world.start_xy],
            },
            fh,
            sort_keys=True,
        )
        fh.write("\n")


def load_world(world_dir) -> World:
    grid = load_occupancy(os.path.join(world_dir, "grid.occ"))
    topo = TopoMap.load(os.path.join(world_dir, "map.json"))
    with open(os.path.join(world_dir, "world.json")) as fh:
        meta = json.load(fh)
    return World(
        grid,
        topo,
        [tuple(p) for p in meta["start_xy"]],
        meta.get("seed", 0),
        source_dir=str(world_dir),
    )
