"""Seeded grid worlds, an expert search-based planner, and the navigation loop.

Worlds are rejection-sampled until the free space is a single connected
component and the 1 m node lattice forms a connected graph. The expert
planner plans a batch of requests at once (`oracle_plans`); every caller
in the package plans through it, and `oracle_plan` is the batch of one
for a caller outside it. Each request runs its own 8-connected A* on an
obstacle map inflated by the footprint radius (plus one cell of margin,
`_route`); then all requests shortcut-smooth their cell paths together, one
kept point each per round, keeping every sampled point at or above the
inflated clearance, so no output trips the collision check at the same
footprint radius. Clearance along straight segments is checked in batches:
`_segments_clear` samples every candidate segment of a smoothing round that
shares a world and a clearance, or every candidate link of the lattice map,
in one bilinear lookup. The lattice map makes two lookups in all: one
places every node, one checks every link. Its candidate links come
from one box test over all nodes, swept a block of rows at a time
(`_link_pairs`). Node count and connectivity are checked on the index pairs
of the clear links (`topomap.node_components`), so a rejected candidate
builds no map object; an accepted one builds one node and pose per node and
one edge per link, with one shared pose per distinct link offset.

What the expert planner needs of a world at one clearance is a function of
the world alone, so `World.planning_grid(clearance)` builds it once and
keeps it: the blocked cells, the open moves out of every cell of the
walled, flattened grid that `_astar` searches (one shared tuple per
neighbourhood pattern), the nearest open cell of every cell a plan has
snapped, and, from the first plan on, the 8-connected component label of
every open cell. The A* heuristic is one `math.hypot` table per grid shape,
indexed by a cell's flat offset from the goal (`_heuristic_table`). A plan
then pays only for its own search, smoothing and resampling, and
starts no search when its snapped start and goal carry different labels:
A* moves to all 8 neighbors with no corner rule, so such a search could
only exhaust the start's component and fail. One label propagation
(`_component_labels`) gives these labels and `generate_world`'s test that
the free space is one component. Nothing that depends on the start or
goal of a plan is kept.

The navigation loop mirrors the intended deployment: locate the goal
(optionally from a language instruction), self-localize, plan a global node
path and one expert path to the goal, then run control cycles on an
`EpisodeState`. `eval_suite` sets every episode up first, all their
reference paths planned by one `oracle_plans` call (`_set_up`), and then runs
all live episodes in lock-step, one control cycle each at a time
(`_lock_step`), in three phases: a plan phase does its field work once per
world, not once per plan: it encodes the occupancy around the estimates of
all the episodes the learned planner drives in one world with one
`planner.occupancy_features` call, samples all their plans with one call of
`planner.sample` on one array of condition vectors, each x0 drawn from its
episode's own rng, and gives every plan of a world its collision verdict
with one `planner.plans_collide` call; an expert phase (`_expert_phase`)
moves every episode the expert drives this cycle along its path and
re-plans all the paths that need it with one `oracle_plans` call; an
execute phase runs each episode's steps. The expert
draws nothing, and an episode draws x0 first and then its cycle's
noise, from its own rng, as it would alone, and no bit of a plan's
floats depends on the episodes beside it; `run_episode` is the same
loop on one episode. Only the learned planner (`_LearnedPlanner`) reads the
node path, so an episode the expert drives only checks that the start and
goal nodes are connected. Its cycle picks a lookahead subgoal on the node
path, from a nearest-node index that only moves forward and the path's arc
lengths, computed once per episode, and samples a trajectory toward it; when
the trajectory would collide, the expert takes over for the cycle. The
expert follows its path (`_ExpertPath`): a progress index that only moves
forward, and a re-plan only when the estimate strays from the path by more
than the planner's safety margin or the path runs out short of the goal;
an episode whose re-plan finds no path ends stuck before it executes. A
cycle executes a few steps under noisy kinematics, all of their noise one
standard-normal draw scaled per step (the values `rng.normal` would give
for the same scales, bit for bit), and dead-reckons between periodic
global fixes, its poses and increments plain floats. The clearance of the
executed poses only counts collisions, so it is looked up once, at the
end of the episode. A step that turns more than 0.5 rad is executed as
several: the first translates and turns a share, the rest rotate in place,
and each counts as a step for the budget, the fixes and the noise. The
loop's fixed settings are module constants (`_FOOTPRINT_RADIUS`, which the
world generator's lattice reads too, and `_GOAL_TOLERANCE` to
`_EULER_STEPS`), which the expert dataset and
the open-loop evaluation read too. Both take their conditions from
`expert_windows`, which plans its start/goal pairs in `oracle_plans`
batches, one world at a time, from the draws that planning one pair at a
time makes (pairs drawn past the one that completes a world are rewound),
and encodes each world's windows with one `occupancy_features` call. The
open-loop evaluation samples each condition's rollouts with the loop's
sampler, one `planner.sample` call with a row per rollout, and checks
their poses with the loop's check, one `plans_collide` call.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AstraError, check_fields, is_finite_number, is_finite_triple, read_json, read_text
from .esdf import (
    MASK_ALPHA,
    MASK_DILATION,
    Grid,
    compress_grid,
    field_buffer,
    load_occupancy,
    make_mask,
    mask_esdf,
    sample_bilinear,
    save_grid,
    signed_esdf,
)
from .geom import (
    Pose2,
    PoseTrajectory,
    compose_xyt,
    poses_to_actions,
    relative_pose,
    relative_xyt,
    wrap_angle,
)
from .localization import (
    GoalNotFoundError,
    LandmarkObservation,
    QueryContext,
    goal_localize,
    localize,
    make_ground_truth_oracle,
)
# the loop fuses with `fuse_sources`; bench/workloads.py traces `sim.fuse_increment`
from .odometry import fuse_increment, fuse_sources  # noqa: F401
# bench/workloads.py traces `sim.collision_check`; the loop checks plans with `plans_collide`
from .planner import (  # noqa: F401
    OCCUPANCY_FEATURES,
    PlanningCondition,
    PlanningSample,
    VectorFieldModel,
    collision_check,
    condition_vectors,
    distance_field,
    occupancy_features,
    plans_collide,
)
from .planner import sample as plan_sample
from .topomap import Landmark, MapNode, Pose6, TopoMap, node_components

log = logging.getLogger(__name__)


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
    """A grid world, its node map and its start points.

    The arrays derived from the grid are built on first use and kept, since
    they depend on the world alone: the 2-D occupancy, the distance field,
    the signed field, and one planning grid per clearance the expert planner
    has asked for (see `planning_grid`). `generate_world` hands over the
    2-D occupancy and distance field it built the map on.
    """

    grid: Grid  # occupancy: 3-D as generated, 2-D as loaded
    map: TopoMap
    start_xy: list[tuple[float, float]]
    seed: int = 0
    source_dir: str | None = None

    def __post_init__(self):
        self._grid2d = None
        self._dist = None
        self._phi = None
        self._planning: dict[float, _PlanningGrid] = {}

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

    def planning_grid(self, clearance: float) -> _PlanningGrid:
        """The expert planner's grid of cells closer than `clearance` to an
        obstacle, built once per clearance."""
        grid = self._planning.get(clearance)
        if grid is None:
            grid = self._planning[clearance] = _PlanningGrid(self.dist_field().values < clearance)
        return grid


def _pose6(x: float, y: float) -> Pose6:
    return Pose6((x, y, 0.0), (1.0, 0.0, 0.0, 0.0))


def _component_labels(free: np.ndarray) -> np.ndarray:
    """The 8-connected component of every cell of `free`, as flat labels:
    each free cell carries the flat index of its component's first cell,
    each blocked cell h * w.

    Each free cell starts labelled with its flat index. A pass gives every
    free cell the lowest label in its 3x3 neighborhood, blocked cells
    labelled h * w, then the label of its label, as `topomap.node_components`
    does on a node graph; at the fixed point every component carries the
    index of its first cell.

    The grid keeps this shifted-minimum form rather than passing its
    8-neighbor cell pairs to `node_components`: on the free cells of worlds
    0-5 at 96 it took 0.76-1.81 ms a call, the pair form 2.65-5.62 ms with
    the same labels (timeit minima, 2-core Xeon VM); `generate_world` calls
    it once per candidate grid and each planning grid once."""
    h, w = free.shape
    cells = np.flatnonzero(free)
    label = np.full(h * w, h * w)
    label[cells] = cells
    padded = np.full((h + 2, w + 2), h * w)
    while True:
        padded[1:-1, 1:-1] = label.reshape(h, w)
        rows = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
        low = np.minimum(np.minimum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:]).ravel()
        new = label.copy()
        new[cells] = low[cells]
        new[cells] = new[new[cells]]
        if np.array_equal(new, label):
            return label
        label = new


def _connected(free: np.ndarray) -> bool:
    """True iff the free cells form one 8-connected component."""
    labels = _component_labels(free)[free.ravel()]
    return len(labels) > 0 and not (labels != labels[0]).any()


def _segments_clear(dist: Grid, a, b, clearance: float) -> np.ndarray:
    """Per segment a->b[m], whether every point sampled along it keeps `clearance`.

    `a` is one point or one per segment, `b` is (M, 2). A segment of length L
    is sampled at n = max(2, int(L / (res / 2)) + 1) evenly spaced points,
    both ends included, the points `np.linspace(0, 1, n)` gives; all segments
    share one `sample_bilinear` call. The points are an x row and a y row,
    a + t d from one repeat of each per-segment row, so no per-point index
    array is made; the lookup reads the rows' transpose in place.
    """
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(b) == 0:
        return np.zeros(0, dtype=bool)
    a = np.broadcast_to(np.asarray(a, dtype=float), b.shape)
    d = b - a
    n = np.maximum(2, (np.hypot(d[:, 0], d[:, 1]) / (dist.resolution / 2.0)).astype(np.intp) + 1)
    ends = np.cumsum(n)
    first = ends - n
    ts = np.arange(ends[-1], dtype=float)
    ts -= np.repeat(first, n)
    ts *= np.repeat(1.0 / (n - 1), n)
    ts[ends - 1] = 1.0
    pts = np.repeat(d.T, n, axis=1)
    pts *= ts
    pts += np.repeat(a.T, n, axis=1)
    too_close = sample_bilinear(dist, pts.T) < clearance
    return ~np.logical_or.reduceat(too_close, first)


def _link_pairs(xy: np.ndarray, radius: float, block: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, in row-major order, of the points of `xy`
    (N, 2) closer than `radius`.

    The box test |dx| < radius and |dy| < radius finds the candidates and
    `math.hypot` on the same differences decides. The points are swept in
    order of y, a block of rows at a time, against the later points whose y
    can pass the box test, so no N x N array is built."""
    order = np.argsort(xy[:, 1], kind="stable")
    xs, ys = xy[order, 0], xy[order, 1]
    found_p, found_q = [], []
    for s in range(0, len(order), block):
        e = min(s + block, len(order))
        # ys - ys[e - 1] grows along the sweep, so the points past the block
        # that pass |dy| < radius for some row are a prefix of them
        stop = e + int(np.count_nonzero(ys[e:] - ys[e - 1] < radius))
        box = np.abs(xs[s + 1 : stop] - xs[s:e, None]) < radius
        box &= np.abs(ys[s + 1 : stop] - ys[s:e, None]) < radius
        r, c = np.nonzero(box)
        upper = c >= r  # column c is point s + 1 + c, row r is point s + r
        found_p.append(order[s + r[upper]])
        found_q.append(order[s + 1 + c[upper]])
    p = np.concatenate(found_p or [np.zeros(0, np.intp)])
    q = np.concatenate(found_q or [np.zeros(0, np.intp)])
    i, j = np.minimum(p, q), np.maximum(p, q)
    row_major = np.lexsort((j, i))
    i, j = i[row_major], j[row_major]
    d = xy[j] - xy[i]
    near = np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()))) < radius
    return i[near], j[near]


def _build_lattice_map(grid2: Grid, dist: Grid, node_clearance: float) -> TopoMap | None:
    """Nodes on a 1 m lattice over free space; lattice-neighbor edges plus
    proximity links under 2 m, all requiring a clear straight segment.

    One `sample_bilinear` call places every node, one `_segments_clear`
    call checks every candidate link, and one `add_edges` call adds every
    kept link, in the order of the sorted ids, with one shared pose per
    distinct offset. A lattice of fewer than 4 nodes, or one whose links
    leave it disconnected, is rejected (None) before any map object is
    built."""
    res = grid2.resolution
    step_cells = max(1, round(1.0 / res))
    rows = np.arange(0, grid2.height, step_cells)
    cols = np.arange(0, grid2.width, step_cells)
    r, c = np.repeat(rows, len(cols)), np.tile(cols, len(rows))
    lattice = np.stack([grid2.origin[0] + c * res, grid2.origin[1] + r * res], axis=1)
    keep = ~grid2.values[r, c] & (sample_bilinear(dist, lattice) >= node_clearance)
    xy = lattice[keep]
    ids = [f"n-{k:03d}" for k in range(len(xy))]
    # links are searched and added in the order of the sorted ids ("n-100" <
    # "n-1000" < "n-101"); edge ends are the same strings the nodes are keyed by
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    sorted_ids = [ids[k] for k in by_id]
    sorted_xy = xy[by_id]
    i, j = _link_pairs(sorted_xy, 2.0)
    clear = _segments_clear(dist, sorted_xy[i], sorted_xy[j], node_clearance)
    i, j = i[clear], j[clear]
    if len(ids) < 4 or node_components(len(ids), i, j).any():
        return None
    topo = TopoMap()
    for k, (nid, (x, y)) in enumerate(zip(ids, xy.tolist())):
        topo.add_node(MapNode(nid, _pose6(x, y), image_ref=f"frame-{k:04d}.jpg"))
    # Pose6 is frozen, so links with the same offset share one; no coordinate
    # is -0.0, so offsets that compare equal have equal bits
    offsets, links = {}, []
    d = sorted_xy[j] - sorted_xy[i]
    for a, b, dx, dy in zip(i.tolist(), j.tolist(), d[:, 0].tolist(), d[:, 1].tolist()):
        pose = offsets.get((dx, dy))
        if pose is None:
            pose = offsets[dx, dy] = _pose6(dx, dy)
        links.append((sorted_ids[a], sorted_ids[b], pose))
    return topo.add_edges(links)


# node distances per block of landmark cells in `_place_landmarks`, so that
# its arrays stay a few MiB whatever the number of cells and nodes
_RANK_BLOCK = 1 << 18


def _place_landmarks(world_map: TopoMap, grid2: Grid, count: int, rng) -> None:
    """Register up to `count` landmarks, at most one per free cell beside a
    wall (per free cell, if no free cell borders a wall), at cells in the
    order of one rng permutation. A landmark is seen from its nearest nodes
    within 2.5 m, at most 3 of them, or from its nearest node if none is
    that close; nodes at equal distance rank in id order.

    The cells are ranked against every node in blocks of about
    `_RANK_BLOCK` distances: one norm over the block's (cells, nodes, 2)
    offsets and a stable argsort of each row, whose id-sorted node index
    puts equal distances in id order."""
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
    cells = cells[rng.permutation(len(cells))[:count]]
    points = np.stack([grid2.origin[0] + cells[:, 1] * grid2.resolution,
                       grid2.origin[1] + cells[:, 0] * grid2.resolution], axis=1)
    index = world_map.node_index()
    node_ids, node_xy = index.ids, index.positions[:, :2]
    block = max(1, _RANK_BLOCK // len(node_ids))
    placed = 0
    for start in range(0, len(points), block):
        dists = np.linalg.norm(node_xy - points[start : start + block, None], axis=-1)
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :3]
        within = np.count_nonzero(np.take_along_axis(dists, nearest, axis=1) <= 2.5, axis=1)
        for ranked, n in zip(nearest.tolist(), within.tolist()):
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
            for k in ranked[: max(n, 1)]:
                world_map.register_landmark(node_ids[k], lm)
            placed += 1


# m: a pose closer than this to an obstacle collides; lattice nodes and links
# keep this clearance too
_FOOTPRINT_RADIUS = 0.3


def _scatter_blocks(size: int, obstacle_density: float, rng) -> np.ndarray:
    """A walled size x size occupancy grid with random rectangular blocks
    added until they cover `obstacle_density` of the interior, or 200
    blocks; each block draws its width, height, row and column from `rng`,
    and the cells it newly covers are added to a running count."""
    occ2 = np.zeros((size, size), dtype=bool)
    occ2[0], occ2[-1], occ2[:, 0], occ2[:, -1] = True, True, True, True
    target = obstacle_density * ((size - 2) * (size - 2))
    guard = covered = 0  # covered: the occupied interior cells
    while covered < target and guard < 200:
        guard += 1
        bw = int(rng.integers(2, max(3, size // 6)))
        bh = int(rng.integers(2, max(3, size // 6)))
        r = int(rng.integers(1, size - 1 - bh)) if size - 1 - bh > 1 else 1
        c = int(rng.integers(1, size - 1 - bw)) if size - 1 - bw > 1 else 1
        block = occ2[r : r + bh, c : c + bw]
        # the wall is set, so a newly covered cell is an interior one even
        # where a block reaches the wall (sizes 3 and 4)
        covered += block.size - int(np.count_nonzero(block))
        block[...] = True
    return occ2


def generate_world(seed: int, size: int = 48, obstacle_density: float = 0.15,
                   landmark_count: int = 10, resolution: float = 0.25) -> World:
    """Deterministic random world: bordered room with rectangular obstacles,
    connected free space, a connected node lattice, and wall-side landmarks.

    At most one landmark is placed per wall-side free cell, so a world has
    `landmark_count` landmarks or, when it has fewer such cells, one per
    cell. The world keeps the 2-D occupancy and distance field its map was
    built on."""
    if not 0.0 <= obstacle_density <= 0.4:
        raise SimError("obstacle density must lie in [0, 0.4]")
    if size < 3:
        raise SimError(f"world size must be at least 3 cells, got {size}")
    if landmark_count < 1:
        # start points are the landmark nodes, so no landmark means no world
        raise SimError(f"landmark count must be >= 1, got {landmark_count}")
    if not (is_finite_number(resolution) and resolution > 0):
        raise SimError(f"resolution must be positive and finite, got {resolution!r}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        occ2 = _scatter_blocks(size, obstacle_density, rng)
        if not _connected(~occ2):
            continue
        grid2 = Grid(occ2, resolution)
        dist = distance_field(grid2)
        topo = _build_lattice_map(grid2, dist, _FOOTPRINT_RADIUS)
        if topo is None:
            continue
        _place_landmarks(topo, grid2, landmark_count, rng)
        topo.validate().require("generated map", SimError)
        # random per-column obstacle heights of 1-3 levels; the z-max is occ2
        heights = rng.integers(1, 4, size=occ2.shape)
        grid3 = Grid(occ2 & (heights > np.arange(3)[:, None, None]), resolution)
        start_xy = [
            (n.pose.position[0], n.pose.position[1])
            for n in sorted(topo.nodes.values(), key=lambda n: n.id)
            if n.landmark_ids
        ]
        if len(start_xy) < 2:
            continue
        world = World(grid3, topo, start_xy, seed)
        world._grid2d, world._dist = grid2, dist
        return world
    raise SimError(f"could not generate a connected world at density {obstacle_density}")


# --- expert planner ----------------------------------------------------------

# the loop's fixed settings, which the expert dataset and evaluation read too
_GOAL_TOLERANCE = 0.5  # m: an episode succeeds once the true pose is this close to the goal
_LOOKAHEAD = 2.0  # m of node-path arc length from the nearest node to the subgoal
_EXECUTE_STEPS = 4  # planned actions executed per control cycle
_BUDGET_FACTOR = 10.0  # executed steps per expert-path step; a budget is at least 60 steps
_MAX_STEP = 0.25  # m: the longest executed step, and the expert path's pose spacing
_FIX_ORACLE_RADIUS = 0.8  # m: reach of a global fix
_EULER_STEPS = 20  # forward passes per learned plan
# clearance the expert prefers beyond the footprint (m); a path follower
# re-plans once its estimate is farther than this from the path
_SAFETY_MARGIN = 0.25
_DIAG = math.sqrt(2.0)
_MOVES = [
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, _DIAG), (-1, 1, _DIAG), (1, -1, _DIAG), (1, 1, _DIAG),
]


def _in_cells(grid: Grid, x: float, y: float) -> bool:
    """Whether (x, y) lies in the grid's cell area: no farther than half a
    cell from the centers of its edge cells. False for a non-finite point."""
    half, (ox, oy) = grid.resolution / 2.0, grid.origin
    return (ox - half <= x <= ox - half + grid.width * grid.resolution
            and oy - half <= y <= oy - half + grid.height * grid.resolution)


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


class _PlanningGrid:
    """The A* search space of one world at one clearance.

    `blocked` marks the cells closer than the clearance to an obstacle. The
    search runs on the grid padded with a one-cell wall and flattened row by
    row with `stride` = 2 * width + 1, so that the flat offset between two
    cells of the grid names exactly one (row, column) offset (see
    `_heuristic_table`). `neighbours` holds, for every padded cell, the
    (flat offset, cost) of each move onto an open cell, in `_MOVES` order:
    cells with the same 8-cell neighbourhood share one tuple, a blocked
    cell keeps the moves out of it, and the wall and the padding beyond
    it, which no search enters, have none. `nearest_open` keeps the
    snapped cell of each cell it has been asked about; and `component`
    reads the 8-connected component labels of the open cells
    (`_component_labels`), built on first use.
    """

    def __init__(self, blocked: np.ndarray):
        h, w = blocked.shape
        self.blocked = blocked
        self.stride = 2 * w + 1
        free = np.zeros((h + 2, w + 2), dtype=np.uint8)
        free[1:-1, 1:-1] = ~blocked
        pattern = np.zeros((h + 2, self.stride), dtype=np.uint8)
        for bit, (dr, dc, _) in enumerate(_MOVES):
            pattern[1:-1, 1 : w + 1] |= free[1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc] << bit
        moves = _move_sets(self.stride)
        self.neighbours = [moves[p] for p in pattern.ravel().tolist()]
        self._snapped: dict[tuple[int, int], tuple[int, int] | None] = {}
        self._labels: np.ndarray | None = None

    def nearest_open(self, cell: tuple[int, int]) -> tuple[int, int] | None:
        if cell not in self._snapped:
            self._snapped[cell] = _nearest_open(self.blocked, cell)
        return self._snapped[cell]

    def component(self, cell: tuple[int, int]) -> int:
        """The component label of an open cell. A* moves to any of the 8
        neighbors of a cell with no corner rule, so it finds a path between
        two open cells exactly when their labels are equal."""
        if self._labels is None:
            self._labels = _component_labels(~self.blocked)
        return int(self._labels[int(cell[0]) * self.blocked.shape[1] + int(cell[1])])


@functools.lru_cache(maxsize=8)
def _move_sets(stride: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """For each 8-bit pattern whose bit i marks move i of `_MOVES` as open,
    the (flat offset, cost) of the open moves at row stride `stride`."""
    moves = [(dr * stride + dc, cost) for dr, dc, cost in _MOVES]
    return tuple(tuple(m for bit, m in enumerate(moves) if p >> bit & 1) for p in range(256))


@functools.lru_cache(maxsize=8)
def _hypot_rows(h: int, w: int) -> tuple[tuple[float, ...], ...]:
    """math.hypot(r, c) for 0 <= r < h, 0 <= c < w, one tuple per r."""
    return tuple(tuple(math.hypot(r, c) for c in range(w)) for r in range(h))


@functools.lru_cache(maxsize=8)
def _heuristic_table(h: int, w: int) -> tuple[tuple[float, ...], int]:
    """math.hypot of every (row, column) offset between two cells of an
    h x w grid, flat with row stride 2 * w + 1, and the index `centre` of
    the zero offset: offset (dr, dc) sits at centre + dr * (2 * w + 1) + dc,
    and dr * (2 * w + 1) + dc is the flat offset of the two cells in a
    `_PlanningGrid`.

    Row dr holds row |dr| of `_hypot_rows` read outward from column 0 in
    both directions, so the table shares its float objects.
    """
    lines = [row[:0:-1] + row for row in _hypot_rows(h, w + 1)]
    table: list[float] = []
    for dr in range(1 - h, h):
        table += lines[abs(dr)]
    return tuple(table), (h - 1) * (2 * w + 1) + w


def _astar(grid: _PlanningGrid, start: tuple[int, int], goal: tuple[int, int]):
    """8-connected A* from start to goal cell of a planning grid; the
    (row, col) path, or None.

    Each expansion reads the cell's open moves from `grid.neighbours`, so a
    move needs no bounds or wall check, and the heuristic of a cell from
    the shape's `_heuristic_table` at its flat offset from the goal. Ties
    in f are broken by push order.
    """
    stride, neighbours = grid.stride, grid.neighbours
    heur, centre = _heuristic_table(*grid.blocked.shape)
    g = [math.inf] * len(neighbours)
    came = [-1] * len(neighbours)
    closed = bytearray(len(neighbours))
    src = (int(start[0]) + 1) * stride + int(start[1]) + 1
    dst = (int(goal[0]) + 1) * stride + int(goal[1]) + 1
    shift = centre - dst
    g[src] = 0.0
    counter = 0
    heap = [(heur[src + shift], 0, src)]
    while heap:
        _, _, cur = heapq.heappop(heap)
        if closed[cur]:
            continue
        if cur == dst:
            path = [cur]
            while came[cur] >= 0:
                cur = came[cur]
                path.append(cur)
            return [(i // stride - 1, i % stride - 1) for i in reversed(path)]
        closed[cur] = 1
        base = g[cur]
        for offset, cost in neighbours[cur]:
            nxt = cur + offset
            cand = base + cost
            if cand < g[nxt]:
                g[nxt] = cand
                came[nxt] = cur
                counter += 1
                heapq.heappush(heap, (cand + heur[nxt + shift], counter, nxt))
    return None


def resample_polyline(points: np.ndarray, step: float) -> np.ndarray:
    """Points at fixed arc-length spacing along a polyline (endpoints kept).

    Target s lies on the first segment j whose end cum[j + 1] is not below
    s (the last segment at most), at t = (s - cum[j]) / len[j], or t = 0 on
    a zero-length segment.
    """
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
    j = np.searchsorted(cum[1:-1], targets)
    t = np.divide(targets - cum[j], lens[j], out=np.zeros(n + 1), where=lens[j] != 0)
    return points[j] + t[:, None] * seg[j]


def _route(world: World, start: Pose2, goal: Pose2) -> tuple[np.ndarray, float] | None:
    """One plan's grid search: the points to smooth (the start, the centers
    of the A* path's cells, the goal) and the clearance the cells keep, or
    None when no path exists. The search prefers footprint + one cell +
    `_SAFETY_MARGIN` of clearance and retries at footprint + one cell."""
    grid2 = world.grid2d()
    for margin in (_SAFETY_MARGIN, 0.0):
        clearance = _FOOTPRINT_RADIUS + grid2.resolution + margin
        grid = world.planning_grid(clearance)
        s_cell = grid.nearest_open(_to_cell(grid2, start.x, start.y))
        g_cell = grid.nearest_open(_to_cell(grid2, goal.x, goal.y))
        if s_cell is None or g_cell is None or grid.component(s_cell) != grid.component(g_cell):
            continue
        cells = _astar(grid, s_cell, g_cell)
        if cells is not None:
            res, (ox, oy) = grid2.resolution, grid2.origin
            pts = [(start.x, start.y)]
            pts += [(ox + c * res, oy + r * res) for r, c in cells]
            pts.append((goal.x, goal.y))
            return np.asarray(pts), clearance
    return None


def oracle_plans(requests) -> list[PoseTrajectory | UnreachableError]:
    """Expert paths for a batch of (world, start, goal) requests: per
    request, in order, its `PoseTrajectory`, or an `UnreachableError` when
    start and goal are not connected at either clearance.

    Each request is searched on its own (`_route`: inflated-grid A*). Its
    points are then shortcut-smoothed: from the start, each kept point i
    jumps to the farthest point j >= i + 2 whose straight segment from i
    keeps the route's clearance, else to i + 1. The routes advance
    together, one kept point each per round, and a round checks the
    candidates j of every route still smoothing with one `_segments_clear`
    call per world and clearance. The kept points are
    resampled at `_MAX_STEP`; headings follow the local direction of
    travel, and the first pose is the exact start."""
    routes = [_route(*request) for request in requests]
    keep = {r: [0] for r, route in enumerate(routes) if route is not None}
    live = list(keep)
    while live:
        groups: dict[tuple[int, float], list[int]] = {}
        for r in live:
            groups.setdefault((id(requests[r][0]), routes[r][1]), []).append(r)
        for members in groups.values():
            world, clearance = requests[members[0]][0], routes[members[0]][1]
            at = [keep[r][-1] for r in members]
            candidates = [routes[r][0][i + 2 :] for r, i in zip(members, at)]
            counts = [len(c) for c in candidates]
            starts = np.repeat([routes[r][0][i] for r, i in zip(members, at)], counts, axis=0)
            clear = np.flatnonzero(_segments_clear(world.dist_field(), starts, np.concatenate(candidates),
                                                   clearance)).tolist()
            # each route's candidates are the run [end - count, end) of the segments; it
            # jumps to the last clear one, else one point on
            end = 0
            for r, i, count in zip(members, at, counts):
                end += count
                last = bisect.bisect_left(clear, end) - 1
                found = last >= 0 and clear[last] >= end - count
                keep[r].append(i + 2 + clear[last] - (end - count) if found else i + 1)
        live = [r for r in live if keep[r][-1] < len(routes[r][0]) - 1]
    plans = []
    for r, (_, start, _) in enumerate(requests):
        if routes[r] is None:
            plans.append(UnreachableError("start and goal are not connected at this clearance"))
            continue
        dense = resample_polyline(routes[r][0][keep[r]], _MAX_STEP).tolist()
        rows = [start.as_tuple()]
        for (px, py), (x, y) in zip(dense, dense[1:]):
            dx, dy = x - px, y - py
            rows.append((x, y, math.atan2(dy, dx) if (dx or dy) else rows[-1][2]))
        plans.append(PoseTrajectory(rows))
    return plans


def oracle_plan(world: World, start: Pose2, goal: Pose2) -> PoseTrajectory:
    """The expert path from start to goal, `oracle_plans` on one request.
    Raises UnreachableError when start and goal are not connected."""
    (plan,) = oracle_plans([(world, start, goal)])
    if isinstance(plan, UnreachableError):
        raise plan
    return plan


def _nearest_index(xy: np.ndarray, current: Pose2, lowest: int) -> int:
    """Index of the row of `xy` (N, 2+) nearest to the current pose among
    the rows from `lowest` on; the first such row on a tie."""
    d = np.hypot(xy[lowest:, 0] - current.x, xy[lowest:, 1] - current.y)
    return lowest + int(np.argmin(d))


def _arc_lengths(xy: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each row of the polyline `xy` (N, 2+), from 0."""
    seg = np.hypot(*np.diff(xy[:, :2], axis=0).T)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _lookahead_index(cum: np.ndarray, nearest: int, lookahead: float) -> int:
    """The lookahead rule on cumulative arc lengths `cum`: the first index
    from `nearest` on whose arc length is at least `lookahead` beyond the
    nearest's, the last index when none is. `cum` never decreases, so one
    binary search finds it; an earlier index it finds ties with `nearest`."""
    k = int(np.searchsorted(cum, cum[nearest] + lookahead))
    return min(max(k, nearest), len(cum) - 1)


# --- navigation loop ---------------------------------------------------------

@dataclass
class NavConfig:
    """What a caller sets of one navigation episode. planner: "model" or
    "oracle"; fallback: true or false (the expert, following its path,
    replaces colliding plans); fix_every: an integer >= 1, the executed steps
    between global fixes. Finite and >= 0, per step: wheel_trans_sigma,
    exec_trans_sigma (fractions of the step length), wheel_rot_sigma,
    imu_sigma, exec_rot_sigma (rad). The loop's other settings are module
    constants; the expert re-plans only on events (see `_ExpertPath`)."""

    fix_every: int = 20
    wheel_trans_sigma: float = 0.02
    wheel_rot_sigma: float = 0.01
    imu_sigma: float = 0.005
    exec_trans_sigma: float = 0.02
    exec_rot_sigma: float = 0.01
    planner: str = "model"
    fallback: bool = True

    def __post_init__(self):
        check_fields(self, SimError, "an integer >= 1", "fix_every")
        check_fields(self, SimError, "finite and >= 0", "wheel_trans_sigma", "wheel_rot_sigma",
                     "imu_sigma", "exec_trans_sigma", "exec_rot_sigma")
        check_fields(self, SimError, "true or false", "fallback")
        if self.planner not in ("model", "oracle"):
            raise SimError(f"planner must be 'model' or 'oracle', got {self.planner!r}")


@dataclass
class EpisodeReport:
    success: bool
    reason: str  # reached | localization-fail | timeout | stuck
    fallback_count: int = 0
    planner_calls: int = 0
    collision_count: int = 0
    path_length: float = 0.0  # driven, by the true pose
    mean_velocity: float = 0.0
    final_error: float = math.inf
    expert_length: float = 0.0  # of the expert path from the start; 0 before it is planned

    def to_jsonable(self) -> dict:
        """The fields in order; an infinite final error (never measured) is None."""
        doc = asdict(self)
        if math.isinf(self.final_error):
            doc["final_error"] = None
        return doc


def observations_at(world: World, pose: Pose2):
    """Noiseless landmark observations from the nearest landmark-bearing node
    within 6 m, the first in id order on a tie.

    The landmark-bearing nodes are read from the map's sighting table, which
    `register_landmark` and `merge_covisible` drop, so a sighting changed
    through them is seen on the next call; each distance is `math.hypot` of
    the node's planar offset."""
    table = world.map.sightings()
    x, y = pose.x, pose.y
    d = list(map(math.hypot, [a - x for a in table.x], [b - y for b in table.y]))
    nearest = min(d, default=math.inf)
    if nearest > 6.0:
        return []
    landmarks = world.map.landmarks
    node = world.map.nodes[table.ids[d.index(nearest)]]
    return [
        LandmarkObservation(landmarks[lid].category, dict(landmarks[lid].visual_attributes))
        for lid in sorted(node.landmark_ids)
    ]


def _global_fix(world: World, true_pose: Pose2, radius: float) -> Pose2 | None:
    obs = observations_at(world, true_pose)
    if not obs:
        return None
    result = localize(
        obs, QueryContext(pose=true_pose), world.map, make_ground_truth_oracle(radius), "nearest"
    )
    return result.estimated_pose if result.confidence > 0 else None


def _nearest_node(topo: TopoMap, pose: Pose2) -> str:
    """The node nearest to the pose in the plane, the first in id order on a tie."""
    index = topo.node_index()
    return index.ids[int(np.argmin(index.planar_distances(pose.x, pose.y)))]


_MAX_TURN = 0.5  # rad per executed step


def _split_action(a, max_step: float) -> list[tuple[float, float, float]]:
    """The executed steps (dx, dy, dtheta) of one action (dx, dy, dtheta):
    its translation, clipped to `max_step`, and its turn, wrapped to
    (-pi, pi], split into n = ceil(|turn| / _MAX_TURN) equal shares (n >= 1).
    The first step carries the translation and one share; the rest rotate in
    place, so the steps compose to the clipped action."""
    dx, dy = a[0], a[1]
    norm = math.hypot(dx, dy)
    if norm > max_step:
        dx, dy = dx * (max_step / norm), dy * (max_step / norm)
    turn = wrap_angle(float(a[2]))
    n = max(1, math.ceil(abs(turn) / _MAX_TURN))
    share = turn / n
    return [(dx, dy, share)] + [(0.0, 0.0, share)] * (n - 1)


class _ExpertPath:
    """The expert path an episode follows, and its progress index on it.

    A cycle the expert drives is three steps. `advance` moves the index to
    the path pose nearest the estimate within 2 * `_EXECUTE_STEPS` poses
    ahead of it, so the index never moves back, and says whether the path
    must be re-planned from the estimate to the goal, which happens on two
    events only: the estimate is farther than `_SAFETY_MARGIN` from the
    nearest pose, or no pose is left ahead of it. The expert phase
    (`_expert_phase`) plans all of a cycle's re-plans at once and hands
    each its path (`follow`). `actions` then returns the increments from
    the estimate to the next `_EXECUTE_STEPS` poses. `episode` names the
    episode in the debug records.
    """

    def __init__(self, goal: Pose2, path: PoseTrajectory, episode: int = 0):
        self.goal, self.episode = goal, episode
        self.rows, self.index = path.as_array(), 0

    def advance(self, est: Pose2) -> bool:
        """Move the index to the estimate; True when the path must be re-planned."""
        self.index = _nearest_index(self.rows[: self.index + 2 * _EXECUTE_STEPS + 1], est, self.index)
        x, y, _ = self.rows[self.index]
        off = math.hypot(x - est.x, y - est.y)
        if off > _SAFETY_MARGIN or self.index == len(self.rows) - 1:
            log.debug("episode %d: expert re-plans on %s, %.3f m from the path", self.episode,
                      "deviation" if off > _SAFETY_MARGIN else "path end", off)
            return True
        return False

    def follow(self, path: PoseTrajectory, est: Pose2) -> None:
        """Follow a path re-planned from the estimate, from its start; a
        path of one pose becomes the step from the estimate to the goal."""
        if len(path) < 2:
            path = PoseTrajectory([est.as_tuple(), self.goal.as_tuple()])
        self.rows, self.index = path.as_array(), 0

    def actions(self, est: Pose2) -> list[tuple[float, float, float]]:
        """The increments (dx, dy, dtheta) from the estimate to the first
        following pose and from each following pose to the next, as
        `relative_pose` computes them."""
        following = self.rows[self.index + 1 : self.index + 1 + _EXECUTE_STEPS].tolist()
        return [relative_xyt(*a, *b) for a, b in zip([est.as_tuple()] + following, following)]


class _LearnedPlanner:
    """The learned planner's control cycle on the node path to the goal
    (the goal appended), whose rows and arc lengths are built once.

    A cycle is two calls around the plan, which `_plan_phase` samples,
    encodes and checks for every planning episode at once: `subgoal`
    moves the progress index to the nearest row from the last one on, so it
    never moves back, takes the subgoal with one binary search of the arc
    lengths (`_lookahead_index`) and builds one `Pose2` for the subgoal and
    one for the subgoal in the ego frame, which it returns; `review` takes
    the plan's actions, one row of the sampler's array, and its collision
    verdict, and counts the call and the fallback.
    """

    def __init__(self, model: VectorFieldModel, path: PoseTrajectory, fallback: bool):
        self.model, self.path, self.fallback = model, path, fallback
        self.xy = path.as_array()
        self.cum = _arc_lengths(self.xy)
        self.progress = 0

    def subgoal(self, est: Pose2) -> Pose2:
        """The plan's subgoal at the estimate, in the ego frame."""
        self.progress = _nearest_index(self.xy, est, self.progress)
        return relative_pose(est, self.path[_lookahead_index(self.cum, self.progress, _LOOKAHEAD)])

    def review(self, actions: np.ndarray, collides: bool, report: EpisodeReport):
        """The plan's first `_EXECUTE_STEPS` actions, or None when the plan
        collides and `fallback` hands the cycle to the expert."""
        report.planner_calls += 1
        if collides and self.fallback:
            report.fallback_count += 1
            return None
        return actions[:_EXECUTE_STEPS].tolist()


@dataclass
class EpisodeState:
    """An episode between two control cycles; `_lock_step` runs the next cycle.

    The true and estimated poses are those at the end of the last cycle.
    `learned` is unset when the expert drives every cycle. `step_lengths` and
    `true_xy` hold the length and the true position of every executed step.
    `episode` is the episode's index in its suite, for the debug records.
    Once `done`, `report` is final.
    """

    world: World
    goal: Pose2
    config: NavConfig
    rng: np.random.Generator
    true_pose: Pose2
    est_pose: Pose2
    expert: _ExpertPath
    learned: _LearnedPlanner | None
    budget: int
    report: EpisodeReport
    best_goal_dist: float
    executed: int = 0
    stall: int = 0
    done: bool = False
    step_lengths: list[float] = field(default_factory=list)
    true_xy: list[tuple[float, float]] = field(default_factory=list)
    episode: int = 0

    def goal_distance(self) -> float:
        return math.hypot(self.true_pose.x - self.goal.x, self.true_pose.y - self.goal.y)


def _lock_step(states: list[EpisodeState]) -> None:
    """One control cycle of every live episode of `states`, in three phases;
    `run_episode` runs it on one episode.

    Episodes whose budget is spent or whose true pose is within the goal
    tolerance end first (`state.done` is set and the report filled in).
    Plan: `_plan_phase` samples one plan for every remaining episode the
    learned planner drives, with one occupancy encoding and one collision
    lookup per world. Expert: `_expert_phase` moves every episode the
    expert drives this cycle, the oracle's and the fallbacks, along its
    path, re-plans the paths that need it with one `oracle_plans` call, and
    ends an episode stuck when its re-plan finds no path. Execute: each
    remaining episode runs its cycle's steps as `_execute` sets out, in the
    order of `states`, and ends there when progress stalls. The episodes
    share one model, and each draws only from its own rng, so an episode's
    draws do not depend on the episodes it runs beside. The random draws of
    an episode's cycle come in this order: the learned planner's x0, one
    `standard_normal` draw of 3n values, when it plans; then the noise, one
    `standard_normal` draw of 7 values per executed step, which
    `_cycle_noise` scales to the values one `rng.normal` call of (steps, 7)
    would give, bit for bit. The expert draws nothing. An
    episode that ends before its execute phase draws nothing more in it."""
    for state in states:
        if not state.done and (state.executed >= state.budget
                               or state.goal_distance() <= _GOAL_TOLERANCE):
            _end_episode(state)
    live = [state for state in states if not state.done]
    planned = iter(_plan_phase([state for state in live if state.learned is not None]))
    rows = [next(planned) if state.learned is not None else None for state in live]
    _expert_phase([state for state, r in zip(live, rows) if r is None])
    for state, r in zip(live, rows):
        if not state.done:
            _execute(state, r if r is not None else state.expert.actions(state.est_pose))


def _plan_phase(states: list[EpisodeState]) -> list[list | None]:
    """Each learned episode's actions for this cycle, in the order of
    `states`: the plan's first `_EXECUTE_STEPS` actions, or None when the
    plan falls back.

    The field work is done once per world: the episodes are grouped by
    world, and each group's estimates are encoded with one
    `occupancy_features` call. `condition_vectors` lays each episode's
    subgoal (`_LearnedPlanner.subgoal`), velocity (the last executed step's
    length) and encoding out as one row of a (B, c) array, and one
    `plan_sample` call draws every episode's x0 from its own rng, in
    the order of `states`, and integrates all plans in one Euler loop. One
    `plans_collide` call per group then gives each plan its collision
    verdict, and each plan is counted on its own row
    (`_LearnedPlanner.review`)."""
    if not states:
        return []
    groups: dict[int, list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault(id(state.world), []).append(i)
    goals = [state.learned.subgoal(state.est_pose) for state in states]
    velocities = [(state.step_lengths[-1] if state.step_lengths else 0.0, 0.0) for state in states]
    starts = np.array([state.est_pose.as_tuple() for state in states])
    occupancy = np.empty((len(states), OCCUPANCY_FEATURES))
    for members in groups.values():
        world = states[members[0]].world
        occupancy[members] = occupancy_features(world.grid2d(), starts[members], world.phi())
    conditions = condition_vectors(goals, velocities, occupancy)
    actions, poses = plan_sample(states[0].learned.model, conditions, _EULER_STEPS,
                                 [state.rng for state in states], starts)
    collides = np.empty(len(states), dtype=bool)
    for members in groups.values():
        collides[members] = plans_collide(poses[members], states[members[0]].world.dist_field(),
                                          _FOOTPRINT_RADIUS)
    return [state.learned.review(a, c, state.report) for state, a, c in zip(states, actions, collides)]


def _expert_phase(states: list[EpisodeState]) -> None:
    """Each episode's expert path moved along for this cycle
    (`_ExpertPath.advance`), in the order of `states`, then every path that
    needs it re-planned from its episode's estimate to its goal by one
    `oracle_plans` call; an episode whose re-plan finds no path ends stuck."""
    replans = [state for state in states if state.expert.advance(state.est_pose)]
    if not replans:
        return
    paths = oracle_plans([(state.world, state.est_pose, state.goal) for state in replans])
    for state, path in zip(replans, paths):
        if isinstance(path, UnreachableError):
            state.report.reason = "stuck"
            _end_episode(state)
        else:
            state.expert.follow(path, state.est_pose)


def _cycle_noise(rng: np.random.Generator, steps: list, config: NavConfig) -> list[tuple]:
    """The noise of a cycle's executed `steps`: one row per step, in the
    order of the steps, of the executed x, y and heading noise, the wheel
    x, y and heading noise and the IMU noise.

    All of it is one `rng.standard_normal` draw of 7 values per step, and
    each value z is scaled as `0.0 + s * z`. A translation column's sigma s
    is the planned step length times its sigma, plus 0.0, and a rotation
    column's is the length times 0.0, plus its sigma: the scale array that
    `rng.normal(0.0, scale)` would take. That call computes `loc + scale *
    z` per value in C order from the same stream, so the rows are its
    values bit for bit; with `loc` 0.0 a fused multiply-add rounds the same,
    whatever the build."""
    z = rng.standard_normal(7 * len(steps)).tolist()
    et, wt = config.exec_trans_sigma, config.wheel_trans_sigma
    er, wr, imu = config.exec_rot_sigma, config.wheel_rot_sigma, config.imu_sigma
    noise = []
    for k, (dx, dy, _) in enumerate(steps):
        length = math.hypot(dx, dy)
        e, w, r = length * et + 0.0, length * wt + 0.0, length * 0.0
        z0, z1, z2, z3, z4, z5, z6 = z[7 * k : 7 * k + 7]
        noise.append((0.0 + e * z0, 0.0 + e * z1, 0.0 + (r + er) * z2, 0.0 + w * z3,
                      0.0 + w * z4, 0.0 + (r + wr) * z5, 0.0 + (r + imu) * z6))
    return noise


def _execute(state: EpisodeState, rows: list) -> None:
    """The execute phase of one episode's cycle: the planned `rows` (the
    learned plan's, or the expert's), split into executed steps
    (`_split_action`), their noise drawn at once (`_cycle_noise`) and the
    steps run one by one; the episode ends stuck when progress stalls.
    Noise rows past a goal-reached break go unused, and the episode ends
    there.

    Both poses are plain floats: each step composes the executed increment
    onto the true pose and the fused wheel + IMU increment onto the
    estimate (`compose_xyt`, `fuse_sources`), each increment's heading
    wrapped first, as a `Pose2` wraps it. Every `fix_every`-th step asks for
    a global fix at the true pose, which re-anchors the estimate's position
    and keeps its heading. A cycle builds one `Pose2` per global fix and two
    at its end, for the true pose and the estimate."""
    config, report = state.config, state.report
    est = state.est_pose
    steps = [s for row in rows for s in _split_action(row, _MAX_STEP)]
    noise = _cycle_noise(state.rng, steps, config)
    tx, ty, tth = state.true_pose.as_tuple()
    ex, ey, eth = est.as_tuple()
    gx, gy = state.goal.x, state.goal.y
    for (sx, sy, sth), (n0, n1, n2, n3, n4, n5, n6) in zip(steps, noise):
        dx, dy, dth = sx + n0, sy + n1, sth + n2
        tx, ty, tth = compose_xyt(tx, ty, tth, dx, dy, wrap_angle(dth))
        fx, fy, fth = fuse_sources((dx + n3, dy + n4, dth + n5), dth + n6, None)
        ex, ey, eth = compose_xyt(ex, ey, eth, fx, fy, wrap_angle(fth))
        state.executed += 1
        length = math.hypot(dx, dy)
        state.step_lengths.append(length)
        report.path_length += length
        state.true_xy.append((tx, ty))
        if state.executed % config.fix_every == 0:
            fix = _global_fix(state.world, Pose2(tx, ty, tth), _FIX_ORACLE_RADIUS)
            if fix is not None:
                log.debug("episode %d step %d: global fix accepted, jump %.3f m", state.episode,
                          state.executed, math.hypot(fix.x - ex, fix.y - ey))
                # position re-anchored to the map, heading kept from odometry
                ex, ey = fix.x, fix.y
            else:
                log.debug("episode %d step %d: global fix rejected", state.episode, state.executed)
        if math.hypot(tx - gx, ty - gy) <= _GOAL_TOLERANCE:
            break
    state.true_pose, state.est_pose = Pose2(tx, ty, tth), Pose2(ex, ey, eth)

    d = state.goal_distance()
    if d < state.best_goal_dist - 0.05:
        state.best_goal_dist = d
        state.stall = 0
    else:
        state.stall += _EXECUTE_STEPS
        if state.stall >= max(80, 4 * config.fix_every):
            report.reason = "stuck"
            _end_episode(state)


def _end_episode(state: EpisodeState) -> EpisodeState:
    """Fill in the report's outcome, collisions, final error and velocity."""
    report = state.report
    if state.true_xy:
        # one lookup for every executed true pose; it never steers the loop
        clearance = sample_bilinear(state.world.dist_field(), state.true_xy)
        report.collision_count = int(np.count_nonzero(clearance < _FOOTPRINT_RADIUS))
    d = state.goal_distance()
    if d <= _GOAL_TOLERANCE:
        report.success, report.reason = True, "reached"
    report.final_error = d
    log.debug("episode %d ends %s after %d steps, %d collisions, %.3f m from the goal",
              state.episode, report.reason, state.executed, report.collision_count,
              report.final_error)
    report.mean_velocity = (
        float(np.mean(state.step_lengths)) / _MAX_STEP if state.step_lengths else 0.0
    )
    state.done = True
    return state


def _require_free(world: World, pose: Pose2, what: str) -> None:
    """Raise SimError unless the pose lies in a free cell of the world's grid."""
    if not _in_cells(world.grid, pose.x, pose.y):
        raise SimError(f"{what} pose {list(pose.as_tuple())} lies outside the world's grid")
    grid2 = world.grid2d()
    if grid2.values[_to_cell(grid2, pose.x, pose.y)]:
        raise SimError(f"{what} pose {list(pose.as_tuple())} lies in an occupied cell")


def _start_episode(world: World, goal, config: NavConfig, model: VectorFieldModel | None,
                   seed: int, start: Pose2 | None, episode: int) -> tuple | EpisodeReport:
    """An episode's set-up up to its reference path (see `run_episode`): its
    rng, true start, goal pose, estimate and learned planner, or its final
    report when it ends before the planning step."""
    rng = np.random.default_rng(seed)
    if start is not None:
        _require_free(world, start, "start")
    else:
        sx, sy = world.start_xy[int(rng.integers(len(world.start_xy)))]
        start = Pose2(sx, sy, float(rng.uniform(-math.pi, math.pi)))

    if isinstance(goal, str):
        try:
            _, goal_pose = goal_localize(goal.split(), world.map, start)
        except GoalNotFoundError:
            return EpisodeReport(False, "localization-fail")
    else:
        goal_pose = goal
    _require_free(world, goal_pose, "goal")

    fix = _global_fix(world, start, radius=0.51)
    if fix is None:
        log.debug("episode %d: first global fix rejected", episode)
        return EpisodeReport(False, "localization-fail")
    log.debug("episode %d: first global fix accepted, %.3f m from the true pose", episode,
              math.hypot(fix.x - start.x, fix.y - start.y))
    # localization recovers position; heading comes from the robot's own frame
    est_pose = Pose2(fix.x, fix.y, start.theta)

    start_node = _nearest_node(world.map, est_pose)
    goal_node = _nearest_node(world.map, goal_pose)
    learned = None
    if config.planner == "model" and model is not None:
        node_path = world.map.shortest_path(start_node, goal_node)
        if not node_path:
            return EpisodeReport(False, "stuck")
        rows = [world.map.nodes[nid].pose.planar().as_tuple() for nid in node_path]
        rows.append(goal_pose.as_tuple())
        learned = _LearnedPlanner(model, PoseTrajectory(rows), config.fallback)
    elif not world.map.connected(start_node, goal_node):
        return EpisodeReport(False, "stuck")
    return rng, start, goal_pose, est_pose, learned


def _set_up(episodes: list[tuple]) -> list[EpisodeState | EpisodeReport]:
    """Every (world, goal, config, model, seed, start) episode of `episodes`
    set up in order (`_start_episode`), its index naming it, then the
    reference paths of all that reach the planning step from one
    `oracle_plans` call. A reference path is the expert's first path and
    sets the step budget; an episode without one ends stuck. It starts at
    the true start, where the first fix puts the estimate when the start is
    a node; an estimate off it makes the first cycle re-plan."""
    setups = [_start_episode(*episode, i) for i, episode in enumerate(episodes)]
    planning = [i for i, setup in enumerate(setups) if not isinstance(setup, EpisodeReport)]
    refs = oracle_plans([(episodes[i][0], setups[i][1], setups[i][2]) for i in planning])
    for i, ref in zip(planning, refs):
        if isinstance(ref, UnreachableError):
            setups[i] = EpisodeReport(False, "stuck")
            continue
        world, _, config = episodes[i][:3]
        rng, start, goal, est_pose, learned = setups[i]
        expert_length = ref.path_length()
        setups[i] = EpisodeState(
            world, goal, config, rng, start, est_pose, _ExpertPath(goal, ref, i), learned,
            budget=max(60, int(_BUDGET_FACTOR * expert_length / _MAX_STEP)),
            report=EpisodeReport(False, "timeout", expert_length=expert_length),
            best_goal_dist=math.hypot(start.x - goal.x, start.y - goal.y),
            episode=i,
        )
    return setups


def _run_episodes(setups: list[EpisodeState | EpisodeReport]) -> list[EpisodeReport]:
    """Run every set-up episode to its end in lock-step (`_lock_step`) and
    return each one's report, in order."""
    live = [s for s in setups if isinstance(s, EpisodeState)]
    while live:
        _lock_step(live)
        live = [state for state in live if not state.done]
    return [s.report if isinstance(s, EpisodeState) else s for s in setups]


def run_episode(
    world: World,
    goal,
    config: NavConfig,
    model: VectorFieldModel | None = None,
    seed: int = 0,
    start: Pose2 | None = None,
) -> EpisodeReport:
    """One navigation episode; `goal` is a Pose2 or an instruction string.

    Set-up draws the start point and heading from the episode's rng when no
    start is given, then locates the goal, takes a first global fix, checks
    that the start and goal nodes are connected (the learned planner takes
    the node path itself) and plans the expert's reference path, which sets
    the step budget; control cycles (`_lock_step`) run until the episode ends.
    This is `eval_suite`'s loop on one episode.
    Raises SimError when a given start or the goal pose lies outside the
    world's grid cells or in an occupied one."""
    return _run_episodes(_set_up([(world, goal, config, model, seed, start)]))[0]


def _spl(report: EpisodeReport) -> float:
    """Success weighted by path length (Anderson et al., arXiv 1807.06757):
    the expert length over the larger of it and the driven length, on
    success; 0 on failure."""
    if not report.success:
        return 0.0
    longer = max(report.path_length, report.expert_length)
    return report.expert_length / longer if longer > 0 else 1.0


def _suite_episodes(worlds: list[World], n_episodes: int, master_seed: int):
    """The suite's episodes as (world, goal, seed, start), round-robin over
    the worlds: each episode's seed comes from the master seed, and its
    start and goal points, at least 3 m apart where the world has such a
    pair, and its start heading from the episode's seed."""
    rng = np.random.default_rng(master_seed)
    seeds = rng.integers(0, 2**31 - 1, size=n_episodes)
    episodes = []
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
        episodes.append((world, Pose2(*world.start_xy[gi], 0.0), int(seeds[i]), start))
    return episodes


def _summarize(reports: list[EpisodeReport]) -> dict:
    """A suite's outcome: the episodes' rates and means, and every report."""
    n_episodes = len(reports)
    planner_eps = sum(1 for r in reports if r.planner_calls > 0)
    fallback_eps = sum(1 for r in reports if r.fallback_count > 0)
    return {
        "episodes": n_episodes,
        "success_rate": sum(r.success for r in reports) / n_episodes,
        "fallback_rate": (fallback_eps / planner_eps) if planner_eps else 0.0,
        "collision_rate": sum(1 for r in reports if r.collision_count > 0) / n_episodes,
        "safe_success_rate": sum(r.success and r.collision_count == 0 for r in reports) / n_episodes,
        "spl": sum(_spl(r) for r in reports) / n_episodes,
        "mean_velocity": float(np.mean([r.mean_velocity for r in reports])),
        "reports": [r.to_jsonable() for r in reports],
    }


def eval_suite(
    worlds: list[World],
    n_episodes: int,
    config: NavConfig,
    model: VectorFieldModel | None = None,
    master_seed: int = 0,
) -> dict:
    """Run seeded episodes round-robin over the worlds and aggregate the outcome.

    Every episode is set up first, in order, as `run_episode` sets one up,
    and one `oracle_plans` call plans all their reference paths (`_set_up`).
    Then all live episodes advance one control cycle at a time in lock-step
    (`_lock_step`): a plan phase samples every learned episode's plan in one
    batched Euler loop, each x0 drawn from its episode's own rng; an expert
    phase re-plans every expert path that needs it with one `oracle_plans`
    call; and an execute phase runs each episode's steps (`_execute`). Each
    episode draws what it would draw alone, x0 first and then the cycle's noise,
    and a plan's floats do not depend on its batch (`planner.sample`), so each
    episode's report equals that of the episode run alone.
    Raises SimError on no worlds or fewer than one episode."""
    if n_episodes < 1:
        raise SimError("need at least one episode")
    if not worlds:
        raise SimError("need at least one world")
    episodes = [(world, goal, config, model, seed, start)
                for world, goal, seed, start in _suite_episodes(worlds, n_episodes, master_seed)]
    return _summarize(_run_episodes(_set_up(episodes)))


# --- expert dataset and planner evaluation -----------------------------------

def expert_windows(worlds: list[World], samples_per_world: int, n_actions: int = 16, seed: int = 0):
    """Expert windows: oracle paths between random start points cut into
    n-action chunks. Yields (world index, pose window of n + 1 poses,
    condition at the window's first pose), samples_per_world per world at
    most, in world order. Subgoals follow the loop's lookahead rule on the
    expert path.

    Each world draws start/goal pairs from one shared rng, two `integers`
    draws a pair, and skips pairs under 2 m apart and unreachable ones; it
    gives up after samples_per_world * 20 pairs. The pairs are planned in
    batches, one `oracle_plans` call each, and the windows are cut in pair
    order. A batch is sized from the windows per drawn pair seen so far, so
    few pairs are planned past the one that completes the world. When that
    pair comes partway through a batch, the rng is rewound to its state
    just after that pair's draws, so every world draws the stream that
    planning one pair at a time draws. All windows of a world are encoded
    with one `occupancy_features` call once the world is complete.
    Raises SimError when n_actions < 1 or samples_per_world < 0."""
    if n_actions < 1:
        raise SimError(f"a window needs at least one action, got n_actions={n_actions}")
    if samples_per_world < 0:
        raise SimError(f"samples per world must be >= 0, got {samples_per_world}")
    rng = np.random.default_rng(seed)
    stride = max(1, n_actions // 2)
    drawn = offered = 0  # pairs drawn and windows their paths offered, over all worlds so far
    for wi, world in enumerate(worlds):
        n, limit = len(world.start_xy), samples_per_world * 20
        guard = 0
        cuts = []  # (path, its rows, its arc lengths, first row) of each window
        while len(cuts) < samples_per_world and guard < limit:
            need = samples_per_world - len(cuts)
            # the pairs that the windows per drawn pair so far say the world
            # still needs, rounded up, but no more than all drawn so far (one
            # at first), so a batch at most doubles the pairs seen
            estimate = -(-need * drawn // offered) if offered else drawn
            batch = min(limit - guard, max(1, min(drawn, estimate)))
            requests, drawn_to = [], []  # per request: the pairs drawn up to it, the rng state after
            for k in range(1, batch + 1):
                si, gi = rng.integers(n), rng.integers(n)
                s_xy, g_xy = world.start_xy[int(si)], world.start_xy[int(gi)]
                if math.hypot(g_xy[0] - s_xy[0], g_xy[1] - s_xy[1]) < 2.0:
                    continue
                heading = math.atan2(g_xy[1] - s_xy[1], g_xy[0] - s_xy[0])
                requests.append((world, Pose2(*s_xy, heading), Pose2(*g_xy, heading)))
                drawn_to.append((k, rng.bit_generator.state))
            guard += batch
            drawn += batch
            for path, (k, state) in zip(oracle_plans(requests), drawn_to):
                if isinstance(path, UnreachableError):
                    continue
                arr = path.as_array()
                cum = _arc_lengths(arr)
                starts = range(0, len(arr) - n_actions - 1, stride)
                offered += len(starts)
                cuts += [(path, arr, cum, lo) for lo in starts[:need]]
                need = samples_per_world - len(cuts)
                if need == 0:
                    # the pairs drawn past this one are the next world's draws
                    rng.bit_generator.state = state
                    drawn -= batch - k
                    break
        windows = [PoseTrajectory(arr[lo : lo + n_actions + 1]) for _, arr, _, lo in cuts]
        occupancy = occupancy_features(world.grid2d(), [w[0].as_tuple() for w in windows], world.phi())
        for (path, arr, cum, lo), window, occ in zip(cuts, windows, occupancy):
            start_pose = window[0]
            subgoal = path[_lookahead_index(cum, _nearest_index(arr, start_pose, 0), _LOOKAHEAD)]
            prev_len = (
                math.hypot(arr[lo][0] - arr[lo - 1][0], arr[lo][1] - arr[lo - 1][1])
                if lo > 0
                else 0.0
            )
            yield wi, window, PlanningCondition(relative_pose(start_pose, subgoal), (prev_len, 0.0), occ)


def _masked_fields(pairs) -> list[Grid]:
    """Each (field, trajectory) pair's field masked along the trajectory at
    `esdf.MASK_ALPHA` and `esdf.MASK_DILATION`. The masked fields are views
    of one `field_buffer`, back to back in order, so that training reads
    them in place (`esdf.stack_fields`)."""
    buffer = field_buffer(sum(phi.values.size for phi, _ in pairs))
    masked, used = [], 0
    for phi, trajectory in pairs:
        view = buffer[used : used + phi.values.size].reshape(phi.values.shape)
        used += phi.values.size
        masked.append(mask_esdf(phi, make_mask(trajectory, phi, MASK_DILATION), MASK_ALPHA, out=view))
    return masked


def build_planning_dataset(
    worlds: list[World], samples_per_world: int, n_actions: int = 16, seed: int = 0
) -> list[PlanningSample]:
    """The expert windows as training samples, each with its field masked at
    `esdf.MASK_ALPHA` and `esdf.MASK_DILATION` (`_masked_fields`). The
    windows come from `expert_windows`: their pairs are planned in
    `oracle_plans` batches from the draws that planning one pair at a time
    makes, pairs drawn past the last one a world needs are rewound, and each
    world's windows are encoded with one `occupancy_features` call. Raises
    SimError when n_actions < 1 or samples_per_world < 0."""
    windows = list(expert_windows(worlds, samples_per_world, n_actions, seed))
    fields = _masked_fields([(worlds[wi].phi(), window) for wi, window, _ in windows])
    return [
        PlanningSample(
            poses_to_actions(window),
            cond,
            window[0],
            phi,
            os.path.join(worlds[wi].source_dir, "grid.occ") if worlds[wi].source_dir else None,
            window.to_jsonable(),
            wi,
        )
        for (wi, window, cond), phi in zip(windows, fields)
    ]


def save_dataset(dataset: list[PlanningSample], path) -> None:
    """JSON-lines export; needs grid_ref/gt_poses metadata on every sample. A
    relative grid_ref is rewritten relative to the file, as `load_dataset` reads it."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w") as fh:
        for s in dataset:
            if s.grid_ref is None or s.gt_poses is None:
                raise SimError("dataset sample lacks grid_ref/gt_poses metadata")
            fh.write(
                json.dumps(
                    {
                        "actions": [[float(v) for v in row] for row in s.actions],
                        "condition": s.condition.to_jsonable(),
                        "grid_ref": s.grid_ref if os.path.isabs(s.grid_ref)
                        else os.path.relpath(s.grid_ref, base),
                        "gt_poses": s.gt_poses,
                    }
                )
                + "\n"
            )


def load_dataset(path):
    """Rebuild PlanningSamples from a JSON-lines file, recomputing masked fields
    per referenced grid. Every record's actions are rows of three finite
    numbers, and its action count and condition length are the first
    record's. The fields are masked once every record is read, at
    `esdf.MASK_ALPHA` and `esdf.MASK_DILATION` as `build_planning_dataset`
    masks them (`_masked_fields`)."""
    base = os.path.dirname(os.path.abspath(path))
    phis: dict[str, Grid] = {}
    dataset, pairs = [], []  # the samples, and the field and poses each is masked from
    shape = None  # (actions, condition entries) of the first record
    for line_no, line in enumerate(read_text(path, SimError).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            grid_ref = rec["grid_ref"]
            full = grid_ref if os.path.isabs(grid_ref) else os.path.join(base, grid_ref)
            gt = PoseTrajectory.from_jsonable(rec["gt_poses"])
            if not isinstance(rec["actions"], list) or not all(map(is_finite_triple, rec["actions"])):
                raise ValueError("actions must be a list of rows of three finite numbers")
            actions = np.array(rec["actions"], dtype=float)
            condition = PlanningCondition.from_jsonable(rec["condition"])
            start = gt[0]
        except (IndexError, KeyError, TypeError, ValueError) as e:
            raise SimError(f"{path}:{line_no}: malformed dataset record: {e!r}") from e
        record_shape = (len(actions), condition.vector().size)
        shape = shape or record_shape
        if record_shape != shape:
            raise SimError(f"{path}:{line_no}: {record_shape[0]} actions and a condition of "
                           f"{record_shape[1]} entries, but the first record has {shape[0]} and {shape[1]}")
        if full not in phis:
            phis[full] = signed_esdf(load_occupancy(full))
        dataset.append(PlanningSample(actions, condition, start, None, grid_ref, rec["gt_poses"]))
        pairs.append((phis[full], gt))
    for sample, phi in zip(dataset, _masked_fields(pairs)):
        sample.phi = phi
    return dataset


def _rollouts(model: VectorFieldModel, condition: PlanningCondition, start: Pose2, dist: Grid,
              k: int, rng):
    """k rollouts from start under one condition, sampled as one batch, the
    loop's sampler with k rows that share `rng`, and checked together by the
    loop's check, `plans_collide`: (collided flags, mean step lengths)."""
    actions, poses = plan_sample(model, [condition] * k, _EULER_STEPS, [rng] * k, [start.as_tuple()] * k)
    mean_step = np.hypot(actions[..., 0], actions[..., 1]).mean(axis=1)
    return plans_collide(poses, dist, _FOOTPRINT_RADIUS), mean_step


def evaluate_planner(
    model: VectorFieldModel,
    worlds: list[World],
    n_conditions_per_world: int = 10,
    rollouts_per_condition: int = 3,
    seed: int = 0,
) -> dict:
    """Open-loop rollout evaluation: collision rate and normalized velocity over
    expert-window conditions, with each condition's rollouts run together.
    The conditions come from `expert_windows`, planned in `oracle_plans`
    batches from the one-pair-at-a-time draws (pairs drawn past the last
    one a world needs are rewound), each world's windows encoded with one
    `occupancy_features` call. Footprint, step length and Euler steps are
    the loop's constants."""
    rng = np.random.default_rng(seed + 1)
    collided = 0
    velocities = []
    dists = [w.dist_field() for w in worlds]
    for wi, window, cond in expert_windows(worlds, n_conditions_per_world, model.n_actions, seed):
        flags, mean_step = _rollouts(model, cond, window[0], dists[wi], rollouts_per_condition, rng)
        collided += int(flags.sum())
        velocities.extend(mean_step / _MAX_STEP)
    total = len(velocities)
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
    map_path = os.path.join(world_dir, "map.json")
    topo = TopoMap.load(map_path)
    topo.validate().require(map_path, SimError)
    meta_path = os.path.join(world_dir, "world.json")
    meta = read_json(meta_path, SimError)
    try:
        start_xy = meta["start_xy"]
        seed = meta.get("seed", 0)
    except (AttributeError, KeyError, TypeError) as e:
        raise SimError(f"{meta_path}: malformed world file: {e!r}") from e
    if not isinstance(start_xy, list) or not start_xy:
        raise SimError(f"{meta_path}: start_xy must be a non-empty list of [x, y] points, got {start_xy!r}")
    for p in start_xy:
        if not (isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p)) and _in_cells(grid, *p)):
            raise SimError(f"{meta_path}: start point {p!r} is not two finite numbers [x, y] inside the grid")
        if grid.values[_to_cell(grid, *p)]:
            raise SimError(f"{meta_path}: start point {p!r} lies in an occupied cell")
    return World(grid, topo, [(float(x), float(y)) for x, y in start_xy], seed, source_dir=str(world_dir))
