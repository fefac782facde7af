import dataclasses
import functools
import hashlib
import heapq
import importlib
import json
import logging
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astra_nav import geom, localization, odometry, planner, sim
from astra_nav.errors import MapError
from astra_nav.esdf import Grid, SamplePointError, make_mask, mask_esdf, sample_bilinear
from astra_nav.geom import (
    Pose2,
    PoseTrajectory,
    compose_xyt,
    poses_from_actions,
    poses_to_actions,
    relative_pose,
    relative_xyt,
)
from astra_nav.odometry import SensorIncrement, fuse_increment, fuse_sources
from astra_nav.topomap import Landmark


def compose(a, b):
    """a (+) b on `Pose2`s; b's heading is wrapped as a `Pose2` holds it."""
    return Pose2(*compose_xyt(*a.as_tuple(), *b.as_tuple()))


@pytest.fixture(scope="module")
def world():
    return sim.generate_world(0, 24)


@pytest.fixture(scope="module")
def saved_world(world, tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    sim.save_world(world, out)
    return sim.load_world(out)


def test_world_round_trip(world, saved_world):
    # the loaded grid is the compressed 2-D occupancy of the generated volume
    assert world.grid.values.ndim == 3
    np.testing.assert_array_equal(saved_world.grid.values, world.grid2d().values)
    assert saved_world.grid.resolution == world.grid.resolution
    assert saved_world.grid.origin == world.grid.origin
    assert saved_world.map == world.map
    assert saved_world.start_xy == [tuple(p) for p in world.start_xy]
    assert saved_world.seed == world.seed
    np.testing.assert_array_equal(saved_world.phi().values, world.phi().values)


def test_dataset_round_trip(saved_world, tmp_path):
    data = sim.build_planning_dataset([saved_world], 4, n_actions=8, seed=1)
    assert len(data) == 4
    path = tmp_path / "data.jsonl"
    sim.save_dataset(data, path)
    loaded = sim.load_dataset(path)
    assert len(loaded) == len(data)
    for a, b in zip(data, loaded):
        np.testing.assert_array_equal(b.actions, a.actions)
        np.testing.assert_array_equal(b.condition.vector(), a.condition.vector())
        assert b.gt_poses == a.gt_poses
        assert b.grid_ref == a.grid_ref
        assert b.start == a.start
        np.testing.assert_array_equal(b.phi.values, a.phi.values)


def test_dataset_from_relatively_addressed_worlds_reads_back(world, tmp_path, monkeypatch):
    # grid_ref is relative to the working directory in memory and to the file's
    # directory on disk
    monkeypatch.chdir(tmp_path)
    sim.save_world(world, "w1")
    data = sim.build_planning_dataset([sim.load_world("w1")], 3, n_actions=8, seed=1)
    assert data and {s.grid_ref for s in data} == {os.path.join("w1", "grid.occ")}
    os.mkdir("out")
    sim.save_dataset(data, os.path.join("out", "data.jsonl"))
    loaded = sim.load_dataset(os.path.join("out", "data.jsonl"))
    assert {s.grid_ref for s in loaded} == {os.path.join("..", "w1", "grid.occ")}
    for a, b in zip(data, loaded, strict=True):
        np.testing.assert_array_equal(b.phi.values, a.phi.values)


def assert_packed(dataset):
    """Every field is a view of one flat buffer, back to back in sample order;
    returns the buffer."""
    buffer = dataset[0].phi.values.base
    assert buffer.ndim == 1 and buffer.dtype == float
    used = 0
    for s in dataset:
        assert s.phi.values.base is buffer and s.phi.values.flags.c_contiguous
        assert s.phi.values.ctypes.data == buffer.ctypes.data + 8 * used
        used += s.phi.values.size
    return buffer


def test_dataset_fields_are_packed_in_one_buffer(saved_world, world, tmp_path, monkeypatch):
    worlds = [saved_world, world]
    data = sim.build_planning_dataset(worlds, 4, n_actions=8, seed=1)
    assert {s.world_index for s in data} == {0, 1}
    assert assert_packed(data).size == sum(s.phi.values.size for s in data)
    path = tmp_path / "data.jsonl"
    sim.save_dataset([s for s in data if s.world_index == 0], path)
    # loading masks at the module's settings, here patched away from the built ones
    monkeypatch.setattr(sim, "MASK_ALPHA", 0.3)
    monkeypatch.setattr(sim, "MASK_DILATION", 0.5)
    loaded = sim.load_dataset(path)
    assert assert_packed(loaded).size == sum(s.phi.values.size for s in loaded)
    for s in loaded:
        phi = saved_world.phi()
        gt = PoseTrajectory.from_jsonable(s.gt_poses)
        assert s.phi.values.tobytes() == mask_esdf(phi, make_mask(gt, phi, 0.5), 0.3).values.tobytes()


def test_save_dataset_needs_grid_ref(world, tmp_path):
    # a generated world has no file behind it, so its samples carry no grid_ref
    data = sim.build_planning_dataset([world], 1, n_actions=8, seed=1)
    assert data[0].grid_ref is None
    with pytest.raises(sim.SimError):
        sim.save_dataset(data, tmp_path / "data.jsonl")


def test_eval_suite_is_deterministic(world):
    config = sim.NavConfig(planner="oracle")
    runs = [json.dumps(sim.eval_suite([world], 4, config, master_seed=3)) for _ in range(2)]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["episodes"] == 4


# --- references: the scalar expert planner that the batched one replaced --------------

def ref_segment_points(dist, a, b):
    """Points every half-cell along a->b, both ends included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.hypot(*(b - a)))
    n = max(2, int(length / (dist.resolution / 2.0)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    return a[None, :] + ts[:, None] * (b - a)[None, :]


def ref_segment_clear(dist, a, b, clearance):
    """All points sampled every half-cell along a->b keep at least `clearance`."""
    return bool((sample_bilinear(dist, ref_segment_points(dist, a, b)) >= clearance).all())


def ref_astar(blocked, start, goal):
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
        for dr, dc, cost in sim._MOVES:
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


def astar(blocked, start, goal):
    """sim._astar on a fresh planning grid."""
    return sim._astar(sim._PlanningGrid(blocked), start, goal)


def ref_nearest_open(blocked, cell):
    """The open cell nearest to `cell`, ties to the lowest (row, col); None if none is open."""
    if not blocked[cell]:
        return cell
    open_cells = np.argwhere(~blocked)
    if len(open_cells) == 0:
        return None
    d2 = (open_cells[:, 0] - cell[0]) ** 2 + (open_cells[:, 1] - cell[1]) ** 2
    order = np.lexsort((open_cells[:, 1], open_cells[:, 0], d2))
    return tuple(open_cells[order[0]])


def ref_resample_polyline(points, step):
    """resample_polyline walking the segments in a Python loop."""
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


@functools.lru_cache(maxsize=4)
def ref_hypot_table(h, w):
    return np.array([[math.hypot(r, c) for c in range(w)] for r in range(h)])


def ref_heuristic(h, w, goal):
    """The heuristic list gathered from a math.hypot table and converted with tolist()."""
    table = ref_hypot_table(h, w)
    gr, gc = divmod(goal, w)
    rows = np.abs(np.arange(h) - gr)
    cols = np.abs(np.arange(w) - gc)
    return table[rows[:, None], cols[None, :]].ravel().tolist()


def ref_oracle_plan(world, start, goal, footprint_radius=0.3, step=0.25, safety_margin=0.25):
    """oracle_plan with one clearance check per candidate, farthest first."""
    grid2 = world.grid2d()
    dist = world.dist_field()
    cells = None
    clearance = footprint_radius + grid2.resolution
    for margin in ((safety_margin, 0.0) if safety_margin > 0 else (0.0,)):
        clearance = footprint_radius + grid2.resolution + margin
        blocked = dist.values < clearance
        s_cell = ref_nearest_open(blocked, sim._to_cell(grid2, start.x, start.y))
        g_cell = ref_nearest_open(blocked, sim._to_cell(grid2, goal.x, goal.y))
        if s_cell is None or g_cell is None:
            continue
        cells = ref_astar(blocked, s_cell, g_cell)
        if cells is not None:
            break
    if cells is None:
        raise sim.UnreachableError("start and goal are not connected at this clearance")
    res, (ox, oy) = grid2.resolution, grid2.origin
    pts = [(start.x, start.y)]
    pts += [(ox + c * res, oy + r * res) for r, c in cells]
    pts.append((goal.x, goal.y))
    pts = np.asarray(pts)
    keep = [0]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not ref_segment_clear(dist, pts[i], pts[j], clearance):
            j -= 1
        keep.append(j)
        i = j
    dense = ref_resample_polyline(pts[keep], step)
    poses = [start]
    for k in range(1, len(dense)):
        dx, dy = dense[k] - dense[k - 1]
        heading = math.atan2(dy, dx) if (dx or dy) else poses[-1].theta
        poses.append(Pose2(dense[k][0], dense[k][1], heading))
    return PoseTrajectory([p.as_tuple() for p in poses])


def ref_build_lattice_map(grid2, dist, node_clearance, link_radius=2.0):
    """_build_lattice_map checking every node pair on its own; None for a
    lattice of fewer than 4 nodes or a disconnected one."""
    topo = sim.TopoMap()
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
                topo.add_node(sim.MapNode(nid, sim._pose6(x, y), image_ref=f"frame-{idx:04d}.jpg"))
                positions[nid] = (x, y)
                idx += 1
    ids = sorted(positions)
    for i, a in enumerate(ids):
        ax, ay = positions[a]
        for b in ids[i + 1 :]:
            bx, by = positions[b]
            if math.hypot(bx - ax, by - ay) >= link_radius:
                continue
            if ref_segment_clear(dist, (ax, ay), (bx, by), node_clearance):
                topo.add_edges([(a, b, sim._pose6(bx - ax, by - ay))])
    if len(topo.nodes) < 4 or not ref_node_graph_connected(topo):
        return None
    return topo


def ref_node_graph_connected(topo):
    """Whether the map's nodes form one graph, by a stack search over its edges."""
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


def ref_place_landmarks(world_map, grid2, count, rng):
    """_place_landmarks ranking every node for one landmark at a time by a
    sort of (distance, id) pairs."""
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
    node_xy = np.array([world_map.nodes[nid].pose.position[:2] for nid in node_ids])
    for placed, k in enumerate(order[:count]):
        r, c = cells[k]
        x = grid2.origin[0] + c * grid2.resolution
        y = grid2.origin[1] + r * grid2.resolution
        dists = sorted(zip(np.linalg.norm(node_xy - (x, y), axis=1).tolist(), node_ids))
        visible = [nid for d, nid in dists if d <= 2.5][:3] or [dists[0][1]]
        category = sim._CATEGORIES[int(rng.integers(len(sim._CATEGORIES)))]
        lm = Landmark(
            f"lm-{placed:03d}",
            category,
            {
                "color": sim._COLORS[int(rng.integers(len(sim._COLORS)))],
                "material": sim._MATERIALS[int(rng.integers(len(sim._MATERIALS)))],
            },
            sim._FUNCTIONS[category],
        )
        for nid in visible:
            world_map.register_landmark(nid, lm)


def ref_connected(free):
    """The stack-based flood fill that the dilation replaced."""
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


@pytest.fixture(scope="module")
def worlds48():
    return [sim.generate_world(s, 48) for s in (0, 1, 2)]


def test_segments_clear_matches_scalar_reference(world):
    dist = world.dist_field()
    res = dist.resolution
    extent = np.array([dist.width, dist.height]) * res
    rng = np.random.default_rng(0)
    a = rng.uniform(-0.5, extent + 0.5, size=(300, 2))
    b = rng.uniform(-0.5, extent + 0.5, size=(300, 2))
    b[:40] = a[:40]  # zero length
    angle = rng.uniform(-math.pi, math.pi, size=40)
    b[40:80] = a[40:80] + res * np.stack([np.cos(angle), np.sin(angle)], axis=1)  # one cell
    b[80:100] = a[80:100] + (res, 0.0)  # one cell along a row
    for clearance in (0.0, 0.3, 0.55, 1.0):
        want = [ref_segment_clear(dist, p, q, clearance) for p, q in zip(a, b)]
        assert sim._segments_clear(dist, a, b, clearance).tolist() == want
        # one start point shared by every segment, as oracle_plan and the lattice map call it
        assert sim._segments_clear(dist, a[0], b, clearance).tolist() == [
            ref_segment_clear(dist, a[0], q, clearance) for q in b
        ]
    mixed = sim._segments_clear(dist, a, b, 0.3)
    assert mixed.any() and not mixed.all()


def test_segments_clear_samples_reference_points(world, monkeypatch):
    # one sample_bilinear call, at exactly the points the scalar check sampled
    dist = world.dist_field()
    rng = np.random.default_rng(1)
    # one segment for each sample count n = 2..100; for some n, (n - 1) * (1 / (n - 1)) < 1
    lengths = (np.arange(99) + 0.5) * dist.resolution / 2.0
    angle = rng.uniform(-math.pi, math.pi, size=99)
    a = rng.uniform(0.0, 6.0, size=(99, 2))
    b = a + lengths[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    a, b = np.concatenate([a, a[:5]]), np.concatenate([b, a[:5]])
    calls = []

    def recording(phi, pts):
        calls.append(pts)
        return sample_bilinear(phi, pts)

    monkeypatch.setattr(sim, "sample_bilinear", recording)
    sim._segments_clear(dist, a, b, 0.3)
    want = np.concatenate([ref_segment_points(dist, p, q) for p, q in zip(a, b)])
    assert len(calls) == 1
    assert calls[0].tobytes() == want.tobytes()
    empty = sim._segments_clear(dist, a[0], np.zeros((0, 2)), 0.3)
    assert empty.dtype == bool and empty.shape == (0,)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segments_clear_matches_reference_on_random_fields(data):
    # random fields and segments: zero-length ones, ones of n = 2 points, ones
    # reaching outside the grid, one start shared by all; a NaN point is refused
    h, w = data.draw(st.integers(1, 10), label="h"), data.draw(st.integers(1, 10), label="w")
    res = data.draw(st.sampled_from([0.1, 0.25, 0.5]), label="res")
    origin = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), label="origin")
    field = data.draw(st.lists(st.floats(-1.0, 2.0), min_size=h * w, max_size=h * w), label="field")
    dist = Grid(np.array(field).reshape(h, w), res, origin)
    coord = st.floats(-2.0, 0.5 + res * max(h, w)) | st.sampled_from([0.0, res, 2.5 * res])
    point = st.tuples(coord, coord)
    a = np.array(data.draw(st.lists(point, min_size=1, max_size=30), label="a"))
    b = a + np.array(data.draw(st.lists(point, min_size=len(a), max_size=len(a)), label="offset"))
    kinds = data.draw(st.lists(st.sampled_from(["any", "zero", "short"]), min_size=len(a),
                               max_size=len(a)), label="kinds")
    for m, kind in enumerate(kinds):
        if kind == "zero":
            b[m] = a[m]
        elif kind == "short":  # shorter than half a cell: n = 2
            b[m] = a[m] + (b[m] - a[m]) / max(1.0, np.hypot(*(b[m] - a[m])) / (0.49 * res))
    clearance = data.draw(st.floats(-0.5, 1.5) | st.sampled_from(field), label="clearance")
    m = data.draw(st.integers(0, len(a) - 1), label="nan segment")
    nan_end, axis = data.draw(st.sampled_from([(a, 0), (a, 1), (b, 0), (b, 1)]), label="nan at")
    for start in (a, a[0]):  # one start per segment, or one shared by all
        want = [ref_segment_clear(dist, p, q, clearance) for p, q in zip(np.broadcast_to(start, b.shape), b)]
        assert sim._segments_clear(dist, start, b, clearance).tolist() == want
    nan_end[m, axis] = math.nan
    with np.errstate(invalid="ignore"), pytest.raises(SamplePointError):
        sim._segments_clear(dist, a, b, clearance)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_astar_matches_dict_reference(data):
    h = data.draw(st.integers(1, 12), label="h")
    w = data.draw(st.integers(1, 12), label="w")
    cells = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w), label="blocked")
    blocked = np.array(cells, dtype=bool).reshape(h, w)
    cell = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
    start, goal = data.draw(cell, label="start"), data.draw(cell, label="goal")
    assert astar(blocked, start, goal) == ref_astar(blocked, start, goal)


def test_astar_matches_dict_reference_on_open_grids():
    # open floors produce the most f ties, so the push-order tie-break decides the path
    rng = np.random.default_rng(3)
    for density in (0.0, 0.05, 0.2):
        blocked = rng.random((30, 40)) < density
        for _ in range(10):
            start = (int(rng.integers(30)), int(rng.integers(40)))
            goal = (int(rng.integers(30)), int(rng.integers(40)))
            assert astar(blocked, start, goal) == ref_astar(blocked, start, goal)


def test_oracle_plan_matches_greedy_reference(worlds48):
    rng = np.random.default_rng(11)
    for world in worlds48:
        free = np.argwhere(~world.grid2d().values) * world.grid.resolution
        for _ in range(7):
            # free-space points near walls exercise the nearest-open-cell snap
            s_xy, g_xy = free[rng.integers(len(free), size=2)][:, ::-1]
            start = Pose2(*s_xy, float(rng.uniform(-math.pi, math.pi)))
            goal = Pose2(*g_xy, 0.0)
            try:
                want = ref_oracle_plan(world, start, goal)
            except sim.UnreachableError:
                with pytest.raises(sim.UnreachableError):
                    sim.oracle_plan(world, start, goal)
                continue
            got = sim.oracle_plan(world, start, goal)
            assert got.as_array().tobytes() == want.as_array().tobytes()


@pytest.mark.parametrize(
    "seed,size",
    [pytest.param(s, 48, id=str(s)) for s in (0, 1, 2)]
    + [pytest.param(s, 96, id=f"{s}-96") for s in (0, 1)],  # 96 is the benchmark's map size
)
def test_lattice_map_matches_pairwise_reference(monkeypatch, worlds48, seed, size):
    got = worlds48[seed] if size == 48 else sim.generate_world(seed, size)
    monkeypatch.setattr(sim, "_build_lattice_map", ref_build_lattice_map)
    want = sim.generate_world(seed, size).map.to_jsonable()
    assert got.map.to_jsonable() == want


# sha256 (see world_digest) of generate_world(seed, size), at the 0.25 m
# resolution, as the per-node link search built it; 0 at 160 has over 1000
# nodes, so its sorted ids ("n-100" < "n-1000" < "n-101") are not in lattice order
WORLD_DIGESTS = {
    (0, 48, 0.25): "091c4c3c49342ab8308490f235c3ed20fbf35fb60bd34f69383ed6384246c1a8",
    (1, 48, 0.25): "917ae4e0bd6303655182920e462990c49fa0d996e7b12de751f78ed460b90aa9",
    (2, 48, 0.25): "5f18bd622337b68e039369560a19f6310fc4c4bc10c6ed7ec40ba94f25c8cc0a",
    (3, 48, 0.25): "bd79a54d40a1a7a5d6dedff57c733dd75dadd28c6e1d314ba8ce072851fb04e6",
    (4, 48, 0.25): "48f4544a83172974dc66713bcabd793b9460957a8c3f9868d497891b1a8b94b7",
    (5, 48, 0.25): "24606ed6b79c840a2a748f16fa8afc4ccd9f242e72b93020736d480fe4b0c47e",
    (6, 48, 0.25): "b104cca10c464e767e4e1629200dc5a21a5fef5a12068046e9d59b2a969f9cb2",
    (7, 48, 0.25): "ec863a013256b26f9b62867d2df1b567a090a78059c6009a80ab6fdcbd2b95ac",
    (0, 96, 0.25): "9d7cfa68d65e8530db0a93d4af85834ad8b700fabc396a2bbc69a48651011aec",
    (1, 96, 0.25): "46f5eea588b5d3c89bea18e553419aa59f1f8512d1293cdceddac19c65eabc82",
    (2, 96, 0.25): "3d95f8d0a60df5afa0559c3501537f18e06bb7d3cebecb49ead5bfe4e5acd527",
    (3, 96, 0.25): "7277f16544ff540458d8d7b0d5a0992bc77761436caca973397c82a71989e0f2",
    (4, 96, 0.25): "a3758bbe833c976b0f7fecc94cf404582db5103386dbc02a3a2c0b66416d3e29",
    (5, 96, 0.25): "2590d8db67f64f1449a17fcd3dec4d529665912e64bb5816fa280a256e362000",
    (6, 96, 0.25): "b22e550fe6a40927da60919033ad4842d67592cce708816575e00777d850729f",
    (7, 96, 0.25): "48ab58764f8f3ddaf1e7f33c73ee2ef5770c80ab5689a163be55c541b45e3bcd",
    (0, 160, 0.25): "b446b89dfce52863389252d2c9eef6241711af24aedd4174388fed91b4876658",
}


def world_digest(world) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(world.map.to_jsonable()).encode())
    h.update(json.dumps(list(world.map.edges)).encode())  # insertion order
    h.update(json.dumps([list(world.grid.values.shape), world.grid.resolution]).encode())
    h.update(world.grid.values.tobytes())
    h.update(json.dumps(world.start_xy).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed,size,resolution", sorted(WORLD_DIGESTS),
                         ids=[f"{s}-{n}-{r}" for s, n, r in sorted(WORLD_DIGESTS)])
def test_worlds_match_pinned_digests(seed, size, resolution):
    world = sim.generate_world(seed, size)
    assert world.grid.resolution == resolution
    assert world_digest(world) == WORLD_DIGESTS[seed, size, resolution]


def ref_scatter_blocks(size, obstacle_density, rng):
    """The block loop that re-sums the whole interior after every block."""
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
    return occ2


@pytest.mark.parametrize("size", [*range(3, 13), 48])
def test_scatter_blocks_counts_as_the_re_summing_loop(size):
    # at sizes 3 and 4 blocks reach the wall, whose cells the count must skip;
    # at size 3 the one interior cell is covered by the first block
    for density in (0.0, 0.05, 0.15, 0.3, 0.4):
        for seed in range(12):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sim._scatter_blocks(size, density, got_rng)
            want = ref_scatter_blocks(size, density, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_map_matches_pairwise_reference_on_random_grids(data):
    # random 0.25 m grids of rooms or scattered cells, with node clearances from
    # none (every free lattice point a node, every neighbor pair a link) up;
    # every pair under 2 m must be a lattice-neighbor pair
    h, w = data.draw(st.integers(8, 48), label="h"), data.draw(st.integers(8, 48), label="w")
    density = data.draw(st.floats(0.0, 0.4), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="rooms"):
        occ = sim._scatter_blocks(max(h, w), density, rng)[:h, :w]
    else:
        occ = rng.random((h, w)) < density
    clearance = data.draw(st.sampled_from([0.0, 0.1, sim._FOOTPRINT_RADIUS, 0.6]), label="clearance")
    grid2 = Grid(occ, sim._RESOLUTION)
    dist = planner.distance_field(grid2)
    got = sim._build_lattice_map(grid2, dist, clearance)
    want = ref_build_lattice_map(grid2, dist, clearance)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.to_jsonable() == want.to_jsonable()
        assert list(got.edges) == list(want.edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairs_connected_matches_graph_reference(data):
    # the lattice check: a graph of n > 0 nodes is connected iff every label is 0
    n = data.draw(st.integers(0, 12), label="n")
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    pairs = [(a, b) for a, b in data.draw(st.lists(pair, max_size=20), label="links") if a != b]
    topo = sim.TopoMap()
    for k in range(n):
        topo.add_node(sim.MapNode(f"n-{k:03d}", sim._pose6(k, 0.0)))
    topo.add_edges((f"n-{a:03d}", f"n-{b:03d}", sim._pose6(1.0, 0.0)) for a, b in pairs)
    i = np.array([a for a, _ in pairs], dtype=np.intp)
    j = np.array([b for _, b in pairs], dtype=np.intp)
    connected = n > 0 and not sim.node_components(n, i, j).any()
    assert connected == ref_node_graph_connected(topo)


def test_edge_ends_are_the_node_keys(worlds48):
    for world in worlds48:
        keys = {nid: nid for nid in world.map.nodes}
        for (a, b), edge in world.map.edges.items():
            assert edge.a is keys[edge.a] and edge.b is keys[edge.b]
            assert a is edge.a and b is edge.b


def counted_map_objects(monkeypatch):
    """Record every node, pose, `add_edges` call and edge the lattice map
    makes, and every map it returns."""
    counts = {"add_node": 0, "_pose6": 0, "add_edges": 0, "edges": 0}
    built = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(sim.TopoMap, "add_node")
    counting(sim, "_pose6")
    add_edges = sim.TopoMap.add_edges

    def counting_edges(topo, edges):
        edges = list(edges)
        counts["add_edges"] += 1
        counts["edges"] += len(edges)
        return add_edges(topo, edges)

    monkeypatch.setattr(sim.TopoMap, "add_edges", counting_edges)
    build = sim._build_lattice_map

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sim, "_build_lattice_map", recording)
    return counts, built


def test_rejected_candidate_builds_no_map_objects(monkeypatch):
    counts, built = counted_map_objects(monkeypatch)
    # seed 0 at 48 rejects its first candidate: its node graph is disconnected
    world = sim.generate_world(0, 48)
    assert len(built) == 2 and built[0] is None and built[1] is world.map
    assert counts["add_node"] == len(world.map.nodes)
    assert counts["add_edges"] == 1 and counts["edges"] == len(world.map.edges)
    # one pose per node and one per distinct link offset
    offsets = {e.relative_pose.position for e in world.map.edges.values()}
    assert counts["_pose6"] == len(world.map.nodes) + len(offsets)
    assert len({id(e.relative_pose) for e in world.map.edges.values()}) == len(offsets)


@pytest.mark.parametrize("rooms", [False, True], ids=["three-nodes", "two-rooms"])
def test_rejected_lattice_returns_none(monkeypatch, rooms):
    # lattice points every 4 cells; the border holds none
    occ = np.ones((12, 20) if rooms else (6, 16), dtype=bool)
    occ[1:-1, 1:-1] = False
    if rooms:
        occ[:, 9:11] = True  # a wall with no door
    grid2 = Grid(occ, 0.25)
    counts, _ = counted_map_objects(monkeypatch)
    assert sim._build_lattice_map(grid2, planner.distance_field(grid2), node_clearance=0.1) is None
    assert counts == {"add_node": 0, "_pose6": 0, "add_edges": 0, "edges": 0}
    if rooms:
        # with the wall gone, the same eight nodes form one graph
        occ[:, 9:11] = False
        topo = sim._build_lattice_map(grid2, planner.distance_field(grid2), node_clearance=0.1)
        assert len(topo.nodes) == 8 and counts["add_node"] == 8
        assert counts["add_edges"] == 1 and counts["edges"] == len(topo.edges)


@pytest.mark.parametrize("seed,size,landmarks,rejects", [
    (0, 24, 10, True), (2, 24, 10, False), (0, 24, 500, True),
    (0, 32, 10, True), (1, 32, 10, False),
    (0, 48, 10, True), (2, 48, 10, False),
    (1, 96, 10, False), (3, 96, 10, True),
])
def test_world_matches_per_link_and_per_landmark_references(monkeypatch, seed, size, landmarks,
                                                            rejects):
    got = sim.generate_world(seed, size, landmark_count=landmarks)
    built = []

    def ref_lattice(*args, **kwargs):
        built.append(ref_build_lattice_map(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sim, "_build_lattice_map", ref_lattice)
    monkeypatch.setattr(sim, "_place_landmarks", ref_place_landmarks)
    want = sim.generate_world(seed, size, landmark_count=landmarks)
    assert (None in built) == rejects
    assert got.map.to_jsonable() == want.map.to_jsonable()
    assert list(got.map.edges) == list(want.map.edges)
    assert got.start_xy == want.start_xy


@pytest.mark.parametrize("far", [False, True], ids=["first-three", "nearest"])
def test_landmark_nodes_at_equal_distance_rank_in_id_order(far):
    # one free cell borders the wall, at (0, 0); every node is as far from it as
    # every other, and the nodes enter the map out of id order
    grid2 = Grid(np.array([[False, True]]), 1.0)
    radius = 3.0 if far else 1.0  # beyond the 2.5 m sight range, or within it
    topo = sim.TopoMap()
    for nid, (x, y) in zip("dbca", [(radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius)]):
        topo.add_node(sim.MapNode(nid, sim._pose6(x, y)))
    want = sim.TopoMap.from_jsonable(topo.to_jsonable())
    sim._place_landmarks(topo, grid2, 5, np.random.default_rng(0))
    ref_place_landmarks(want, grid2, 5, np.random.default_rng(0))
    assert topo.to_jsonable() == want.to_jsonable()
    assert list(topo.landmarks) == ["lm-000"]
    assert topo.landmarks["lm-000"].node_ids == ({"a"} if far else {"a", "b", "c"})


def test_landmarks_are_at_most_one_per_wall_side_cell():
    world = sim.generate_world(0, 24, landmark_count=500)
    free = ~world.grid2d().values
    near_wall = np.zeros_like(free)
    near_wall[1:-1, 1:-1] = ~free[:-2, 1:-1] | ~free[2:, 1:-1] | ~free[1:-1, :-2] | ~free[1:-1, 2:]
    assert len(world.map.landmarks) == np.count_nonzero(free & near_wall) == 160


def test_generated_world_keeps_its_occupancy_and_distance_field(monkeypatch):
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(sim, "distance_field")
    counting(sim, "compress_grid")
    world = sim.generate_world(2, 48)  # its first candidate passes
    assert calls == ["distance_field"]
    dist = world.dist_field()
    assert calls == ["distance_field"]
    grid2 = sim.compress_grid(world.grid)
    assert np.array_equal(world.grid2d().values, grid2.values)
    want = planner.distance_field(grid2)
    assert np.array_equal(dist.values, want.values)
    assert (dist.resolution, dist.origin) == (want.resolution, want.origin)


def test_lattice_map_makes_two_lookups(world, monkeypatch):
    # one lookup places every node and one checks every link, whatever the map's size
    calls = []

    def counting(phi, pts):
        calls.append(len(pts))
        return sample_bilinear(phi, pts)

    monkeypatch.setattr(sim, "sample_bilinear", counting)
    topo = sim._build_lattice_map(world.grid2d(), world.dist_field(), node_clearance=0.3)
    assert len(calls) == 2
    assert len(topo.nodes) > 1 and topo.edges


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_connected_matches_flood_fill_reference(data):
    h = data.draw(st.integers(1, 20), label="h")
    w = data.draw(st.integers(1, 20), label="w")
    cells = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w), label="free")
    free = np.array(cells, dtype=bool).reshape(h, w)
    assert sim._connected(free) == ref_connected(free)


def test_connected_edge_cases():
    cases = [
        np.ones((1, 1), bool),
        np.zeros((1, 1), bool),
        np.ones((20, 20), bool),
        np.zeros((20, 20), bool),
        np.eye(7, dtype=bool),  # free cells touch only diagonally: one 8-connected component
        np.eye(7, dtype=bool)[::-1],
        np.indices((8, 9)).sum(axis=0) % 2 == 0,  # checkerboard
        np.kron(np.eye(3, dtype=bool), np.ones((2, 2), bool)),  # blocks joined at corners
        np.array([[1, 0, 1]], dtype=bool),  # two free cells a cell apart
        np.array([[1, 0, 0], [0, 0, 1]], dtype=bool),  # a knight's move apart
    ]
    # a serpentine corridor: the dilation needs one step per cell along it
    snake = np.zeros((9, 9), bool)
    snake[::2] = True
    snake[1::4, -1] = True
    snake[3::4, 0] = True
    cases += [snake, snake & ~np.eye(9, dtype=bool)]
    for free in cases:
        assert sim._connected(free) == ref_connected(free), free.astype(int)
    assert [sim._connected(free) for free in cases[4:10]] == [True, True, True, True, False, False]
    assert sim._connected(snake)


def test_connected_keeps_its_results_on_world_generation_grids(monkeypatch):
    # every free-space grid that generating worlds 0-5 at 96 and at 48 tests
    seen = []
    connected = sim._connected

    def recording(free):
        seen.append((free.copy(), connected(free)))
        return seen[-1][1]

    monkeypatch.setattr(sim, "_connected", recording)
    for size in (96, 48):
        for seed in range(6):
            sim.generate_world(seed, size)
    assert len(seen) == 19
    assert [got for _, got in seen] == [ref_connected(free) for free, _ in seen]


@pytest.fixture(scope="module")
def worlds0to7():
    return [sim.generate_world(s, 48) for s in range(8)]


def planning_grids(world):
    """The expert planner's grids of a world, at both clearances `oracle_plan` tries."""
    res = world.grid2d().resolution
    return [world.planning_grid(0.3 + res + margin) for margin in (sim._SAFETY_MARGIN, 0.0)]


def test_component_labels_decide_astar_reachability(worlds0to7):
    rng = np.random.default_rng(15)
    outcomes = {True: 0, False: 0}
    for world in worlds0to7:
        for grid in planning_grids(world):
            open_cells = [tuple(int(v) for v in c) for c in np.argwhere(~grid.blocked)]
            by_label = {}
            for cell in open_cells:
                by_label.setdefault(grid.component(cell), []).append(cell)
            pairs = [tuple(open_cells[i] for i in rng.integers(len(open_cells), size=2))
                     for _ in range(12)]
            # one pair into every other component, from the first one
            first = next(iter(by_label.values()))
            pairs += [(first[0], cells[len(cells) // 2]) for cells in by_label.values()]
            for start, goal in pairs:
                same = grid.component(start) == grid.component(goal)
                assert same == (sim._astar(grid, start, goal) is not None)
                outcomes[same] += 1
    assert outcomes[True] > 100 and outcomes[False] > 10


def walled_room():
    """A world whose inner room no path enters or leaves."""
    occ = np.zeros((30, 30), bool)
    occ[[0, -1]], occ[:, [0, -1]] = True, True
    occ[12:24, 12], occ[12:24, 23], occ[12, 12:24], occ[23, 12:24] = True, True, True, True
    return sim.World(Grid(occ, 0.25), sim.TopoMap(), [])


def test_oracle_plan_searches_only_within_one_component(worlds0to7, monkeypatch):
    searched = []
    astar = sim._astar
    plans = {"same": 0, "split": 0}

    def counting(grid, start, goal):
        assert any(grid is g for g in current)
        searched.append(grid.component(start) == grid.component(goal))
        return astar(grid, start, goal)

    monkeypatch.setattr(sim, "_astar", counting)
    rng = np.random.default_rng(16)
    for world in worlds0to7:
        current = planning_grids(world)
        res = world.grid2d().resolution
        # goals on open cells of every component at the preferred clearance
        grid = current[0]
        cells = np.argwhere(~grid.blocked)
        labels = np.array([grid.component(tuple(c)) for c in cells])
        goals = [cells[labels == lab][0] for lab in np.unique(labels)]
        goals += list(cells[rng.integers(len(cells), size=6)])
        starts = cells[rng.integers(len(cells), size=3)]
        for (sr, sc), (gr, gc) in ((s, g) for s in starts for g in goals):
            start, goal = Pose2(sc * res, sr * res, 0.0), Pose2(gc * res, gr * res, 0.0)
            split = grid.component((int(sr), int(sc))) != grid.component((int(gr), int(gc)))
            try:
                got = sim.oracle_plan(world, start, goal)
            except sim.UnreachableError as e:
                assert str(e) == "start and goal are not connected at this clearance"
                with pytest.raises(sim.UnreachableError):
                    ref_oracle_plan(world, start, goal)
                continue
            assert got.as_array().tobytes() == ref_oracle_plan(world, start, goal).as_array().tobytes()
            plans["split" if split else "same"] += 1
    assert searched and all(searched)
    assert plans["same"] > 50 and plans["split"] > 0

    # a walled-off room: no search at either clearance, the same error
    world = walled_room()
    current = planning_grids(world)
    searched.clear()
    with pytest.raises(sim.UnreachableError, match="^start and goal are not connected at this clearance$"):
        sim.oracle_plan(world, Pose2(1.0, 1.0, 0.0), Pose2(4.4, 4.4, 0.0))
    assert searched == []
    with pytest.raises(sim.UnreachableError):
        ref_oracle_plan(world, Pose2(1.0, 1.0, 0.0), Pose2(4.4, 4.4, 0.0))
    got = sim.oracle_plan(world, Pose2(4.0, 4.0, 0.0), Pose2(4.4, 4.6, 0.0))
    assert searched == [True]
    want = ref_oracle_plan(world, Pose2(4.0, 4.0, 0.0), Pose2(4.4, 4.6, 0.0))
    assert got.as_array().tobytes() == want.as_array().tobytes()


def test_oracle_plans_match_plans_one_at_a_time(worlds0to7):
    # mixed batches: worlds 0-7, both clearances, unreachable requests among them
    rng = np.random.default_rng(25)
    room = walled_room()
    requests = [(room, Pose2(1.0, 1.0, 0.0), Pose2(4.4, 4.4, 0.0))]
    for world in worlds0to7:
        free = np.argwhere(~world.grid2d().values) * world.grid.resolution
        for _ in range(6):
            # free-space points near walls fall back to the bare clearance
            s_xy, g_xy = free[rng.integers(len(free), size=2)][:, ::-1]
            requests.append((world, Pose2(*s_xy, float(rng.uniform(-math.pi, math.pi))), Pose2(*g_xy, 0.0)))
    requests.insert(20, (room, Pose2(4.4, 4.4, 0.0), Pose2(1.0, 1.0, 0.5)))
    requests.append((room, Pose2(4.0, 4.0, 0.0), Pose2(4.4, 4.6, 0.0)))
    clearances = [None if route is None else route[1] for route in (sim._route(*r) for r in requests)]
    assert clearances.count(None) == 2 and {0.8, 0.55} < set(clearances)
    order = rng.permutation(len(requests))
    for batch in ([], requests, [requests[k] for k in order], requests[:9], requests[-3:]):
        got = sim.oracle_plans(batch)
        assert len(got) == len(batch)
        for plan, request in zip(got, batch):
            try:
                want = ref_oracle_plan(*request)
            except sim.UnreachableError:
                assert type(plan) is sim.UnreachableError
                assert str(plan) == "start and goal are not connected at this clearance"
                with pytest.raises(sim.UnreachableError):
                    sim.oracle_plan(*request)
                continue
            assert plan.as_array().tobytes() == want.as_array().tobytes()
            assert plan.as_array().tobytes() == sim.oracle_plan(*request).as_array().tobytes()


def ref_evaluate_planner(model, worlds, n_conditions_per_world, rollouts_per_condition, seed,
                         footprint_radius=0.3, max_step=0.25, euler_steps=20):
    """Rollouts one at a time: a sample from the condition's start and a collision
    check of its poses each; returns the summary and every rollout's collision flag."""
    conditions = sim.build_planning_dataset(worlds, n_conditions_per_world, n_actions=model.n_actions,
                                            seed=seed)
    rng = np.random.default_rng(seed + 1)
    flags, velocities = [], []
    for cond_sample in conditions:
        dist = worlds[cond_sample.world_index].dist_field()
        for _ in range(rollouts_per_condition):
            (actions,), (poses,) = planner.sample(model, [cond_sample.condition], euler_steps, [rng],
                                                  [cond_sample.start.as_tuple()])
            flags.append(planner.collision_check(PoseTrajectory(poses), None, footprint_radius, dist))
            velocities.append(np.hypot(actions[:, 0], actions[:, 1]).mean() / max_step)
    summary = {
        "rollouts": len(flags),
        "collision_rate": sum(flags) / len(flags),
        "mean_velocity": float(np.mean(velocities)),
    }
    return summary, flags


@pytest.fixture(scope="module")
def eval_model(worlds48):
    data = sim.build_planning_dataset(worlds48, 8, seed=0)
    model, _ = planner.train(data, planner.TrainConfig(epochs=40, hidden=(32, 32), seed=0))
    return model


@pytest.mark.parametrize("heading", [0.7, -0.7, 0.3, 0.5, -0.5, 0.0, -0.0, 0.51, -1.6, math.pi, 9.0])
def test_split_action_turns_in_shares(heading):
    turn = math.remainder(heading, 2 * math.pi)
    for dx, dy in [(0.3, 0.4), (0.1, -0.05), (0.0, 0.0)]:
        steps = np.array(sim._split_action(np.array([dx, dy, heading]), 0.25))
        assert len(steps) == max(1, math.ceil(abs(turn) / 0.5))
        assert np.all(np.abs(steps[:, 2]) <= 0.5)
        assert not steps[1:, :2].any()  # only the first step translates
        # the steps compose to the action: translation clipped to 0.25, turn unclamped
        scale = min(1.0, 0.25 / math.hypot(dx, dy)) if dx or dy else 1.0
        got = Pose2()
        for step in steps:
            got = compose(got, Pose2(*step))
        assert abs(got.x - dx * scale) < 1e-12 and abs(got.y - dy * scale) < 1e-12
        assert abs(math.remainder(got.theta - heading, 2 * math.pi)) < 1e-12


@pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
def test_split_action_refuses_non_finite_turns(heading):
    # a non-finite turn is refused, never executed as some finite turn
    with pytest.raises(ValueError):
        sim._split_action(np.array([0.1, 0.0, heading]), 0.25)


class RecordingConfig:
    """Stands in for a config object and records the name of every field read."""

    def __init__(self, config):
        self.config = config
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.config, name)


def test_every_config_field_is_read(worlds48, eval_model):
    nav = RecordingConfig(sim.NavConfig(planner="model"))
    sim.eval_suite(worlds48, 3, nav, eval_model, 0)
    train = RecordingConfig(planner.TrainConfig(epochs=1, batch_size=4, hidden=(8,)))
    planner.train(sim.build_planning_dataset(worlds48[:1], 4, n_actions=4, seed=0), train)
    unread = {
        type(r.config).__name__: {f.name for f in dataclasses.fields(r.config)} - r.read
        for r in (nav, train)
    }
    assert unread == {"NavConfig": set(), "TrainConfig": set()}


@pytest.mark.parametrize("footprint", [0.05, 0.3])
@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_evaluate_planner_matches_sequential_rollouts(worlds48, eval_model, monkeypatch, seed, footprint):
    # batched rows round differently from single-row products (about 1e-15), so the
    # check is the same collision flag on every rollout and the same summary; the
    # footprint evaluate_planner reads is the loop's constant, patched here
    monkeypatch.setattr(sim, "_FOOTPRINT_RADIUS", footprint)
    want, want_flags = ref_evaluate_planner(eval_model, worlds48, 4, 6, seed, footprint)
    flags = []
    rollouts = sim._rollouts

    def recording(*args):
        collided, mean_step = rollouts(*args)
        flags.extend(collided.tolist())
        return collided, mean_step

    monkeypatch.setattr(sim, "_rollouts", recording)
    got = sim.evaluate_planner(eval_model, worlds48, 4, 6, seed=seed)
    assert flags == want_flags
    assert 0 < sum(flags) < len(flags)
    assert got["rollouts"] == want["rollouts"]
    assert got["collision_rate"] == want["collision_rate"]
    assert got["mean_velocity"] == pytest.approx(want["mean_velocity"], rel=0, abs=1e-12)


def test_evaluate_planner_runs_each_condition_as_one_batch(worlds48, eval_model, monkeypatch):
    conditions = list(sim.expert_windows(worlds48, 3, n_actions=eval_model.n_actions, seed=5))
    monkeypatch.setattr(sim, "expert_windows", lambda *args, **kwargs: iter(conditions))
    forwards, lookups = [], []
    forward = planner.VectorFieldModel.forward

    def counting_forward(self, x):
        forwards.append(len(x))
        return forward(self, x)

    def counting_lookup(phi, pts):
        lookups.append(np.size(pts) // 2)
        return sample_bilinear(phi, pts)

    monkeypatch.setattr(planner.VectorFieldModel, "forward", counting_forward)
    monkeypatch.setattr(planner, "sample_bilinear", counting_lookup)
    out = sim.evaluate_planner(eval_model, worlds48, 3, 5, seed=5)
    assert out["rollouts"] == 5 * len(conditions)
    assert forwards == [5] * (sim._EULER_STEPS * len(conditions))
    assert lookups == [5 * (eval_model.n_actions + 1)] * len(conditions)


def test_evaluate_planner_samples_each_condition_with_one_loop_sampler_call(worlds48, eval_model,
                                                                            monkeypatch):
    # the rollouts go through the traced sampler the loop calls: k rows of one
    # condition, start and generator per condition
    windows = list(sim.expert_windows(worlds48, 3, n_actions=eval_model.n_actions, seed=5))
    calls = []
    plan_sample = sim.plan_sample

    def recording(model, conditions, steps, rngs, starts):
        actions, poses = plan_sample(model, conditions, steps, rngs, starts)
        calls.append((conditions, steps, rngs, starts, actions.shape, poses.shape))
        return actions, poses

    monkeypatch.setattr(sim, "plan_sample", recording)
    sim.evaluate_planner(eval_model, worlds48, 3, 5, seed=5)
    assert len(calls) == len(windows)
    n = eval_model.n_actions
    for (_, window, cond), (conditions, steps, rngs, starts, actions, poses) in zip(windows, calls):
        assert [c.vector().tobytes() for c in conditions] == [cond.vector().tobytes()] * 5
        assert steps == sim._EULER_STEPS
        assert len(rngs) == 5 and all(r is rngs[0] for r in rngs)
        assert starts == [window[0].as_tuple()] * 5
        assert actions == (5, n, 3) and poses == (5, n + 1, 3)


def test_evaluate_planner_without_rollouts(worlds48, eval_model):
    out = sim.evaluate_planner(eval_model, worlds48[:1], 2, 0, seed=0)
    assert out == {"rollouts": 0, "collision_rate": 0.0, "mean_velocity": 0.0}


def test_evaluate_planner_builds_no_masks(worlds48, eval_model, monkeypatch):
    calls = []

    def refused(*args):
        calls.append(args)
        raise AssertionError("evaluate_planner needs no mask")

    monkeypatch.setattr(sim, "make_mask", refused)
    monkeypatch.setattr(sim, "mask_esdf", refused)
    out = sim.evaluate_planner(eval_model, worlds48, 2, 2, seed=0)
    assert out["rollouts"] == 2 * 2 * len(worlds48)
    assert calls == []


def ref_build_planning_dataset(worlds, samples_per_world, n_actions=16, seed=0,
                               mask_alpha=0.5, mask_dilation=0.3):
    """The dataset built in one loop, windows and masks together."""
    rng = np.random.default_rng(seed)
    dataset = []
    for wi, world in enumerate(worlds):
        grid2, phi = world.grid2d(), world.phi()
        collected = guard = 0
        while collected < samples_per_world and guard < samples_per_world * 20:
            guard += 1
            n = len(world.start_xy)
            si, gi = rng.integers(n), rng.integers(n)
            s_xy, g_xy = world.start_xy[int(si)], world.start_xy[int(gi)]
            if math.hypot(g_xy[0] - s_xy[0], g_xy[1] - s_xy[1]) < 2.0:
                continue
            heading = math.atan2(g_xy[1] - s_xy[1], g_xy[0] - s_xy[0])
            try:
                path = sim.oracle_plan(world, Pose2(*s_xy, heading), Pose2(*g_xy, heading))
            except sim.UnreachableError:
                continue
            arr = path.as_array()
            for lo in range(0, len(arr) - n_actions - 1, max(1, n_actions // 2)):
                window = PoseTrajectory([path[k].as_tuple() for k in range(lo, lo + n_actions + 1)])
                start = window[0]
                prev_len = math.hypot(*(arr[lo][:2] - arr[lo - 1][:2])) if lo > 0 else 0.0
                cond = planner.PlanningCondition(
                    relative_pose(start, path[ref_select_subgoal(path, start, sim._LOOKAHEAD, 0)]),
                    (prev_len, 0.0),
                    planner.occupancy_features(grid2, [start.as_tuple()], phi)[0],
                )
                masked = mask_esdf(phi, make_mask(window, phi, mask_dilation), mask_alpha)
                dataset.append(planner.PlanningSample(
                    poses_to_actions(window), cond, start, masked, None,
                    window.to_jsonable(), wi,
                ))
                collected += 1
                if collected >= samples_per_world:
                    break
    return dataset


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.actions.tobytes() == w.actions.tobytes()
        assert g.condition.vector().tobytes() == w.condition.vector().tobytes()
        assert g.start == w.start
        assert g.phi.values.tobytes() == w.phi.values.tobytes()
        assert (g.grid_ref, g.gt_poses, g.world_index) == (w.grid_ref, w.gt_poses, w.world_index)


def counting_requests(monkeypatch, worlds):
    """Patch `sim.oracle_plans` to count the requests it plans per world of
    `worlds` and the calls it gets; returns the two counts."""
    planned, calls = [0] * len(worlds), []
    oracle_plans = sim.oracle_plans

    def counting(requests):
        calls.append(len(requests))
        for world, _, _ in requests:
            planned[[id(w) for w in worlds].index(id(world))] += 1
        return oracle_plans(requests)

    monkeypatch.setattr(sim, "oracle_plans", counting)
    return planned, calls


def walled_in(world):
    """The world with its first start point walled in by a ring of cells 6
    cells out and one other start point more than 3 m away, so neither start
    point reaches the other."""
    x0, y0 = world.start_xy[0]
    r0, c0 = sim._to_cell(world.grid2d(), x0, y0)
    values = world.grid2d().values.copy()
    rows, cols = np.indices(values.shape)
    values[np.maximum(abs(rows - r0), abs(cols - c0)) == 6] = True
    far = next(p for p in world.start_xy if math.hypot(p[0] - x0, p[1] - y0) > 3.0)
    return sim.World(Grid(values, world.grid.resolution), world.map, [world.start_xy[0], far])


@pytest.mark.parametrize("seed, per_world, n_actions", [(0, 8, 16), (3, 5, 8), (7, 40, 4)])
def test_dataset_matches_one_loop_reference(worlds48, seed, per_world, n_actions):
    got = sim.build_planning_dataset(worlds48, per_world, n_actions=n_actions, seed=seed)
    want = ref_build_planning_dataset(worlds48, per_world, n_actions=n_actions, seed=seed)
    assert len(want) > 0
    assert_same_samples(got, want)


@pytest.mark.parametrize("seed, per_world", [(3, 10), (16, 8)])
def test_dataset_rewinds_the_pairs_planned_past_a_complete_world(worlds48, monkeypatch, seed, per_world):
    # on every world the batch that completes it plans pairs past the pair
    # that does, so the next world's windows show those draws were rewound
    planned, _ = counting_requests(monkeypatch, worlds48)
    got = sim.build_planning_dataset(worlds48, per_world, seed=seed)
    batched = list(planned)
    planned[:] = [0] * len(worlds48)
    want = ref_build_planning_dataset(worlds48, per_world, seed=seed)
    assert all(b > p > 0 for b, p in zip(batched, planned))
    assert len(want) == per_world * len(worlds48)
    assert_same_samples(got, want)


def test_dataset_matches_one_loop_reference_past_worlds_that_give_up(worlds48):
    # one world's start points are all closer than 2 m, the other's are not
    # connected: both draw the guard's 20 pairs per sample and give no window
    close = dataclasses.replace(worlds48[1], start_xy=worlds48[1].start_xy[:1])
    walled = walled_in(worlds48[1])
    for a, b in [(0, 1), (1, 0)]:
        with pytest.raises(sim.UnreachableError):
            sim.oracle_plan(walled, Pose2(*walled.start_xy[a], 0.0), Pose2(*walled.start_xy[b], 0.0))
    worlds = [worlds48[0], close, walled, worlds48[2]]
    got = sim.build_planning_dataset(worlds, 6, n_actions=8, seed=2)
    want = ref_build_planning_dataset(worlds, 6, n_actions=8, seed=2)
    assert [s.world_index for s in want] == [0] * 6 + [3] * 6
    assert_same_samples(got, want)


def test_expert_windows_encode_each_world_with_one_call(worlds48, monkeypatch):
    encoded = []

    def counting(grid, poses, phi):
        encoded.append((grid, len(poses)))
        return planner.occupancy_features(grid, poses, phi)

    monkeypatch.setattr(sim, "occupancy_features", counting)
    windows = list(sim.expert_windows(worlds48, 7, n_actions=8, seed=3))
    assert encoded == [(w.grid2d(), 7) for w in worlds48]
    assert len(windows) == 7 * len(worlds48)
    encoded.clear()
    assert list(sim.expert_windows(worlds48, 0)) == []
    assert encoded == [(w.grid2d(), 0) for w in worlds48]


def test_expert_dataset_refuses_bad_counts(worlds48):
    for n_actions in (0, -2):
        with pytest.raises(sim.SimError, match="at least one action"):
            sim.build_planning_dataset(worlds48, 2, n_actions=n_actions)
    with pytest.raises(sim.SimError, match="samples per world must be >= 0"):
        list(sim.expert_windows(worlds48, -1))
    assert sim.build_planning_dataset(worlds48, 0) == []


# --- per-world planning grids and the leaner control cycle ------------------------------

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_resample_polyline_matches_loop_reference(data):
    base = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8), label="points")
    # repeated points make zero-length segments
    repeats = data.draw(
        st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)), label="repeats"
    )
    points = np.array([p for p, k in zip(base, repeats) for _ in range(k)])
    step = data.draw(st.floats(0.05, 20.0), label="step")
    got = sim.resample_polyline(points, step)
    assert got.tobytes() == ref_resample_polyline(points, step).tobytes()


@pytest.mark.parametrize(
    "points, step",
    [
        ([(0.0, 0.0), (1.0, 0.0)], 0.25),
        ([(0.0, 0.0), (0.3, 0.4)], 2.0),
        ([(1.0, 1.0), (1.0, 1.0), (2.0, 1.0)], 0.3),
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)], 0.25),
        ([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.5, 0.5)], 0.1),
        ([(2.0, 2.0), (2.0, 2.0)], 0.5),
        ([(0.5, -1.0)], 0.5),
    ],
    ids=["one-segment", "step-beyond-path", "repeated-start", "repeated-middle-on-a-target",
         "repeated-end", "no-length", "one-point"],
)
def test_resample_polyline_named_cases(points, step):
    got = sim.resample_polyline(points, step)
    assert got.tobytes() == ref_resample_polyline(points, step).tobytes()
    assert got[0].tolist() == list(points[0])
    assert got[-1].tolist() == list(points[-1])


def assert_heuristic_table_matches(h, w, goals):
    """Every cell's entry of the shape's table, read at its flat offset from
    each goal in a planning grid, equals the reference heuristic bit for bit."""
    table, centre = sim._heuristic_table(h, w)
    stride = sim._PlanningGrid(np.zeros((h, w), dtype=bool)).stride
    assert len(table) == (2 * h - 1) * stride
    flat, (rows, cols) = np.array(table), np.divmod(np.arange(h * w), w)
    for goal in goals:
        gr, gc = divmod(goal, w)
        got = flat[centre + (rows - gr) * stride + (cols - gc)]
        assert got.tobytes() == np.array(ref_heuristic(h, w, goal)).tobytes()


@pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (6, 1), (5, 9), (12, 4), (50, 50)])
def test_heuristic_matches_gather_reference(h, w):
    assert_heuristic_table_matches(h, w, range(h * w))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_heuristic_matches_gather_reference_anywhere(data):
    h = data.draw(st.integers(1, 30), label="h")
    w = data.draw(st.integers(1, 30), label="w")
    goal = data.draw(st.integers(0, h * w - 1), label="goal")
    assert_heuristic_table_matches(h, w, [goal])


def ref_neighbours(blocked, stride):
    """Per padded cell, the (flat offset, cost) of every `_MOVES` move onto an
    open cell, for the cells of the grid; none for the wall and padding."""
    h, w = blocked.shape
    walled = np.ones((h + 2, w + 2), dtype=bool)
    walled[1:-1, 1:-1] = blocked
    out = [()] * ((h + 2) * stride)
    for r in range(1, h + 1):
        for c in range(1, w + 1):
            out[r * stride + c] = tuple((dr * stride + dc, cost) for dr, dc, cost in sim._MOVES
                                        if not walled[r + dr, c + dc])
    return out


@pytest.mark.parametrize("clearance", [0.55, 0.8])  # the expert's two clearances at 0.25 m cells
def test_planning_grid_snaps_like_unmemoized_search(worlds48, clearance):
    for world in worlds48:
        blocked = world.dist_field().values < clearance
        grid = sim._PlanningGrid(blocked)
        cells = [(r, c) for r in range(blocked.shape[0]) for c in range(blocked.shape[1])]
        want = [ref_nearest_open(blocked, cell) for cell in cells]
        assert [grid.nearest_open(cell) for cell in cells] == want
        assert [grid.nearest_open(cell) for cell in cells] == want  # now from the cache
        assert grid.stride == 2 * blocked.shape[1] + 1
        assert grid.neighbours == ref_neighbours(blocked, grid.stride)
        assert len({id(moves) for moves in grid.neighbours}) <= 256  # one tuple per pattern
        kept = world.planning_grid(clearance)
        assert kept is world.planning_grid(clearance)
        assert kept.blocked.tobytes() == blocked.tobytes()


def test_planning_grid_snaps_to_none_when_all_is_blocked():
    grid = sim._PlanningGrid(np.ones((3, 4), dtype=bool))
    assert grid.nearest_open((1, 2)) is None
    assert grid.nearest_open((1, 2)) is None


def counted_episodes(monkeypatch, worlds, episodes, config, model=None):
    """eval_suite with counters: sample_bilinear calls made outside
    oracle_plans, in all and within each episode's `_end_episode` (the
    episodes run in lock-step, so their other calls interleave), subgoal
    lookups by the lookahead rule (one per model plan), expert segments (one
    per cycle the expert drives), unreachable plans (a cycle that ends on one
    executes nothing), and the blocked grid of every planning grid built."""
    inside = [0]
    counts = {"lookups": 0, "episode_lookups": [], "subgoals": 0, "segments": 0, "grids": [],
              "unreachable": 0}
    oracle_plans, lookahead_index, grid_type = sim.oracle_plans, sim._lookahead_index, sim._PlanningGrid
    segment, end_episode = sim._ExpertPath.advance, sim._end_episode

    def counting_end(state):
        before = counts["lookups"]
        end_episode(state)
        counts["episode_lookups"].append(counts["lookups"] - before)
        return state

    def tracked_plans(requests):
        inside[0] += 1
        try:
            plans = oracle_plans(requests)
        finally:
            inside[0] -= 1
        counts["unreachable"] += sum(isinstance(p, sim.UnreachableError) for p in plans)
        return plans

    def counting_lookup(phi, pts):
        if not inside[0]:
            counts["lookups"] += 1
        return sample_bilinear(phi, pts)

    def counting_subgoal(*args):
        counts["subgoals"] += 1
        return lookahead_index(*args)

    def counting_segment(self, est):
        counts["segments"] += 1
        return segment(self, est)

    def counting_grid(blocked):
        counts["grids"].append(blocked.tobytes())
        return grid_type(blocked)

    monkeypatch.setattr(sim, "oracle_plans", tracked_plans)
    monkeypatch.setattr(sim, "sample_bilinear", counting_lookup)
    monkeypatch.setattr(sim, "_lookahead_index", counting_subgoal)
    monkeypatch.setattr(sim._ExpertPath, "advance", counting_segment)
    monkeypatch.setattr(sim, "_PlanningGrid", counting_grid)
    monkeypatch.setattr(sim, "_end_episode", counting_end)
    suite = sim.eval_suite(worlds, episodes, config, model, master_seed=0)
    return suite, counts


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_episode_makes_one_lookup_per_episode(monkeypatch, eval_model, kind):
    worlds = [sim.generate_world(s, 48) for s in (3, 4)]  # no planning grid built yet
    config = sim.NavConfig(planner=kind)
    model = eval_model if kind == "model" else None
    suite, counts = counted_episodes(monkeypatch, worlds, 6, config, model)
    assert counts["unreachable"] == 0
    # every cycle of a model run samples one plan for one subgoal; the expert
    # drives its fallback cycles, and every cycle of an oracle run, which
    # selects no subgoal
    if kind == "model":
        cycles = counts["subgoals"]
        assert cycles == sum(r["planner_calls"] for r in suite["reports"])
        assert counts["segments"] == sum(r["fallback_count"] for r in suite["reports"]) > 0
    else:
        cycles = counts["segments"]
        assert counts["subgoals"] == 0
    assert cycles > 6
    # every episode executes steps, and looks up the clearance of all of them at once
    assert all(r["path_length"] > 0 for r in suite["reports"])
    assert counts["episode_lookups"] == [1] * 6 and counts["lookups"] == 6
    # one planning grid per (world, clearance), however many plans asked for it
    grids = counts["grids"]
    assert len(worlds) <= len(grids) == len(set(grids)) <= 2 * len(worlds)
    again, recount = counted_episodes(monkeypatch, worlds, 6, config, model)
    assert again == suite
    assert recount["grids"] == []


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_expert_plans_once_in_set_up_and_at_most_once_per_cycle(worlds48, eval_model, monkeypatch,
                                                                 caplog, kind):
    events, replans = [], []
    oracle_plans, lock_step, advance = sim.oracle_plans, sim._lock_step, sim._ExpertPath.advance

    def recording_plans(requests):
        events.append(len(requests))
        return oracle_plans(requests)

    def recording_cycle(states):
        events.append("cycle")
        lock_step(states)

    def recording_advance(self, est):
        replans.append(advance(self, est))
        return replans[-1]

    def refused(*args, **kwargs):
        raise AssertionError("a debug record was made with debug logging off")

    monkeypatch.setattr(sim, "oracle_plans", recording_plans)
    monkeypatch.setattr(sim, "_lock_step", recording_cycle)
    monkeypatch.setattr(sim._ExpertPath, "advance", recording_advance)
    monkeypatch.setattr(sim.log, "_log", refused)
    with caplog.at_level(logging.INFO, logger=sim.log.name):
        suite = sim.eval_suite(worlds48, 12, sim.NavConfig(planner=kind),
                               eval_model if kind == "model" else None, 0)
    # set-up: one call plans the reference path of every episode that reaches planning
    assert events[0] == sum(r["expert_length"] > 0 for r in suite["reports"]) == 12
    cycles = []  # per lock-step cycle, the batch size of each call it makes
    for event in events[1:]:
        if event == "cycle":
            cycles.append([])
        else:
            cycles[-1].append(event)
    assert len(cycles) > 10 and max(map(len, cycles)) == 1
    # each call serves all of its cycle's re-plans, several in some cycles
    batches = [n for calls in cycles for n in calls]
    assert sum(batches) == sum(replans) and max(batches) > 1


# --- the closed loop: one followed expert path, split turns, monotone subgoals ------------

NOISE_FREE = dict(wheel_trans_sigma=0.0, wheel_rot_sigma=0.0, imu_sigma=0.0,
                  exec_trans_sigma=0.0, exec_rot_sigma=0.0, fix_every=10**6)


def test_noise_free_expert_reaches_every_goal_without_collision(worlds48):
    config = sim.NavConfig(planner="oracle", **NOISE_FREE)
    suite = sim.eval_suite(worlds48, 30, config, None, master_seed=0)
    assert [r["reason"] for r in suite["reports"]] == ["reached"] * 30
    assert [r["collision_count"] for r in suite["reports"]] == [0] * 30


def test_noise_free_expert_on_untuned_worlds():
    # worlds 3-9 played no part in building the loop; every world stays in
    worlds = [sim.generate_world(s, 48) for s in range(3, 10)]
    config = sim.NavConfig(planner="oracle", **NOISE_FREE)
    suite = sim.eval_suite(worlds, 70, config, None, master_seed=0)
    failed = [(i % 7 + 3, r["reason"], r["collision_count"]) for i, r in enumerate(suite["reports"])
              if not r["success"] or r["collision_count"]]
    assert failed == []


def test_noise_free_expert_plans_once_per_episode(worlds48, monkeypatch):
    # with a perfect estimate no event fires: the reference path is followed to the goal
    calls = []
    oracle_plans = sim.oracle_plans

    def counting(requests):
        calls.append(requests)
        return oracle_plans(requests)

    monkeypatch.setattr(sim, "oracle_plans", counting)
    suite = sim.eval_suite(worlds48, 9, sim.NavConfig(planner="oracle", **NOISE_FREE), None, 0)
    assert suite["success_rate"] == 1.0
    # the set-up's one call plans the nine reference paths
    assert [len(requests) for requests in calls] == [9]


def test_start_outside_the_world_raises(world):
    goal = Pose2(*world.start_xy[0], 0.0)
    for x, y in [(-1.0, 2.0), (2.0, 6.5), (math.inf, 2.0), (math.nan, 2.0)]:
        with pytest.raises(sim.SimError, match="start pose"):
            sim.run_episode(world, goal, sim.NavConfig(planner="oracle"), start=Pose2(x, y, 0.0))


def test_start_or_goal_in_an_obstacle_raises(world):
    # a goal in an occupied cell was once reported reached, after collisions
    grid2 = world.grid2d()
    r, c = np.argwhere(grid2.values)[len(np.argwhere(grid2.values)) // 2]
    blocked = Pose2(grid2.origin[0] + c * grid2.resolution, grid2.origin[1] + r * grid2.resolution, 0.0)
    free = Pose2(*world.start_xy[0], 0.0)
    config = sim.NavConfig(planner="oracle")
    with pytest.raises(sim.SimError, match=r"start pose .* lies in an occupied cell"):
        sim.run_episode(world, free, config, start=blocked)
    with pytest.raises(sim.SimError, match=r"goal pose .* lies in an occupied cell"):
        sim.run_episode(world, blocked, config, start=free)


def expert_cycle(world, expert, est):
    """One cycle of the expert phase and the actions on one expert path: the
    index moved, a re-plan when it asks for one, then the increments."""
    if expert.advance(est):
        expert.follow(sim.oracle_plan(world, est, expert.goal), est)
    return expert.actions(est)


def test_expert_path_replans_only_on_events(worlds48):
    world = worlds48[0]
    (sx, sy), (gx, gy) = world.start_xy[0], world.start_xy[-1]
    start, goal = Pose2(sx, sy, 0.0), Pose2(gx, gy, 0.0)
    ref = sim.oracle_plan(world, start, goal)
    expert = sim._ExpertPath(goal, ref)
    # on the path: no re-plan, the next execute_steps poses from the estimate
    est = ref[6]
    assert not expert.advance(Pose2(est.x + 0.1, est.y, est.theta))
    actions = expert.actions(Pose2(est.x + 0.1, est.y, est.theta))
    assert expert.rows is ref.as_array() and expert.index == 6
    assert len(actions) == sim._EXECUTE_STEPS
    # the index never moves back, even where the estimate does: halfway back to pose 5
    assert not expert.advance(Pose2((ref[5].x + ref[6].x) / 2, (ref[5].y + ref[6].y) / 2, ref[6].theta))
    assert expert.rows is ref.as_array() and expert.index == 6
    assert expert.rows[6].tolist() == list(ref[6].as_tuple())
    # off the path by more than the safety margin: a new path from the estimate
    p = ref[8]
    off = Pose2(p.x - 0.3 * math.sin(p.theta), p.y + 0.3 * math.cos(p.theta), p.theta)
    assert expert.advance(off)
    expert.follow(sim.oracle_plan(world, off, goal), off)
    assert expert.rows[0].tolist() == list(off.as_tuple()) and expert.index == 0
    # at the end of the path short of the goal: a new path
    short = sim.oracle_plan(world, start, ref[10])
    expert = sim._ExpertPath(goal, short)
    for k in (4, 8):
        assert not expert.advance(short[k])
        assert expert.rows is short.as_array() and expert.index == k
    assert expert.advance(short[-1])
    expert.follow(sim.oracle_plan(world, short[-1], goal), short[-1])
    assert expert.rows[0].tolist() == short.as_array()[-1].tolist()
    assert expert.rows[-1, :2].tolist() == [goal.x, goal.y]
    # a re-plan of one pose, from the goal itself, becomes the step to the goal
    expert.follow(PoseTrajectory([goal.as_tuple()]), off)
    assert expert.rows.tolist() == [list(off.as_tuple()), list(goal.as_tuple())] and expert.index == 0


def test_subgoal_keeps_progress_on_a_path_that_folds_back():
    # out along y = 0, back along y = 0.4 with vertices half a metre across from the out
    # leg's: midway between two return vertices the robot is nearer an out-leg vertex
    xy = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 0.4), (2.5, 0.4), (1.5, 0.4), (0.5, 0.4),
          (-0.5, 0.4), (-1.5, 0.4)]
    path = PoseTrajectory([(x, y, 0.0) for x, y in xy])
    arr = np.array(xy, dtype=float)
    cum = sim._arc_lengths(arr)
    pose, nearest, chosen = path[0], 0, []
    for _ in range(12):
        # the nearest index is carried forward, as the learned planner carries it
        nearest = sim._nearest_index(arr, pose, nearest)
        chosen.append(sim._lookahead_index(cum, nearest, 1.0))
        subgoal = path[chosen[-1]]
        # a cycle moves 1 m toward the subgoal
        dx, dy = subgoal.x - pose.x, subgoal.y - pose.y
        scale = min(1.0, 1.0 / math.hypot(dx, dy)) if dx or dy else 0.0
        pose = Pose2(pose.x + scale * dx, pose.y + scale * dy, 0.0)
    # restarting from the nearest vertex of the whole path each cycle would alternate 3, 6, 3, 6
    assert chosen == sorted(chosen)
    assert chosen[-1] == len(path) - 1


# out along y = 1.5, back along y = 1.9: midway between two return vertices the
# nearest vertex of the whole path is one of the out leg's
FOLDED_XY = [(1.5, 1.5), (2.5, 1.5), (3.5, 1.5), (4.5, 1.5), (4.5, 1.9), (4.0, 1.9), (3.0, 1.9),
             (2.0, 1.9), (1.0, 1.9)]


def scripted_learned_planner(fallback):
    """A learned planner on FOLDED_XY and a scripted 8-action plan for it to
    review, as one row of the sampler's actions."""
    path = PoseTrajectory([(x, y, 0.0) for x, y in FOLDED_XY])
    return sim._LearnedPlanner(None, path, fallback), np.arange(24.0).reshape(8, 3)


def test_learned_planner_falls_back_on_a_colliding_plan():
    learned, actions = scripted_learned_planner(True)
    report = sim.EpisodeReport(False, "timeout")
    assert learned.review(actions, np.bool_(True), report) is None
    assert (report.planner_calls, report.fallback_count) == (1, 1)
    assert learned.review(actions, np.bool_(False), report) == actions[:4].tolist()
    assert (report.planner_calls, report.fallback_count) == (2, 1)


def test_learned_planner_executes_a_colliding_plan_without_fallback():
    learned, actions = scripted_learned_planner(False)
    report = sim.EpisodeReport(False, "timeout")
    rows = learned.review(actions, np.bool_(True), report)
    assert rows == actions[:4].tolist()
    assert (report.planner_calls, report.fallback_count) == (1, 0)


def test_learned_planner_progress_never_moves_back():
    learned, actions = scripted_learned_planner(True)
    arr = np.array(FOLDED_XY)
    report = sim.EpisodeReport(False, "timeout")
    progress, nearest = [], []
    # estimates at every vertex, in path order, and midway along every segment
    for a, b in zip(arr, arr[1:]):
        for est in (a, (a + b) / 2):
            learned.subgoal(Pose2(*est, 0.0))
            learned.review(actions, False, report)
            progress.append(learned.progress)
            nearest.append(int(np.argmin(np.hypot(*(arr - est).T))))
    assert progress == sorted(progress)
    assert progress[-1] == len(arr) - 2
    # a nearest vertex taken over the whole path would have moved back
    assert nearest != sorted(nearest)
    assert report.planner_calls == len(progress)


def ref_select_subgoal(path, current, lookahead, lowest):
    """The lookahead rule as a walk: arc lengths rebuilt per call, then the
    first pose from the nearest on that is far enough along."""
    arr = path.as_array()
    d = np.hypot(arr[lowest:, 0] - current.x, arr[lowest:, 1] - current.y)
    nearest = lowest + int(np.argmin(d))
    seg = np.hypot(*np.diff(arr[:, :2], axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = cum[nearest] + lookahead
    for k in range(nearest, len(arr)):
        if cum[k] >= target:
            return k
    return len(arr) - 1


# few distinct coordinates make repeated vertices, zero-length segments and ties
path_coord = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(path_coord, path_coord), min_size=1, max_size=12),
    st.tuples(path_coord, path_coord),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0]) | st.floats(0.0, 5.0),
    st.data(),
)
def test_lookahead_rule_matches_the_walk(xy, at, lookahead, data):
    path = PoseTrajectory([(x, y, 0.1 * i) for i, (x, y) in enumerate(xy)])
    current = Pose2(*at, 0.0)
    lowest = data.draw(st.integers(0, len(xy) - 1))
    want = ref_select_subgoal(path, current, lookahead, lowest)
    # the loop's form: arc lengths once per path, then the nearest index and one search
    arr = path.as_array()
    nearest = sim._nearest_index(arr, current, lowest)
    assert sim._lookahead_index(sim._arc_lengths(arr), nearest, lookahead) == want


def ref_spl(report):
    """Success weighted by path length, per report (Anderson et al., arXiv 1807.06757)."""
    if not report["success"]:
        return 0.0
    longest = max(report["path_length"], report["expert_length"])
    return report["expert_length"] / longest if longest else 1.0


def test_outcome_summaries_match_per_report_reference(worlds48):
    suite = sim.eval_suite(worlds48, 12, sim.NavConfig(planner="oracle"), None, 0)
    reports = suite["reports"]
    safe = [r["success"] and r["collision_count"] == 0 for r in reports]
    assert suite["safe_success_rate"] == sum(safe) / len(reports)
    assert 0 < suite["safe_success_rate"] < suite["success_rate"]  # some arrivals collided
    assert suite["spl"] == pytest.approx(sum(map(ref_spl, reports)) / len(reports), rel=0, abs=1e-15)
    assert 0 < suite["spl"] < 1
    world = worlds48[1]
    start, goal = Pose2(*world.start_xy[0], 0.5), Pose2(*world.start_xy[-1], 0.0)
    report = sim.run_episode(world, goal, sim.NavConfig(planner="oracle"), start=start)
    assert report.expert_length == sim.oracle_plan(world, start, goal).path_length()
    cases = [
        sim.EpisodeReport(False, "stuck", path_length=3.0, expert_length=2.0),
        sim.EpisodeReport(True, "reached", path_length=4.0, expert_length=2.0),
        sim.EpisodeReport(True, "reached", path_length=1.5, expert_length=2.0),
        sim.EpisodeReport(True, "reached"),
    ]
    assert [sim._spl(r) for r in cases] == [ref_spl(r.to_jsonable()) for r in cases] == [0.0, 0.5, 1.0, 1.0]


def test_episode_report_json_keeps_its_field_order():
    reports = [sim.EpisodeReport(False, "timeout"), sim.EpisodeReport(True, "reached", 1, 2, 3, 4.5, 0.5, 0.25, 4.0)]
    assert [json.dumps(r.to_jsonable()) for r in reports] == [
        '{"success": false, "reason": "timeout", "fallback_count": 0, "planner_calls": 0, "collision_count": 0, '
        '"path_length": 0.0, "mean_velocity": 0.0, "final_error": null, "expert_length": 0.0}',
        '{"success": true, "reason": "reached", "fallback_count": 1, "planner_calls": 2, "collision_count": 3, '
        '"path_length": 4.5, "mean_velocity": 0.5, "final_error": 0.25, "expert_length": 4.0}',
    ]


# --- the node index against per-node references ---------------------------------------

def ref_reference_nodes(topo, candidates, k=3, beta=0.5):
    """Every node ranked per candidate by norm plus beta times angle, then id."""
    refs = set()
    for cid in sorted(candidates):
        cand = topo.nodes[cid]
        cpos = np.asarray(cand.pose.position)
        ranked = sorted(
            topo.nodes,
            key=lambda nid: (
                float(np.linalg.norm(np.asarray(topo.nodes[nid].pose.position) - cpos))
                + beta * cand.pose.angle_to(topo.nodes[nid].pose),
                nid,
            ),
        )
        refs.update(ranked[:k])
    return sorted(refs)


def ref_nearest_node(topo, pose):
    return min(topo.nodes, key=lambda nid: (
        math.hypot(topo.nodes[nid].pose.position[0] - pose.x, topo.nodes[nid].pose.position[1] - pose.y),
        nid,
    ))


def ref_observations_at(world, pose):
    """The nodes walked nearest first in the plane, id order on a tie, until one
    bears a landmark or lies beyond 6 m; the sightings read from the map."""
    index = world.map.node_index()
    d = np.array([math.hypot(x - pose.x, y - pose.y) for x, y in index.positions[:, :2].tolist()])
    for k in np.argsort(d, kind="stable").tolist():
        if d[k] > 6.0:
            return []
        node = world.map.nodes[index.ids[k]]
        if node.landmark_ids:
            return [(world.map.landmarks[lid].category, world.map.landmarks[lid].visual_attributes)
                    for lid in sorted(node.landmark_ids)]
    return []


def observed(world, pose):
    return [(o.category, o.visual_attributes) for o in sim.observations_at(world, pose)]


def ref_spatial_query(topo, center, r):
    c = np.asarray(center, dtype=float)
    return {nid for nid, n in topo.nodes.items() if np.linalg.norm(np.asarray(n.pose.position) - c) <= r}


@pytest.fixture(scope="module")
def worlds0to7(worlds48):
    return worlds48 + [sim.generate_world(s, 48) for s in range(3, 8)]


def test_node_index_queries_match_per_node_references(worlds0to7):
    # queries at every node, midway between four lattice nodes (exact ties, decided
    # by id) and at a random offset; radii that land exactly on lattice distances
    rng = np.random.default_rng(7)
    for world in worlds0to7:
        topo = world.map
        ids = sorted(topo.nodes)
        for nid in ids:
            assert localization.sample_reference_nodes(topo, {nid}) == ref_reference_nodes(topo, {nid})
            x, y, z = topo.nodes[nid].pose.position
            dx, dy = rng.uniform(-1.5, 1.5, 2)
            for pose in (Pose2(x, y, 0.0), Pose2(x + 0.5, y + 0.5, 0.0), Pose2(x + dx, y + dy, 0.0)):
                assert sim._nearest_node(topo, pose) == ref_nearest_node(topo, pose)
                assert observed(world, pose) == ref_observations_at(world, pose)
            for r in (0.0, 1.0, 1.5, 2.0, 2.5):
                assert topo.spatial_query((x, y, z), r) == ref_spatial_query(topo, (x, y, z), r)
        for _ in range(5):
            cands = set(rng.choice(ids, size=4, replace=False).tolist())
            assert localization.sample_reference_nodes(topo, cands) == ref_reference_nodes(topo, cands)
        # a pose beyond 6 m of every landmark node observes nothing
        far = Pose2(-100.0, -100.0, 0.0)
        assert sim.observations_at(world, far) == ref_observations_at(world, far) == []


@pytest.fixture(scope="module")
def worlds24and48(worlds48):
    return [sim.generate_world(s, 24) for s in (0, 1, 2)] + worlds48


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_observations_match_the_nearest_first_walk(worlds24and48, data):
    world = data.draw(st.sampled_from(worlds24and48))
    extent = world.grid.values.shape[-1] * world.grid.resolution
    table = world.map.sightings()
    # anywhere in the world and a little beyond, or midway between two
    # landmark-bearing nodes, where their distances may tie
    if data.draw(st.booleans()):
        x, y = (data.draw(st.floats(-8.0, extent + 8.0)) for _ in range(2))
    else:
        i, j = (data.draw(st.integers(0, len(table.ids) - 1)) for _ in range(2))
        x, y = (table.x[i] + table.x[j]) / 2, (table.y[i] + table.y[j]) / 2
    pose = Pose2(x, y, 0.0)
    assert observed(world, pose) == ref_observations_at(world, pose)


def tie_world(ids):
    """Landmark-bearing nodes ids[0] at (1, 0) and ids[1] at (-1, 0), both 1 m
    from the origin, and a bare node nearer still."""
    topo = sim.TopoMap()
    for nid, (x, y) in zip(ids, ((1.0, 0.0), (-1.0, 0.0))):
        topo.add_node(sim.MapNode(nid, sim._pose6(x, y)))
        topo.register_landmark(nid, Landmark(f"lm-{nid}", nid, {"color": "red"}))
    topo.add_node(sim.MapNode("bare", sim._pose6(0.0, 0.5)))
    return sim.World(Grid(np.zeros((2, 2), dtype=bool), 0.25), topo, [])


@pytest.mark.parametrize("ids", [("a", "b"), ("b", "a")])
def test_observations_at_a_tie_come_from_the_lower_id(ids):
    world = tie_world(ids)
    assert observed(world, Pose2()) == ref_observations_at(world, Pose2()) == [("a", {"color": "red"})]


@pytest.mark.parametrize("pose", [Pose2(7.5, 0.0, 0.0), Pose2(0.0, -6.5, 0.0), Pose2(1e308, 1e308, 0.0)],
                         ids=["x", "y", "huge"])
def test_observations_beyond_6_m_are_empty(pose):
    world = tie_world(("a", "b"))
    assert sim.observations_at(world, pose) == ref_observations_at(world, pose) == []
    assert sim.observations_at(sim.World(world.grid, sim.TopoMap(), []), pose) == []


def test_observations_at_exactly_6_m_are_seen():
    world = tie_world(("a", "b"))
    pose = Pose2(7.0, 0.0, 0.0)
    assert observed(world, pose) == ref_observations_at(world, pose) == [("a", {"color": "red"})]


def test_observations_read_landmarks_added_after_the_index():
    world = sim.generate_world(0, 48)
    bare = next(nid for nid in sorted(world.map.nodes) if not world.map.nodes[nid].landmark_ids)
    x, y, _ = world.map.nodes[bare].pose.position
    pose = Pose2(x, y, 0.0)
    before = sim.observations_at(world, pose)  # builds the index and the sighting table
    world.map.register_landmark(bare, Landmark("lm-new", "plant", {"color": "red"}))
    after = sim.observations_at(world, pose)
    assert after != before
    assert observed(world, pose) == ref_observations_at(world, pose) == [("plant", {"color": "red"})]
    # a merge renames the sighting and unions the attributes
    world.map.register_landmark(bare, Landmark("lm-000-twin", "plant", {"material": "wood"}))
    world.map.merge_covisible("lm-new", "lm-000-twin")
    assert observed(world, pose) == ref_observations_at(world, pose)
    assert observed(world, pose) == [("plant", {"color": "red", "material": "wood"})]


def test_planar_ties_round_as_math_hypot():
    # node A off both axes and node B on the x axis at A's math.hypot distance:
    # the nearest node, and the observed one, is the smaller id of the two only
    # if every distance is rounded as math.hypot rounds it
    rng = np.random.default_rng(8)
    for _ in range(300):
        dx, dy = rng.uniform(0.1, 3.0, 2)
        for a_id, b_id in (("a", "b"), ("b", "a")):
            topo = sim.TopoMap()
            topo.add_node(sim.MapNode(a_id, sim._pose6(dx, dy)))
            topo.add_node(sim.MapNode(b_id, sim._pose6(math.hypot(dx, dy), 0.0)))
            for nid in (a_id, b_id):
                topo.register_landmark(nid, Landmark(f"lm-{nid}", "sofa" if nid == "a" else "door"))
            assert sim._nearest_node(topo, Pose2()) == "a"
            world = sim.World(Grid(np.zeros((2, 2), dtype=bool), 0.25), topo, [])
            assert [o.category for o in sim.observations_at(world, Pose2())] == ["sofa"]


WIDE_NOISE = {name: 5 * getattr(sim.NavConfig, name) for name in (
    "wheel_trans_sigma", "wheel_rot_sigma", "imu_sigma", "exec_trans_sigma", "exec_rot_sigma")}
# sha256 of json.dumps(eval_suite(worlds 3-7 at 48, 30, NavConfig(planner="oracle",
# fix_every=1, every sigma at 5x its default), None, 0), sort_keys=True): a global fix
# on every step and large noise draws, as the loop computes them since it follows one
# expert path
WIDE_SUITE_DIGEST = "04b2466a9fb855d3a74c2027dbb066724623cdab217fce295918d0f8acc95754"


def test_noisy_suite_with_a_fix_every_step_is_pinned(worlds0to7):
    config = sim.NavConfig(planner="oracle", fix_every=1, **WIDE_NOISE)
    suite = sim.eval_suite(worlds0to7[3:], 30, config, None, 0)
    digest = hashlib.sha256(json.dumps(suite, sort_keys=True).encode()).hexdigest()
    assert digest == WIDE_SUITE_DIGEST


# sha256 of json.dumps(eval_suite(worlds48, 6, NavConfig(planner=...), model, 0), sort_keys=True)
# as the loop computes it since it follows one expert path, splits turns and keeps its subgoal
# progress; the model runs use the eval_model fixture and sample their plans in lock-step, so
# their floats are those of the batched Euler loop (run alone, the same episodes gave
# 787701f5... and 7745ee19...)
SUITE_DIGESTS = {
    "oracle": "e868a09239b5892fd2fdfa6dd3d8864107209d28e8cab05b1f1e5cab8f2a5a85",
    "model": "d52d37ed896eb2ee92cf751ddbfe9f160e0152ec94e0212d89881cdfbba1a5a4",
    "model-no-fallback": "2adf123faa3189c85c19566e05b2ca6a51fc782425a3687dbf30042278afa41d",
}


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_eval_suite_reports_are_pinned(worlds48, eval_model, name):
    kind = "oracle" if name == "oracle" else "model"
    config = sim.NavConfig(planner=kind, fallback=name != "model-no-fallback")
    suite = sim.eval_suite(worlds48, 6, config, eval_model if kind == "model" else None, 0)
    digest = hashlib.sha256(json.dumps(suite, sort_keys=True).encode()).hexdigest()
    assert digest == SUITE_DIGESTS[name]


@pytest.mark.parametrize("master_seed", [0, 1, 2])
@pytest.mark.parametrize("fallback", [True, False])
def test_suite_episodes_equal_their_runs_alone(worlds48, eval_model, fallback, master_seed):
    # a plan's floats do not depend on the plans sampled beside it, so each
    # episode of a suite reports what it reports when run alone
    config = sim.NavConfig(planner="model", fallback=fallback)
    suite = sim.eval_suite(worlds48, 12, config, eval_model, master_seed)
    episodes = sim._suite_episodes(worlds48, 12, master_seed)
    for i, (report, (world, goal, seed, start)) in enumerate(zip(suite["reports"], episodes)):
        alone = sim.run_episode(world, goal, config, eval_model, seed, start).to_jsonable()
        assert json.dumps(report) == json.dumps(alone), f"episode {i}"


def test_learn_path_is_pinned(worlds48):
    # the dataset, training at lambda 0.1 over fields of two sizes, and the
    # open-loop rollouts of the trained model, byte for byte
    worlds = [*worlds48, sim.generate_world(3, 32)]
    data = sim.build_planning_dataset(worlds, 20, seed=0)
    config = planner.TrainConfig(epochs=6, batch_size=16, hidden=(32, 32), seed=0, esdf_lambda=0.1)
    model, log = planner.train(data, config)
    rollouts = sim.evaluate_planner(model, worlds, 3, 4, seed=1)
    h = hashlib.sha256()
    for s in data:
        for a in (s.actions, s.condition.vector(), np.array(s.start.as_tuple()), s.phi.values):
            h.update(a.tobytes())
        h.update(json.dumps([s.gt_poses, s.world_index, s.phi.resolution, s.phi.origin]).encode())
    h.update(model.params.tobytes())
    h.update(json.dumps([log, rollouts], sort_keys=True).encode())
    assert len(data) == 80
    assert h.hexdigest() == "e47f3f8c338e5eeba53332dc6e0bc97b9b87ddeda7c4cb61140a7edfa3ecc612"


# --- the stepped loop on floats against the loop it replaced ------------------------------

def ref_split_action(a, max_step):
    """The executed steps (n, 3) of one action, as an array."""
    dx, dy = a[0], a[1]
    norm = math.hypot(dx, dy)
    if norm > max_step:
        dx, dy = dx * (max_step / norm), dy * (max_step / norm)
    turn = sim.wrap_angle(float(a[2]))
    n = max(1, math.ceil(abs(turn) / sim._MAX_TURN))
    steps = np.zeros((n, 3))
    steps[0, :2] = dx, dy
    steps[:, 2] = turn / n
    return steps


class RefExpertPath:
    """The expert path as one call per cycle, which moves the index, re-plans
    on its own and returns the actions through a pose trajectory."""

    def __init__(self, world, goal, path):
        self.world, self.goal = world, goal
        self.rows, self.index = path.as_array(), 0

    def actions(self, est):
        n = sim._EXECUTE_STEPS
        self.index = sim._nearest_index(self.rows[: self.index + 2 * n + 1], est, self.index)
        x, y, _ = self.rows[self.index]
        off = math.hypot(x - est.x, y - est.y)
        if off > sim._SAFETY_MARGIN or self.index == len(self.rows) - 1:
            ref = sim.oracle_plan(self.world, est, self.goal)
            ref = ref if len(ref) > 1 else PoseTrajectory([est.as_tuple(), self.goal.as_tuple()])
            self.rows, self.index = ref.as_array(), 0
        following = self.rows[self.index + 1 : self.index + 1 + n]
        return poses_to_actions(PoseTrajectory(np.vstack([est.as_tuple(), following])))


def ref_best_paths(topo, from_id, to_id=None):
    """The search shortest_path made before it stopped at the goal: run until
    the heap is empty, every node's least (cost, path), the goal's neighbors
    left unexpanded; with no goal every node is expanded."""
    adj = {nid: [] for nid in topo.nodes}
    for (a, b), edge in topo.edges.items():
        adj[a].append((b, edge.length))
        adj[b].append((a, edge.length))
    best = {}
    heap = [(0.0, (from_id,), from_id)]
    while heap:
        cost, path, nid = heapq.heappop(heap)
        if nid in best and (cost, path) >= best[nid]:
            continue
        best[nid] = (cost, path)
        if nid == to_id:
            continue
        for nxt, length in adj[nid]:
            cand = (cost + length, path + (nxt,))
            if nxt not in best or cand < best[nxt]:
                heapq.heappush(heap, (cand[0], cand[1], nxt))
    return best


def ref_shortest_path(topo, from_id, to_id):
    if from_id == to_id:
        return [from_id]
    best = ref_best_paths(topo, from_id, to_id)
    if to_id not in best:
        return []
    return list(best[to_id][1])


def ref_run_episode(world, goal, config, model=None, seed=0, start=None):
    """run_episode as one loop over Pose2 objects: every executed step composes
    two Pose2 increments and fuses a SensorIncrement, the expert's actions
    come from poses_to_actions, and every episode searches its node path to
    exhaustion, whichever planner drives."""
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
            _, goal_pose = localization.goal_localize(goal.split(), world.map, start)
        except localization.GoalNotFoundError:
            return sim.EpisodeReport(False, "localization-fail")
    else:
        goal_pose = goal

    fix = sim._global_fix(world, true_pose, radius=0.51)
    if fix is None:
        return sim.EpisodeReport(False, "localization-fail")
    est_pose = Pose2(fix.x, fix.y, true_pose.theta)

    start_node = sim._nearest_node(world.map, est_pose)
    goal_node = sim._nearest_node(world.map, goal_pose)
    node_path = ref_shortest_path(world.map, start_node, goal_node)
    if not node_path:
        return sim.EpisodeReport(False, "stuck")
    global_poses = [world.map.nodes[nid].pose.planar() for nid in node_path]
    global_poses.append(goal_pose)
    global_path = PoseTrajectory([p.as_tuple() for p in global_poses])

    try:
        oracle_ref = sim.oracle_plan(world, start, goal_pose)
    except sim.UnreachableError:
        return sim.EpisodeReport(False, "stuck")
    expert_length = oracle_ref.path_length()
    budget = max(60, int(sim._BUDGET_FACTOR * expert_length / sim._MAX_STEP))

    report = sim.EpisodeReport(False, "timeout", expert_length=expert_length)
    expert = RefExpertPath(world, goal_pose, oracle_ref)
    progress = 0
    global_xy = global_path.as_array()
    executed = 0
    step_lengths = []
    true_xy = []
    per_metre = np.array([config.exec_trans_sigma, config.exec_trans_sigma, 0.0,
                          config.wheel_trans_sigma, config.wheel_trans_sigma, 0.0, 0.0])
    fixed = np.array([0.0, 0.0, config.exec_rot_sigma, 0.0, 0.0, config.wheel_rot_sigma,
                      config.imu_sigma])
    best_goal_dist = math.hypot(true_pose.x - goal_pose.x, true_pose.y - goal_pose.y)
    stall = 0
    stall_limit = max(80, 4 * config.fix_every)

    def goal_distance():
        return math.hypot(true_pose.x - goal_pose.x, true_pose.y - goal_pose.y)

    while executed < budget and goal_distance() > sim._GOAL_TOLERANCE:
        actions = None
        if config.planner == "model" and model is not None:
            progress = sim._nearest_index(global_xy, est_pose, progress)
            subgoal = global_path[ref_select_subgoal(global_path, est_pose, sim._LOOKAHEAD, progress)]
            cond = planner.PlanningCondition(
                relative_pose(est_pose, subgoal),
                (step_lengths[-1] if step_lengths else 0.0, 0.0),
                planner.occupancy_features(grid2, [est_pose.as_tuple()], phi)[0],
            )
            (plan,), (poses,) = planner.sample(model, [cond], sim._EULER_STEPS, [rng], [est_pose.as_tuple()])
            report.planner_calls += 1
            if planner.collision_check(PoseTrajectory(poses), None, sim._FOOTPRINT_RADIUS, dist):
                if config.fallback:
                    report.fallback_count += 1
                else:
                    actions = plan
            else:
                actions = plan
        if actions is None:
            try:
                actions = expert.actions(est_pose)
            except sim.UnreachableError:
                report.reason = "stuck"
                break

        steps = np.concatenate(
            [ref_split_action(a, sim._MAX_STEP) for a in actions[: sim._EXECUTE_STEPS]]
        )
        lengths = list(map(math.hypot, steps[:, 0].tolist(), steps[:, 1].tolist()))
        noise = rng.normal(0.0, np.array(lengths)[:, None] * per_metre + fixed)
        exec_incs = steps + noise[:, :3]
        wheels = (exec_incs + noise[:, 3:6]).tolist()
        imu = (exec_incs[:, 2] + noise[:, 6]).tolist()
        for exec_inc, wheel, imu_dth in zip(exec_incs.tolist(), wheels, imu):
            true_pose = compose(true_pose, Pose2(*exec_inc))
            fused = fuse_increment(SensorIncrement(wheel=tuple(wheel), imu_dtheta=imu_dth))
            est_pose = compose(est_pose, Pose2(*fused))
            executed += 1
            step_lengths.append(math.hypot(exec_inc[0], exec_inc[1]))
            report.path_length += step_lengths[-1]
            true_xy.append((true_pose.x, true_pose.y))
            if executed % config.fix_every == 0:
                fix = sim._global_fix(world, true_pose, sim._FIX_ORACLE_RADIUS)
                if fix is not None:
                    est_pose = Pose2(fix.x, fix.y, est_pose.theta)
            if goal_distance() <= sim._GOAL_TOLERANCE:
                break
        d = goal_distance()
        if d < best_goal_dist - 0.05:
            best_goal_dist = d
            stall = 0
        else:
            stall += sim._EXECUTE_STEPS
            if stall >= stall_limit:
                report.reason = "stuck"
                break

    if true_xy:
        clearance = sample_bilinear(dist, true_xy)
        report.collision_count = int(np.count_nonzero(clearance < sim._FOOTPRINT_RADIUS))
    if goal_distance() <= sim._GOAL_TOLERANCE:
        report.success, report.reason = True, "reached"
    report.final_error = goal_distance()
    report.mean_velocity = (
        float(np.mean(step_lengths)) / sim._MAX_STEP if step_lengths else 0.0
    )
    return report


LOOP_CONFIGS = {
    "bench": {},
    "noise-free": NOISE_FREE,
    "fix-every-step-wide-noise": dict(fix_every=1, **WIDE_NOISE),
}
LOOP_PLANNERS = {
    "oracle": dict(planner="oracle"),
    "model": dict(planner="model", fallback=True),
    "model-no-fallback": dict(planner="model", fallback=False),
}


def one_at_a_time(run, worlds, n_episodes, config, model, master_seed):
    """eval_suite's outcome with its episodes run one after another by `run`
    (`sim.run_episode` or `ref_run_episode`) instead of in lock-step."""
    reports = [run(world, goal, config, model, seed=seed, start=start)
               for world, goal, seed, start in sim._suite_episodes(worlds, n_episodes, master_seed)]
    return sim._summarize(reports)


def assert_same_outcomes(got, want, tol=1e-9):
    """Equal structure and discrete values, floats within `tol`: a plan
    sampled beside other episodes' plans may differ in its last bits."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same_outcomes(got[key], want[key], tol)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_outcomes(a, b, tol)
    elif type(want) is float and type(got) is float:
        assert abs(got - want) <= tol
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("master_seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(LOOP_PLANNERS))
@pytest.mark.parametrize("name", sorted(LOOP_CONFIGS))
def test_stepped_loop_matches_pose_object_reference(worlds0to7, eval_model, name, kind, master_seed):
    config = sim.NavConfig(**LOOP_CONFIGS[name], **LOOP_PLANNERS[kind])
    model = eval_model if config.planner == "model" else None
    got = sim.eval_suite(worlds0to7, 8, config, model, master_seed)
    want = one_at_a_time(ref_run_episode, worlds0to7, 8, config, model, master_seed)
    if model is None:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    else:
        assert_same_outcomes(got, want)


def test_stepped_loop_matches_reference_on_an_instruction_goal(worlds48):
    world = worlds48[0]
    category = world.map.landmarks[sorted(world.map.landmarks)[0]].category
    config = sim.NavConfig(planner="oracle")
    got = sim.run_episode(world, category, config, seed=4)
    assert got.expert_length > 0 and got.path_length > 0
    assert got.to_jsonable() == ref_run_episode(world, category, config, seed=4).to_jsonable()


# --- lock-step episodes: one plan phase per control cycle for every episode ------------

class RecordingRng(np.random.Generator):
    """A seeded generator that records every standard_normal draw under its
    kind and its seed: "noise" while `sim._cycle_noise` draws (see
    `recording_cycle_noise`), else "x0", the planner's."""

    def __init__(self, seed, draws):
        super().__init__(np.random.PCG64(seed))
        self.key, self.draws, self.kind = seed, draws, "x0"

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        self.draws[self.kind].setdefault(self.key, []).append(out.tobytes())
        return out


def recording_cycle_noise(cycle_noise):
    """`cycle_noise` with its generator's draws recorded as noise."""

    def wrapper(rng, steps, config):
        rng.kind = "noise"
        try:
            return cycle_noise(rng, steps, config)
        finally:
            rng.kind = "x0"

    return wrapper


@pytest.mark.parametrize("kind", sorted(LOOP_PLANNERS))
def test_lock_step_suite_matches_episodes_run_alone(worlds48, eval_model, monkeypatch, kind):
    config = sim.NavConfig(**LOOP_PLANNERS[kind])
    model = eval_model if config.planner == "model" else None
    draws = {how: {"x0": {}, "noise": {}} for how in ("lock-step", "alone")}
    runs = {}
    monkeypatch.setattr(sim, "_cycle_noise", recording_cycle_noise(sim._cycle_noise))
    for how in draws:
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed, _d=draws[how]: RecordingRng(seed, _d))
        if how == "lock-step":
            runs[how] = sim.eval_suite(worlds48, 9, config, model, 0)
        else:
            runs[how] = one_at_a_time(sim.run_episode, worlds48, 9, config, model, 0)
    got, want = runs["lock-step"], runs["alone"]
    # every episode draws the same x0s and the same noise, in lock-step and alone
    assert draws["lock-step"] == draws["alone"]
    assert len(draws["alone"]["noise"]) == 9
    if model is None:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert draws["alone"]["x0"] == {}
    else:
        assert_same_outcomes(got, want)
        # one x0 per plan
        x0 = draws["alone"]["x0"]
        assert sum(map(len, x0.values())) == sum(r["planner_calls"] for r in want["reports"])
        assert len(x0) == 9


def test_eval_suite_needs_a_world():
    with pytest.raises(sim.SimError, match="need at least one world"):
        sim.eval_suite([], 3, sim.NavConfig(planner="oracle"))


def test_debug_records_name_their_episode(worlds48, eval_model, caplog):
    # the lock-step loop interleaves its episodes' records, so each names its episode
    config = sim.NavConfig(planner="model", fallback=True, fix_every=5)
    with caplog.at_level(logging.DEBUG, logger=sim.log.name):
        suite = sim.eval_suite(worlds48, 3, config, eval_model, 0)
    messages = [r.getMessage() for r in caplog.records if r.name == sim.log.name]
    assert messages and all(re.match(r"episode [0-2][ :]", m) for m in messages)
    for i, report in enumerate(suite["reports"]):
        ends = [m for m in messages if m.startswith(f"episode {i} ends ")]
        assert len(ends) == 1 and ends[0].startswith(f"episode {i} ends {report['reason']} after ")
    assert any(" global fix " in m for m in messages)
    assert any("expert re-plans" in m for m in messages)


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_each_episode_logs_what_it_logs_alone(worlds48, eval_model, caplog, kind):
    # the phases of a lock-step cycle interleave the episodes' records, but
    # each episode's records are the ones it makes alone, in the same order
    config = sim.NavConfig(planner=kind, fix_every=5)
    model = eval_model if kind == "model" else None
    with caplog.at_level(logging.DEBUG, logger=sim.log.name):
        sim.eval_suite(worlds48, 6, config, model, 0)
        suite = [r.getMessage() for r in caplog.records if r.name == sim.log.name]
        caplog.clear()
        alone = []
        for world, goal, seed, start in sim._suite_episodes(worlds48, 6, 0):
            sim.run_episode(world, goal, config, model, seed, start)
            alone.append([r.getMessage() for r in caplog.records if r.name == sim.log.name])
            caplog.clear()
    assert any("expert re-plans" in m for m in suite)
    for i, messages in enumerate(alone):
        mine = [m for m in suite if re.match(f"episode {i}[ :]", m)]
        assert [re.sub(r"^episode \d+", "episode 0", m) for m in mine] == messages


class ScriptedExpert:
    def __init__(self, rows):
        self.rows = rows

    def advance(self, est):
        return False

    def actions(self, est):
        return self.rows


def scripted_cycle(world, true_pose, est_pose, rows, noise, **config):
    """One control cycle of one episode (`sim._lock_step`) driven by the given
    actions and (steps, 7) noise rows, which stand in for the cycle's one
    `sim._cycle_noise` draw."""
    state = sim.EpisodeState(
        world, Pose2(100.0, 100.0, 0.0), sim.NavConfig(planner="oracle", **config),
        np.random.default_rng(0), true_pose, est_pose, ScriptedExpert(rows), None,
        budget=1000, report=sim.EpisodeReport(False, "timeout"), best_goal_dist=1e9,
    )
    calls = []

    def scripted_noise(rng, steps, cfg):
        assert rng is state.rng and cfg is state.config and len(steps) == len(noise)
        calls.append(steps)
        return [tuple(map(float, row)) for row in noise]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_cycle_noise", scripted_noise)
        sim._lock_step([state])
    assert len(calls) == 1
    return state


def ref_cycle(true_pose, est_pose, rows, noise, max_step=0.25):
    """The same cycle on Pose2 objects, a SensorIncrement per step."""
    steps = np.concatenate([ref_split_action(np.array(row), max_step) for row in rows])
    noise = np.array(noise, dtype=float)
    exec_incs = steps + noise[:, :3]
    for inc, wheel, imu in zip(exec_incs.tolist(), (exec_incs + noise[:, 3:6]).tolist(),
                               (exec_incs[:, 2] + noise[:, 6]).tolist()):
        true_pose = compose(true_pose, Pose2(*inc))
        fused = fuse_increment(SensorIncrement(wheel=tuple(wheel), imu_dtheta=imu))
        est_pose = compose(est_pose, Pose2(*fused))
    return true_pose, est_pose


def pose_bits(pose):
    return np.array(pose.as_tuple(), dtype=float).tobytes()


def test_cycle_wraps_each_increment_heading_before_composing(world):
    # executed headings just below -0.3: wrapping one rounds its low bits, and
    # from a heading of 0.5 the unwrapped sum lands on another float
    rows = [(0.2, 0.05, -0.3), (0.1, 0.0, -0.25)]
    noise = [[0.01, 0.0, -1e-3 * k, 0.0, 0.0, -3e-3 * k, 2e-3 * k] for k in (1, 2)]
    start = Pose2(1.0, 2.0, 0.5)
    state = scripted_cycle(world, start, start, rows, noise)
    want_true, want_est = ref_cycle(start, start, rows, noise)
    assert pose_bits(state.true_pose) == pose_bits(want_true)
    assert pose_bits(state.est_pose) == pose_bits(want_est)
    dth = sim.wrap_angle(-0.3) - 1e-3  # the first step's executed heading
    assert sim.wrap_angle(dth) != dth
    unwrapped = compose_xyt(*start.as_tuple(), 0.21, 0.05, dth)
    assert unwrapped != compose_xyt(*start.as_tuple(), 0.21, 0.05, sim.wrap_angle(dth))
    # a turn beyond pi, executed in shares
    rows = [(0.0, 0.0, 3.5)]
    noise = [[0.0, 0.0, -1e-3, 0.0, 0.0, 1e-3, -1e-3]] * len(ref_split_action(np.array(rows[0]), 0.25))
    state = scripted_cycle(world, start, start, rows, noise)
    want_true, want_est = ref_cycle(start, start, rows, noise)
    assert pose_bits(state.true_pose) == pose_bits(want_true)
    assert pose_bits(state.est_pose) == pose_bits(want_est)


def test_fusion_sums_from_int_zero():
    # sum() starts at int 0, so a lone -0.0 term fuses to +0.0, which a
    # weighted mean written as w * x / w would keep negative
    fused = fuse_sources((-0.0, -0.0, -0.0), -0.0, None)
    assert [math.copysign(1.0, v) for v in fused] == [1.0, 1.0, 1.0]
    assert math.copysign(1.0, 0.5 * -0.0 / 0.5) == -1.0
    want = fuse_increment(SensorIncrement(wheel=(-0.0, -0.0, -0.0), imu_dtheta=-0.0))
    assert np.array(fused).tobytes() == np.array(want).tobytes()
    # in the loop: from (-0.0, -0.0) a zero step keeps y at -0.0 only if it fuses to -0.0
    start = Pose2(-0.0, -0.0, 0.0)
    rows = [(-0.0, -0.0, 0.0)]
    noise = [[0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0]]
    state = scripted_cycle(sim.World(Grid(np.zeros((4, 4), bool), 0.25), sim.TopoMap(), []),
                           start, start, rows, noise)
    _, want_est = ref_cycle(start, start, rows, noise)
    assert pose_bits(state.est_pose) == pose_bits(want_est)
    assert math.copysign(1.0, state.est_pose.y) == 1.0


def test_expert_increments_use_the_wrapped_inverse_heading(worlds48):
    # relative_pose composes with the inverse's heading -theta wrapped; for a
    # positive theta with low bits set, the wrap rounds them
    a = (0.7, -1.3, 0.3 + 1e-16)
    b = (1.0, -1.1, 0.5)
    c, s = math.cos(a[2]), math.sin(a[2])
    unwrapped = compose_xyt(-c * a[0] - s * a[1], s * a[0] - c * a[1], -a[2], *b)
    assert sim.wrap_angle(-a[2]) != -a[2]
    assert relative_xyt(*a, *b) != unwrapped
    assert np.array(relative_xyt(*a, *b)).tobytes() == pose_bits(relative_pose(Pose2(*a), Pose2(*b)))
    # the expert's rows are poses_to_actions' rows, bit for bit, from estimates off the path
    world = worlds48[1]
    (sx, sy), (gx, gy) = world.start_xy[0], world.start_xy[-1]
    ref = sim.oracle_plan(world, Pose2(sx, sy, 0.0), Pose2(gx, gy, 0.0))
    rng = np.random.default_rng(3)
    for k in range(0, len(ref) - 1, 3):
        p = ref[k]
        est = Pose2(p.x + rng.uniform(-0.1, 0.1), p.y + rng.uniform(-0.1, 0.1),
                    p.theta + rng.uniform(-0.5, 0.5))
        got = sim._ExpertPath(ref[-1], ref)
        want = RefExpertPath(world, ref[-1], ref)
        got.index = want.index = max(0, k - 2)
        assert np.array(expert_cycle(world, got, est)).tobytes() == want.actions(est).tobytes()
        assert got.index == want.index


def test_global_fix_re_anchors_the_position_only(world, monkeypatch):
    fix = Pose2(1.25, 2.5, -2.0)
    monkeypatch.setattr(sim, "_global_fix", lambda *args: fix)
    rows = [(0.2, 0.0, 0.4)]
    noise = [[0.01, -0.02, 0.003, 0.004, 0.005, -0.006, 0.007]]
    start = Pose2(1.0, 2.0, 0.3)
    state = scripted_cycle(world, start, start, rows, noise, fix_every=1)
    _, odometry_only = ref_cycle(start, start, rows, noise)
    assert (state.est_pose.x, state.est_pose.y) == (fix.x, fix.y)
    assert state.est_pose.theta == odometry_only.theta != fix.theta


# --- a cycle's noise: one standard-normal block, the values of one rng.normal call -------

SIGMAS = ("exec_trans_sigma", "exec_rot_sigma", "wheel_trans_sigma", "wheel_rot_sigma", "imu_sigma")


def normal_cycle_noise(rng, steps, config):
    """A cycle's noise as one `rng.normal` call over a (steps, 7) scale array:
    the step length times the translation sigmas, plus the rotation sigmas."""
    lengths = [math.hypot(dx, dy) for dx, dy, _ in steps]
    per_metre = np.array([config.exec_trans_sigma, config.exec_trans_sigma, 0.0,
                          config.wheel_trans_sigma, config.wheel_trans_sigma, 0.0, 0.0])
    fixed = np.array([0.0, 0.0, config.exec_rot_sigma, 0.0, 0.0, config.wheel_rot_sigma,
                      config.imu_sigma])
    return rng.normal(0.0, np.array(lengths)[:, None] * per_metre + fixed)


class CallCountingRng:
    """A seeded generator that lists the name of every method called on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.Generator(np.random.PCG64(seed)), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


_offset = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.25, 0.25))
_sigmas = st.one_of(st.sampled_from([(0.0,) * 5, (1.0,) * 5]),
                    st.tuples(*[st.floats(0.0, 1.0)] * 5))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(_offset, _offset, st.floats(-0.5, 0.5)), max_size=12),
       sigmas=_sigmas)
def test_cycle_noise_is_one_normal_call_bit_for_bit(seed, steps, sigmas):
    config = sim.NavConfig(planner="oracle", **dict(zip(SIGMAS, sigmas)))
    got_rng, want_rng = CallCountingRng(seed), np.random.default_rng(seed)
    got = sim._cycle_noise(got_rng, steps, config)
    want = normal_cycle_noise(want_rng, steps, config)
    assert got_rng.calls == ["standard_normal"]
    assert all(type(row) is tuple and len(row) == 7 for row in got)
    assert np.array(got, dtype=float).reshape(-1, 7).tobytes() == want.tobytes()
    # both read the same stretch of the stream
    assert got_rng.rng.bit_generator.state == want_rng.bit_generator.state


def test_cycle_noise_of_rotations_in_place_and_zero_sigmas():
    # a turn beyond pi splits into a share with translation and rotations in place
    steps = [tuple(s) for s in ref_split_action(np.array([0.1, -0.05, 3.5]), 0.25).tolist()]
    steps += [(0.0, 0.0, 0.2), (-0.0, -0.0, -0.2)]
    assert any(dx == dy == 0.0 for dx, dy, _ in steps)
    for sigmas in [(0.0,) * 5, (1.0,) * 5, (0.02, 0.01, 0.02, 0.01, 0.005)]:
        config = sim.NavConfig(planner="oracle", **dict(zip(SIGMAS, sigmas)))
        got = sim._cycle_noise(np.random.default_rng(7), steps, config)
        want = normal_cycle_noise(np.random.default_rng(7), steps, config)
        assert np.array(got).tobytes() == want.tobytes()
        # a rotation in place draws translation noise of +0.0, never -0.0
        for (dx, dy, _), row in zip(steps, got):
            if dx == dy == 0.0:
                assert [math.copysign(1.0, v) for v in row[:2] + row[3:5]] == [1.0] * 4
        if sigmas[0] == 0.0:
            assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for row in got for v in row)


def test_cycle_noise_of_non_finite_steps():
    # an infinite step's length times 0.0 is NaN, so its rotation sigmas are too
    steps = [(math.inf, 0.0, 0.1), (0.1, math.nan, 0.0), (0.2, 0.1, 0.0)]
    config = sim.NavConfig(planner="oracle")
    got = sim._cycle_noise(np.random.default_rng(3), steps, config)
    with np.errstate(invalid="ignore"):
        want = normal_cycle_noise(np.random.default_rng(3), steps, config)
    assert np.isnan(got[0][2]) and np.isnan(got[1][6])
    assert np.array_equal(np.array(got), want, equal_nan=True)


def test_each_cycle_makes_one_generator_call(worlds48, monkeypatch):
    world = worlds48[0]
    start, goal = Pose2(*world.start_xy[0], 0.4), Pose2(*world.start_xy[-1], 0.0)
    rngs, cycles = [], []
    cycle_noise = sim._cycle_noise

    def counting_noise(rng, steps, config):
        cycles.append(len(steps))
        return cycle_noise(rng, steps, config)

    def counting_rng(seed):
        rngs.append(CallCountingRng(seed))
        return rngs[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(sim, "_cycle_noise", counting_noise)
    report = sim.run_episode(world, goal, sim.NavConfig(planner="oracle"), seed=5, start=start)
    assert report.success and len(cycles) >= 10 and len(rngs) == 1
    assert rngs[0].calls == ["standard_normal"] * len(cycles)


# --- what the loop builds: per control cycle and per fix, never per step -----------------

def test_loop_builds_pose_objects_per_cycle_not_per_step(worlds48, monkeypatch):
    world = worlds48[0]
    start, goal = Pose2(*world.start_xy[0], 0.4), Pose2(*world.start_xy[-1], 0.0)
    counts = {"Pose2": 0, "fuse_increment": 0, "cycles": 0, "fixes": 0}
    inside_plan = [0]
    ends = []

    class CountingPose2(Pose2):
        def __post_init__(self):
            if not inside_plan[0]:
                counts["Pose2"] += 1
            super().__post_init__()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    oracle_plans, end_episode = sim.oracle_plans, sim._end_episode

    def tracked_plans(requests):
        inside_plan[0] += 1
        try:
            return oracle_plans(requests)
        finally:
            inside_plan[0] -= 1

    def recording_end(state):
        ends.append(state.executed)
        return end_episode(state)

    counting(odometry, "fuse_increment", "fuse_increment")
    counting(sim, "fuse_increment", "fuse_increment")
    counting(sim._ExpertPath, "actions", "cycles")
    counting(sim, "_global_fix", "fixes")
    monkeypatch.setattr(sim, "oracle_plans", tracked_plans)
    monkeypatch.setattr(sim, "_end_episode", recording_end)
    monkeypatch.setattr(sim, "Pose2", CountingPose2)
    report = sim.run_episode(world, goal, sim.NavConfig(planner="oracle"), seed=5, start=start)
    steps = ends[0]
    assert report.success and counts["fixes"] >= 3 and counts["cycles"] >= 10
    assert counts["fuse_increment"] == 0
    # one estimate at set-up, two poses at the end of each cycle, one true pose per fix
    # after the first, which takes the start pose as it is
    assert counts["Pose2"] == 1 + 2 * counts["cycles"] + counts["fixes"] - 1
    assert counts["Pose2"] < steps


def test_model_cycle_builds_no_pose_per_plan_pose(worlds48, eval_model, monkeypatch):
    world = worlds48[0]
    start, goal = Pose2(*world.start_xy[0], 0.4), Pose2(*world.start_xy[-1], 0.0)
    config = sim.NavConfig(planner="model", fallback=True)
    counts = {"Pose2": 0, "forward": 0, "forward_cached": 0, "arc_lengths": 0, "fixes": 0}
    per_plan = []
    inside_plan = [0]

    class CountingPose2(Pose2):
        def __post_init__(self):
            if not inside_plan[0]:
                counts["Pose2"] += 1
            super().__post_init__()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    oracle_plans, plan_sample = sim.oracle_plans, sim.plan_sample

    def tracked_plans(requests):
        inside_plan[0] += 1
        try:
            return oracle_plans(requests)
        finally:
            inside_plan[0] -= 1

    def tracked_sample(*args):
        before = counts["Pose2"]
        plan = plan_sample(*args)
        per_plan.append(counts["Pose2"] - before)
        return plan

    counting(planner.VectorFieldModel, "forward", "forward")
    counting(planner.VectorFieldModel, "_forward_cached", "forward_cached")
    counting(sim, "_arc_lengths", "arc_lengths")
    counting(sim, "_global_fix", "fixes")
    monkeypatch.setattr(sim, "oracle_plans", tracked_plans)
    monkeypatch.setattr(sim, "plan_sample", tracked_sample)
    monkeypatch.setattr(geom, "Pose2", CountingPose2)
    monkeypatch.setattr(planner, "Pose2", CountingPose2)
    monkeypatch.setattr(sim, "Pose2", CountingPose2)
    report = sim.run_episode(world, goal, config, eval_model, seed=5, start=start)
    calls = report.planner_calls
    assert report.reason != "stuck" and calls >= 10 and counts["fixes"] >= 3
    # a plan's poses are one array
    assert per_plan == [0] * calls
    # one estimate at set-up; per cycle the subgoal, the subgoal in the ego frame and
    # two poses at its end; one true pose per fix after the first, which takes the start
    assert counts["Pose2"] == 1 + calls * (2 + 2) + counts["fixes"] - 1
    # one pass per Euler step, each the one layer loop, and the node path's arc
    # lengths once per episode
    assert counts["forward"] == sim._EULER_STEPS * calls
    assert counts["forward_cached"] == counts["forward"]
    assert counts["arc_lengths"] == 1


# the bench's spans of a model cycle, and where it patches each (bench/workloads.py TRACED)
MODEL_CYCLE_SPANS = {
    "planner.sample": (sim, "plan_sample"),
    "planner.collision_check": (sim, "collision_check"),
    "planner.occupancy_features": (sim, "occupancy_features"),
    "planner.VectorFieldModel.forward": (planner.VectorFieldModel, "forward"),
    "esdf.sample_bilinear": (sim, "sample_bilinear"),
}


def count_bench_spans(monkeypatch):
    """Counters of the bench's model-cycle spans, patched where the bench patches them."""
    # a refactor that stops calling a name the bench patches would zero its layer silently
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    traced = importlib.import_module("workloads").TRACED
    counts = dict.fromkeys(MODEL_CYCLE_SPANS, 0)
    for name, site in MODEL_CYCLE_SPANS.items():
        assert site in traced[name]
        for owner, attr in traced[name]:
            original = getattr(owner, attr)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)
    return counts


def test_bench_spans_of_a_model_cycle_stay_live(worlds48, eval_model, monkeypatch):
    counts = count_bench_spans(monkeypatch)
    world = worlds48[1]
    config = sim.NavConfig(planner="model", fallback=True)
    report = sim.run_episode(world, Pose2(*world.start_xy[-1], 0.0), config, eval_model, seed=2,
                             start=Pose2(*world.start_xy[0], 0.0))
    calls = report.planner_calls
    assert calls >= 5
    # one episode is one world group per cycle: one encoding per plan
    assert counts["planner.sample"] == calls
    assert counts["planner.occupancy_features"] == calls
    assert counts["planner.VectorFieldModel.forward"] == sim._EULER_STEPS * calls
    # the loop checks plans with `plans_collide`; the bench's collision_check layer
    # reads 0 until the bench refresh (ROADMAP item 6) traces the batched check
    assert counts["planner.collision_check"] == 0
    # the occupancy ring and the plan check of every cycle, then the episode's lookup
    assert counts["esdf.sample_bilinear"] >= 2 * calls + 1


def test_bench_spans_of_a_lock_step_suite_stay_live(worlds48, eval_model, monkeypatch):
    counts = count_bench_spans(monkeypatch)
    planning, groups = [], []
    plan_phase = sim._plan_phase

    def recording_phase(states):
        planning.append(len(states))
        groups.append(len({id(state.world) for state in states}))
        return plan_phase(states)

    monkeypatch.setattr(sim, "_plan_phase", recording_phase)
    suite = sim.eval_suite(worlds48, 9, sim.NavConfig(planner="model", fallback=True), eval_model, 0)
    plans = sum(r["planner_calls"] for r in suite["reports"])
    cycles = sum(1 for n in planning if n)
    assert plans == sum(planning) > sum(groups) > cycles >= 5
    # one sample per lock-step cycle in which any episode plans, one pass per
    # Euler step of it, and one occupancy encoding per (cycle, world) group
    assert counts["planner.sample"] == cycles
    assert counts["planner.VectorFieldModel.forward"] == sim._EULER_STEPS * cycles
    assert counts["planner.occupancy_features"] == sum(groups)
    # the loop checks plans with `plans_collide`; the bench's collision_check layer
    # reads 0 until the bench refresh (ROADMAP item 6) traces the batched check
    assert counts["planner.collision_check"] == 0
    # per group the occupancy rings and the plans' check, then each episode's lookup
    assert counts["esdf.sample_bilinear"] >= 2 * sum(groups) + 9


def test_bench_tracing_leaves_a_lock_step_suite_unchanged(worlds48, eval_model, monkeypatch):
    # the bench patches every layer of TRACED on every workload, and flags
    # `sim.collision_check`'s result with `bool`: the loop must keep each name
    # it patches and pass no batch through a scalar flag. Three episodes per
    # world make world groups of up to three plans, which the bench's smoke
    # run, one episode per world, never builds.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    config = sim.NavConfig(planner="model", fallback=True)
    untraced = sim.eval_suite(worlds48, 9, config, eval_model, 0)
    with workloads.patch_layers(tracing.Tracer()) as tracer:
        traced = sim.eval_suite(worlds48, 9, config, eval_model, 0)
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
    names = [span.name for span in tracer.spans]
    assert names.count("planner.occupancy_features") < sum(r["planner_calls"] for r in traced["reports"])
    assert sim.occupancy_features is planner.occupancy_features
    assert sim.collision_check is planner.collision_check


# --- node paths: the search that stops at the goal, and the reachability test -----------

def test_shortest_path_matches_exhaustive_search_on_every_pair(worlds48):
    rng = np.random.default_rng(12)
    for world in worlds48:
        topo = world.map
        ids = sorted(topo.nodes)
        for a in ids:
            # with lengths >= 0 a goal's own entry is the same whether or not it is expanded
            best = ref_best_paths(topo, a)
            for b in ids:
                want = [a] if a == b else list(best[b][1])
                assert topo.shortest_path(a, b) == want
                assert topo.connected(a, b)
        for a, b in rng.choice(ids, size=(40, 2)).tolist():
            assert topo.shortest_path(a, b) == ref_shortest_path(topo, a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shortest_path_matches_reference_on_ties_and_zero_lengths(data):
    # few distinct lengths, zeros among them, make many equal-cost paths, which
    # the id sequence decides; ids of unequal length make that order non-trivial
    pool = ["a", "b", "c", "aa", "ab", "b1", "b10", "b2", "z"]
    ids = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True), label="ids")
    topo = sim.TopoMap()
    for nid in ids:
        topo.add_node(sim.MapNode(nid, sim._pose6(0.0, 0.0)))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    edges = data.draw(st.lists(pair, max_size=16), label="edges")
    topo.add_edges((a, b, sim._pose6(length, 0.0)) for a, b, length in edges if a != b)
    for a in ids:
        for b in ids:
            want = ref_shortest_path(topo, a, b)
            assert topo.shortest_path(a, b) == want
            assert topo.connected(a, b) == bool(want)


def test_graph_queries_follow_new_nodes_and_edges():
    topo = sim.TopoMap()
    for nid in ("a", "b", "c"):
        topo.add_node(sim.MapNode(nid, sim._pose6(0.0, 0.0)))
    topo.add_edges([("a", "b", sim._pose6(1.0, 0.0))])
    assert topo.shortest_path("a", "c") == [] and not topo.connected("a", "c")
    topo.add_edges([("b", "c", sim._pose6(1.0, 0.0))])
    assert topo.shortest_path("a", "c") == ["a", "b", "c"] and topo.connected("a", "c")
    topo.add_edges([("a", "c", sim._pose6(1.5, 0.0))])
    assert topo.shortest_path("a", "c") == ["a", "c"]
    topo.add_node(sim.MapNode("d", sim._pose6(0.0, 0.0)))
    assert not topo.connected("a", "d") and topo.shortest_path("d", "a") == []
    with pytest.raises(MapError, match="missing node"):
        topo.connected("a", "zz")


def test_oracle_episode_with_the_goal_node_cut_off_is_stuck(worlds48):
    # the grid still joins start and goal, so only the node graph says no
    world = worlds48[2]
    start_xy, goal_xy = world.start_xy[0], world.start_xy[-1]
    goal_node = sim._nearest_node(world.map, Pose2(*goal_xy, 0.0))
    data = world.map.to_jsonable()
    data["edges"] = [e for e in data["edges"] if goal_node not in e["nodes"]]
    cut = sim.World(world.grid, sim.TopoMap.from_jsonable(data), world.start_xy, world.seed)
    start, goal = Pose2(*start_xy, 0.3), Pose2(*goal_xy, 0.0)
    for config in (sim.NavConfig(planner="oracle"), sim.NavConfig(planner="oracle", **NOISE_FREE)):
        assert sim.run_episode(world, goal, config, seed=1, start=start).reason == "reached"
        report = sim.run_episode(cut, goal, config, seed=1, start=start)
        assert (report.success, report.reason) == (False, "stuck")
        assert report.to_jsonable() == ref_run_episode(cut, goal, config, seed=1, start=start).to_jsonable()


def test_learn_layers_stay_live(monkeypatch):
    # the benchmark's traced learn round counts these layers where
    # bench/workloads.py hooks them; a refactor that stops calling a hooked
    # name would silently zero its layer. The dataset plans its pairs in
    # `sim.oracle_plans` batches, which the bench does not trace (its
    # `sim.oracle_plan` layer reads 0 until ROADMAP item 6), so that name is
    # counted here.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    counts = dict.fromkeys(("esdf.make_mask", "planner.planning_loss"), 0)
    for name in counts:
        for owner, attr in workloads.TRACED[name]:
            def counting(*args, _name=name, _original=getattr(owner, attr), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
    sizes = workloads.SMOKE
    worlds = [sim.generate_world(s, workloads.NAV_WORLD_SIZE) for s in workloads.NAV_WORLD_SEEDS]
    _, batches = counting_requests(monkeypatch, worlds)
    data = sim.build_planning_dataset(worlds, sizes.learn_samples_per_world, seed=0)
    assert len(data) == sizes.learn_samples_per_world * len(worlds)
    assert counts["esdf.make_mask"] == len(data)
    assert len(batches) > 0
    config = workloads.Learn().train_config(sizes, 0.1)
    planner.train(data, config)
    assert counts["planner.planning_loss"] == config.epochs * -(-len(data) // config.batch_size)
