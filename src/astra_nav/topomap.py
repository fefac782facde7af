"""Hybrid topological-semantic map: nodes, undirected edges, landmark registry.

Nodes carry full 6-DoF poses (position + quaternion) as given by the mapping
stage; landmarks keep a centralized registry of every node they are visible
from, and nodes hold the symmetric back-references. Nodes enter one at a
time through `add_node` and edges in batches through `add_edges`, each
checked as it comes; a generated lattice enters whole through
`from_lattice`, which checks its batch once. An edge's weight is the
Euclidean norm of its relative translation. A map file gives each edge's
length, and `from_jsonable` refuses one that is negative, NaN or infinite,
as no path cost over it would mean anything; `validate` flags such a
length, and a non-finite node pose, on a map built in code. It also refuses
a file whose ids, id lists or records are not of their JSON types.

A map keeps three caches, each built on first use and dropped by the
methods that change what it is built from:

- The node index, read by queries over all nodes (`spatial_query`,
  localization's reference nodes, the simulator's nearest node): the sorted
  node ids with their positions (N, 3) and quaternions (N, 4) as arrays, and
  the reference nodes localization has ranked for each node it was asked
  about, since a ranking depends on node poses alone. `from_lattice`
  builds it with the map, from the arrays it is given; any other map builds
  it on first use. `add_node` (`from_jsonable` goes through it too) drops
  it; node poses are not reassigned after.
- The sightings, built from the landmark registry: the landmark-bearing
  nodes in id order with their planar positions, which the simulator's
  observations read, and the match memo, which localization fills with the
  registry landmarks each distinct observation matches. `add_node`,
  `register_landmark` and `merge_covisible` drop them, since they change
  which nodes bear landmarks and what the landmarks are.
- The graph, read by `shortest_path` and `connected`: the adjacency lists
  and the connected-component label of each node, dropped by `add_node` and
  `add_edges`; `from_jsonable` fills in the edges and landmarks before any
  query. The labels come from `node_components`, the one component
  labelling of a graph given as index pairs, which the simulator calls too:
  on the links of a candidate lattice, and on the graph of the runs of free
  cells in a grid's rows that touch, whose labels are the grid's
  8-connected components.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MapError, check_landmark_text, is_finite_number, is_finite_triple, read_json
from .geom import Pose2


@dataclass(frozen=True, init=False)
class Pose6:
    """Position (x, y, z) plus orientation quaternion (w, x, y, z), each
    converted once to a tuple of floats."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    quaternion: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __init__(self, position=(0.0, 0.0, 0.0), quaternion=(1.0, 0.0, 0.0, 0.0)):
        position, quaternion = tuple(map(float, position)), tuple(map(float, quaternion))
        if len(position) != 3 or len(quaternion) != 4:
            raise ValueError(f"a pose needs three position and four quaternion numbers, got "
                             f"{position!r} and {quaternion!r}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "quaternion", quaternion)

    def planar(self) -> Pose2:
        """Project to the ground plane: (x, y, yaw)."""
        w, qx, qy, qz = self.quaternion
        yaw = math.atan2(2.0 * (w * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
        return Pose2(self.position[0], self.position[1], yaw)

    def angle_to(self, other: "Pose6") -> float:
        """Rotation angle (radians) between the two orientations."""
        dot = abs(sum(a * b for a, b in zip(self.quaternion, other.quaternion)))
        return 2.0 * math.acos(min(1.0, dot))

    def to_jsonable(self) -> dict:
        return {"position": list(self.position), "quaternion": list(self.quaternion)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Pose6":
        """A JSON pose: "position" a list of three finite numbers and
        "quaternion" a list of four. Anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a pose must be a JSON object, got {data!r}")
        position, quaternion = data["position"], data["quaternion"]
        if not (is_finite_triple(position) and isinstance(quaternion, list)
                and len(quaternion) == 4 and all(map(is_finite_number, quaternion))):
            raise ValueError(f"a pose needs three finite position and four finite quaternion "
                             f"numbers, got {data!r}")
        return cls(tuple(position), tuple(quaternion))


_NO_ROTATION = (1.0, 0.0, 0.0, 0.0)


def _pose(position: tuple, quaternion: tuple) -> Pose6:
    """The Pose6 of a tuple of three floats and one of four, taken as they
    are, without `Pose6.__init__`'s conversion and checks."""
    pose = object.__new__(Pose6)
    object.__setattr__(pose, "position", position)
    object.__setattr__(pose, "quaternion", quaternion)
    return pose


@dataclass
class MapNode:
    id: str
    pose: Pose6
    image_ref: str = ""
    landmark_ids: set[str] = field(default_factory=set)


@dataclass
class MapEdge:
    """Undirected edge; endpoints are stored sorted so (a, b) == (b, a)."""

    a: str
    b: str
    relative_pose: Pose6
    length: float

    def key(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass
class Landmark:
    id: str
    category: str
    visual_attributes: dict[str, str] = field(default_factory=dict)
    functional_description: str | None = None
    node_ids: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class _NodeIndex:
    """The nodes of a map in id order: `ids` sorted, `row` the position of
    each id in it, and each node's position (N, 3) and quaternion (N, 4).
    `references` maps (k, node id) to the k nearest reference ids of that
    node, as localization ranks them; it is filled in by localization as
    nodes are asked about and goes with the index."""

    ids: tuple[str, ...]
    row: dict[str, int]
    positions: np.ndarray
    quaternions: np.ndarray
    references: dict[tuple[int, str], list[str]] = field(default_factory=dict, compare=False)

    def distances(self, centers: np.ndarray) -> np.ndarray:
        """3-D distance from a center (3,) or from each of centers (C, 3) to
        every node: (N,) or (C, N). Each is the norm `np.linalg.norm` gives
        the node's offset, sqrt of the same dot product, so bit for bit; an
        offset whose square overflows is +inf away, without a warning."""
        d = self.positions - np.asarray(centers, dtype=float)[..., None, :]
        with np.errstate(over="ignore"):
            return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class _Sightings:
    """The landmark-bearing nodes of a map in id order, `ids`, with the x and
    y of each, and `matches`, the match memo: localization maps an
    observation's key (canonical category, normalized attribute items) to the
    (landmark id, score) pairs it matches, and the memo goes with the
    registry it was computed from."""

    ids: tuple[str, ...]
    x: tuple[float, ...]
    y: tuple[float, ...]
    matches: dict[tuple, tuple[tuple[str, float], ...]] = field(default_factory=dict, compare=False)


def nearest_node(ids, xs, ys, x: float, y: float) -> tuple[str | None, float]:
    """Of the nodes ids[k] at (xs[k], ys[k]), given in id order, the one
    nearest (x, y) in the plane by `math.hypot`, the first (lowest id) on a
    tie, and its distance; (None, inf) when there is no node."""
    d = list(map(math.hypot, [a - x for a in xs], [b - y for b in ys]))
    if not d:
        return None, math.inf
    k = d.index(min(d))
    return ids[k], d[k]


def node_components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The connected component of each of nodes 0..n-1 under the links
    i[k]-j[k], as labels (n,): every node carries the lowest index in its
    component.

    Each node starts labelled with its own index, and a label is never above
    its node. A pass hooks the higher of the two labels of every link whose
    ends still differ to the lower one, then jumps pointers (each node takes
    the label of its label) until no label changes, so every label is again
    a node labelled with itself (hooking and pointer jumping, Shiloach &
    Vishkin, J. Algorithms 1982). A chain of hooks collapses within one pass:
    a path takes one pass numbered in order and log2 n numbered in
    bit-reversed order, which each pass halves, where one-hop propagation
    takes a pass per link of its length. The passes stop when both ends of
    every link carry one label, the component's lowest index: its lowest
    node can be hooked to nothing lower, and every node of the component
    ends on its label."""
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        differ = li != lj
        if not differ.any():
            return label
        li, lj = li[differ], lj[differ]
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


class TopoMap:
    """The map G = (nodes, edges, landmarks) with symmetric cross-references."""

    def __init__(self):
        self.nodes: dict[str, MapNode] = {}
        self.edges: dict[tuple[str, str], MapEdge] = {}
        self.landmarks: dict[str, Landmark] = {}
        self._index: _NodeIndex | None = None
        self._graph: tuple[dict[str, list[tuple[str, float]]], dict[str, int]] | None = None
        self._sightings: _Sightings | None = None

    # -- construction ---------------------------------------------------------

    def add_node(self, node: MapNode) -> "TopoMap":
        if node.id in self.nodes:
            raise MapError(f"duplicate node id: {node.id!r}")
        self.nodes[node.id] = node
        self._index = self._graph = self._sightings = None
        return self

    @classmethod
    def from_lattice(cls, ids, xy: np.ndarray, image_refs, order, i: np.ndarray,
                     j: np.ndarray) -> "TopoMap":
        """A map of planar nodes and straight links, built in one pass.

        The nodes are given in id order: `ids` sorted and unique, `xy` (N, 2)
        their positions on the ground plane (z 0, no rotation) and
        `image_refs` their image references; `order` lists their rows in the
        order they enter the map. Link k joins rows i[k] < j[k]; the links
        enter in the order given, each with the pose of its translation
        xy[j[k]] - xy[i[k]], one shared pose and one `np.linalg.norm` length
        per distinct translation, as `add_edges` computes them. The node
        index is built here too, from the same arrays.

        Raises MapError, before any map is built, unless the ids are sorted
        and unique, `order` is a permutation of the rows and every link's
        rows are in range with i < j; a link given twice raises it too."""
        ids = tuple(ids)
        n = len(ids)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        order, i, j = (np.asarray(a, dtype=np.intp).ravel() for a in (order, i, j))
        if not len(xy) == len(image_refs) == len(order) == n or len(i) != len(j):
            raise MapError(f"a lattice of {n} ids needs as many positions, image references and "
                           f"rows in order, and one j per i; got {len(xy)}, {len(image_refs)} and "
                           f"{len(order)}, and {len(j)} j for {len(i)} i")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise MapError("lattice node ids must be sorted and unique")
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise MapError("lattice node order must list every row once")
        if len(i) and not (i.min() >= 0 and (i < j).all() and j.max() < n):
            raise MapError(f"lattice links must join rows i < j of the {n} nodes")
        m = cls()
        x, y = xy.T.tolist()
        nodes = m.nodes
        for k in order.tolist():
            nid = ids[k]
            nodes[nid] = MapNode(nid, _pose((x[k], y[k], 0.0), _NO_ROTATION), image_refs[k], set())
        poses, edges = {}, m.edges
        d = xy[j] - xy[i]
        for a, b, dx, dy in zip(i.tolist(), j.tolist(), d[:, 0].tolist(), d[:, 1].tolist()):
            shared = poses.get((dx, dy))
            if shared is None:
                position = (dx, dy, 0.0)
                shared = poses[dx, dy] = (_pose(position, _NO_ROTATION),
                                          float(np.linalg.norm(position)))
            a_id, b_id = ids[a], ids[b]
            edges[a_id, b_id] = MapEdge(a_id, b_id, *shared)
        if len(edges) != len(i):
            raise MapError(f"lattice links must be distinct: {len(i)} given, {len(edges)} distinct")
        positions = np.zeros((n, 3))
        positions[:, :2] = xy
        m._index = _NodeIndex(ids, dict(zip(ids, range(n))), positions,
                              np.tile(np.array(_NO_ROTATION), (n, 1)))
        return m

    def add_edges(self, edges) -> "TopoMap":
        """Add each (a id, b id, relative pose) of `edges` as an undirected
        edge under its sorted key, replacing an edge already there. Its
        length is the norm of the pose's translation, computed once per
        distinct translation in the call: translations that compare equal
        differ at most in the sign of a zero, which the norm ignores.

        A self-loop or a missing endpoint raises MapError naming the edge;
        the edges before it stay added."""
        nodes, stored, lengths = self.nodes, self.edges, {}
        try:
            for a_id, b_id, relative_pose in edges:
                if a_id == b_id:
                    raise MapError(f"self-loop edge ({a_id!r}, {b_id!r})")
                if a_id not in nodes or b_id not in nodes:
                    missing = a_id if a_id not in nodes else b_id
                    raise MapError(f"edge ({a_id!r}, {b_id!r}) endpoint {missing!r} does not exist")
                a, b = (a_id, b_id) if a_id < b_id else (b_id, a_id)
                position = relative_pose.position
                length = lengths.get(position)
                if length is None:
                    length = lengths[position] = float(np.linalg.norm(position))
                stored[a, b] = MapEdge(a, b, relative_pose, length)
        finally:
            self._graph = None
        return self

    def register_landmark(self, node_id: str, landmark: Landmark) -> "TopoMap":
        """Attach a landmark sighting to a node, extending the registry if the id is known."""
        if node_id not in self.nodes:
            raise MapError(f"cannot register landmark on missing node {node_id!r}")
        existing = self.landmarks.get(landmark.id)
        if existing is None:
            entry = Landmark(
                landmark.id,
                landmark.category,
                dict(landmark.visual_attributes),
                landmark.functional_description,
                set(),
            )
            self.landmarks[landmark.id] = entry
        else:
            entry = existing
        entry.node_ids.add(node_id)
        self.nodes[node_id].landmark_ids.add(landmark.id)
        self._sightings = None
        return self

    def merge_covisible(self, lid_a: str, lid_b: str) -> list[str]:
        """Merge two landmark entries that describe the same physical landmark.

        The lexicographically smaller id survives with unioned node sets and
        attributes. Returns a list of attribute-conflict warnings; conflicting
        categories are an error.
        """
        for lid in (lid_a, lid_b):
            if lid not in self.landmarks:
                raise MapError(f"missing landmark: {lid!r}")
        if lid_a == lid_b:
            return []
        keep_id, drop_id = sorted((lid_a, lid_b))
        keep, drop = self.landmarks[keep_id], self.landmarks[drop_id]
        if keep.category != drop.category:
            raise MapError(
                f"category conflict merging {drop_id!r} into {keep_id!r}: "
                f"{keep.category!r} vs {drop.category!r}"
            )
        self._sightings = None
        warnings = []
        for key, value in drop.visual_attributes.items():
            if key in keep.visual_attributes and keep.visual_attributes[key] != value:
                warnings.append(
                    f"attribute {key!r}: kept {keep.visual_attributes[key]!r}, "
                    f"dropped {value!r} from {drop_id!r}"
                )
            else:
                keep.visual_attributes.setdefault(key, value)
        if keep.functional_description is None:
            keep.functional_description = drop.functional_description
        keep.node_ids |= drop.node_ids
        for nid in drop.node_ids:
            node = self.nodes[nid]
            node.landmark_ids.discard(drop_id)
            node.landmark_ids.add(keep_id)
        del self.landmarks[drop_id]
        return warnings

    # -- queries --------------------------------------------------------------

    def node_index(self) -> _NodeIndex:
        """The node index (see the module docstring), built on first use."""
        if self._index is None:
            ids = sorted(self.nodes)
            poses = [self.nodes[nid].pose for nid in ids]
            self._index = _NodeIndex(
                tuple(ids),
                {nid: k for k, nid in enumerate(ids)},
                np.array([p.position for p in poses], dtype=float).reshape(len(ids), 3),
                np.array([p.quaternion for p in poses], dtype=float).reshape(len(ids), 4),
            )
        return self._index

    def sightings(self) -> _Sightings:
        """The sightings (see the module docstring), built on first use."""
        if self._sightings is None:
            index = self.node_index()
            rows = [k for k, nid in enumerate(index.ids) if self.nodes[nid].landmark_ids]
            x, y = index.positions[rows, :2].T.tolist()
            self._sightings = _Sightings(tuple(index.ids[k] for k in rows), tuple(x), tuple(y))
        return self._sightings

    def nodes_for_landmark(self, lid: str) -> set[str]:
        if lid not in self.landmarks:
            raise MapError(f"missing landmark: {lid!r}")
        return set(self.landmarks[lid].node_ids)

    def spatial_query(self, center, r: float) -> set[str]:
        """All node ids whose 3D position is within r meters of center (inclusive)."""
        if r < 0:
            raise MapError(f"negative search radius: {r}")
        c = np.asarray(center, dtype=float).reshape(3)
        index = self.node_index()
        return {index.ids[k] for k in np.flatnonzero(index.distances(c) <= r).tolist()}

    def _adjacency(self) -> tuple[dict[str, list[tuple[str, float]]], dict[str, int]]:
        """Each node's (neighbor, edge length) list, in edge order, and each
        node's component label, the lowest row of its component in the node
        index, built on first use (see the module docstring)."""
        if self._graph is None:
            adj: dict[str, list[tuple[str, float]]] = {nid: [] for nid in self.nodes}
            for (a, b), edge in self.edges.items():
                adj[a].append((b, edge.length))
                adj[b].append((a, edge.length))
            index = self.node_index()
            rows = np.array([(index.row[a], index.row[b]) for a, b in self.edges], dtype=np.intp)
            i, j = rows.reshape(-1, 2).T
            label = dict(zip(index.ids, node_components(len(index.ids), i, j).tolist()))
            self._graph = (adj, label)
        return self._graph

    def connected(self, from_id: str, to_id: str) -> bool:
        """Whether an edge path joins the two nodes."""
        for nid in (from_id, to_id):
            if nid not in self.nodes:
                raise MapError(f"missing node: {nid!r}")
        _, label = self._adjacency()
        return label[from_id] == label[to_id]

    def shortest_path(self, from_id: str, to_id: str) -> list[str]:
        """Minimum-total-length node path; ties broken by lexicographic id sequence.

        Returns [] when the two nodes are disconnected. Entries are popped in
        order of (cost, path); with edge lengths >= 0 an extended entry sorts
        after the one it extends, so the first pop of a node is its best and
        the search ends at the first pop of the goal.
        """
        for nid in (from_id, to_id):
            if nid not in self.nodes:
                raise MapError(f"missing node: {nid!r}")
        if from_id == to_id:
            return [from_id]
        adj, _ = self._adjacency()
        done: set[str] = set()
        heap = [(0.0, (from_id,), from_id)]
        while heap:
            cost, path, nid = heapq.heappop(heap)
            if nid == to_id:
                return list(path)
            if nid in done:
                continue
            done.add(nid)
            for nxt, length in adj[nid]:
                if nxt not in done:
                    heapq.heappush(heap, (cost + length, path + (nxt,), nxt))
        return []

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ValidationReport":
        violations = []
        for nid, node in self.nodes.items():
            if node.id != nid:
                violations.append(f"node key {nid!r} disagrees with node id {node.id!r}")
            for lid in node.landmark_ids:
                if lid not in self.landmarks:
                    violations.append(f"node {nid!r} references missing landmark {lid!r}")
                elif nid not in self.landmarks[lid].node_ids:
                    violations.append(
                        f"node {nid!r} references landmark {lid!r} without back-reference"
                    )
        index = self.node_index()
        finite = np.isfinite(index.positions).all(axis=1) & np.isfinite(index.quaternions).all(axis=1)
        for k in np.flatnonzero(~finite).tolist():
            violations.append(f"node {index.ids[k]!r} has a non-finite pose")
        nodes = self.nodes
        for key, edge in self.edges.items():
            a, b = edge.a, edge.b
            if key != (a, b) or a > b:
                violations.append(f"edge key {key!r} not in canonical sorted form")
            if a == b:
                violations.append(f"self-loop edge on {a!r}")
            if a not in nodes or b not in nodes:
                violations += [f"edge {key!r} endpoint {nid!r} does not exist"
                               for nid in (a, b) if nid not in nodes]
            if not 0.0 <= edge.length < math.inf:
                kind = "negative" if edge.length < 0 else "non-finite"
                violations.append(f"edge {key!r} has {kind} length")
        for lid, lm in self.landmarks.items():
            if lm.id != lid:
                violations.append(f"landmark key {lid!r} disagrees with landmark id {lm.id!r}")
            if not lm.node_ids:
                violations.append(f"landmark {lid!r} has an empty node registry")
            for nid in lm.node_ids:
                if nid not in self.nodes:
                    violations.append(f"landmark {lid!r} references missing node {nid!r}")
                elif lid not in self.nodes[nid].landmark_ids:
                    violations.append(
                        f"landmark {lid!r} references node {nid!r} without back-reference"
                    )
        return ValidationReport(not violations, violations)

    # -- persistence ----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "pose": n.pose.to_jsonable(),
                    "image_ref": n.image_ref,
                    "landmark_ids": sorted(n.landmark_ids),
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "edges": [
                {
                    "nodes": [e.a, e.b],
                    "relative_pose": e.relative_pose.to_jsonable(),
                    "length": e.length,
                }
                for e in sorted(self.edges.values(), key=lambda e: e.key())
            ],
            "landmarks": [
                {
                    "id": lm.id,
                    "category": lm.category,
                    "visual_attributes": dict(sorted(lm.visual_attributes.items())),
                    "functional_description": lm.functional_description,
                    "node_ids": sorted(lm.node_ids),
                }
                for lm in sorted(self.landmarks.values(), key=lambda lm: lm.id)
            ],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_jsonable(cls, data: dict) -> "TopoMap":
        """The map of a JSON document. Its "nodes", "edges" and "landmarks"
        are lists of objects; node, landmark and edge-end ids are strings,
        and a node's "landmark_ids" and a landmark's "node_ids" are lists of
        them. Anything else raises MapError naming the record, as
        `nodes[i]`, `edges[i]` or `landmarks[i]`."""
        if not isinstance(data, dict):
            raise MapError(f"map document must be a JSON object, got {type(data).__name__}")
        m = cls()
        for i, nd in enumerate(_records(data, "nodes")):
            with _reading(f"nodes[{i}]"):
                node = MapNode(
                    _string(nd["id"], "id"),
                    Pose6.from_jsonable(nd["pose"]),
                    _string(nd.get("image_ref", ""), "image_ref"),
                    _string_set(nd.get("landmark_ids", []), "landmark_ids"),
                )
                if node.id in m.nodes:
                    raise MapError(f"duplicate node id {node.id!r} (nodes[{i}])")
                m.add_node(node)
        for i, ed in enumerate(_records(data, "edges")):
            with _reading(f"edges[{i}]"):
                ends = ed["nodes"]
                if not (isinstance(ends, list) and len(ends) == 2
                        and all(isinstance(e, str) for e in ends)):
                    raise ValueError(f"nodes must be a list of two strings, got {ends!r}")
                key = tuple(sorted(ends))
                if key in m.edges:
                    raise MapError(f"duplicate edge {key!r} (edges[{i}])")
                length = ed["length"]
                if not (is_finite_number(length) and length >= 0):
                    raise MapError(f"edge length must be finite and >= 0, got {length!r} "
                                   f"(edges[{i}])")
                m.edges[key] = MapEdge(
                    key[0], key[1], Pose6.from_jsonable(ed["relative_pose"]), float(length)
                )
        for i, ld in enumerate(_records(data, "landmarks")):
            with _reading(f"landmarks[{i}]"):
                attributes = ld.get("visual_attributes", {})
                check_landmark_text(ld["category"], attributes)
                description = ld.get("functional_description")
                if description is not None and not isinstance(description, str):
                    raise ValueError(f"functional_description must be a string or null, got "
                                     f"{description!r}")
                lm = Landmark(_string(ld["id"], "id"), ld["category"], dict(attributes),
                              description, _string_set(ld.get("node_ids", []), "node_ids"))
                if lm.id in m.landmarks:
                    raise MapError(f"duplicate landmark id {lm.id!r} (landmarks[{i}])")
                m.landmarks[lm.id] = lm
        return m

    @classmethod
    def load(cls, path) -> "TopoMap":
        return cls.from_jsonable(read_json(path, MapError))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopoMap)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.landmarks == other.landmarks
        )


def _records(data: dict, name: str) -> list:
    """The list `name` of a map document, [] if it has none; MapError
    unless it is a list of JSON objects."""
    records = data.get(name, [])
    if not isinstance(records, list):
        raise MapError(f"map document field {name!r} must be a list, got {type(records).__name__}")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise MapError(f"{name}[{i}] must be a JSON object, got {type(record).__name__}")
    return records


@contextlib.contextmanager
def _reading(where: str):
    """Turn a missing field or a malformed value met while reading the record
    `where` of a map document into a MapError naming it."""
    try:
        yield
    except KeyError as e:
        raise MapError(f"map document missing field {e.args[0]!r} ({where})") from e
    except (TypeError, ValueError) as e:
        raise MapError(f"malformed map document: {e} ({where})") from e


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _string_set(value, name: str) -> set[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return set(value)


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]

    def to_jsonable(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}

    def require(self, where, error=MapError) -> None:
        """Raise `error` naming `where` and the first three violations unless
        the map is valid, so that no caller meets a dangling reference."""
        if not self.ok:
            raise error(f"{where}: invalid map: {'; '.join(self.violations[:3])}")
