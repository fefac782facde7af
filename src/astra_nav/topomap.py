"""Hybrid topological-semantic map: nodes, undirected edges, landmark registry.

Nodes carry full 6-DoF poses (position + quaternion) as given by the mapping
stage; landmarks keep a centralized registry of every node they are visible
from, and nodes hold the symmetric back-references. Edge weights are the
Euclidean norm of the relative translation.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MapError
from .geom import Pose2


@dataclass(frozen=True)
class Pose6:
    """Position (x, y, z) plus orientation quaternion (w, x, y, z)."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    quaternion: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "quaternion", tuple(float(v) for v in self.quaternion))

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
        return cls(tuple(data["position"]), tuple(data["quaternion"]))


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


class TopoMap:
    """The map G = (nodes, edges, landmarks) with symmetric cross-references."""

    def __init__(self):
        self.nodes: dict[str, MapNode] = {}
        self.edges: dict[tuple[str, str], MapEdge] = {}
        self.landmarks: dict[str, Landmark] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, node: MapNode) -> "TopoMap":
        if node.id in self.nodes:
            raise MapError(f"duplicate node id: {node.id!r}")
        self.nodes[node.id] = node
        return self

    def add_edge(self, a_id: str, b_id: str, relative_pose: Pose6) -> "TopoMap":
        if a_id == b_id:
            raise MapError(f"self-loop edge on node {a_id!r}")
        for nid in (a_id, b_id):
            if nid not in self.nodes:
                raise MapError(f"edge endpoint does not exist: {nid!r}")
        a, b = sorted((a_id, b_id))
        length = float(np.linalg.norm(relative_pose.position))
        self.edges[(a, b)] = MapEdge(a, b, relative_pose, length)
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

    def nodes_for_landmark(self, lid: str) -> set[str]:
        if lid not in self.landmarks:
            raise MapError(f"missing landmark: {lid!r}")
        return set(self.landmarks[lid].node_ids)

    def spatial_query(self, center, r: float) -> set[str]:
        """All node ids whose 3D position is within r meters of center (inclusive)."""
        if r < 0:
            raise MapError(f"negative search radius: {r}")
        c = np.asarray(center, dtype=float).reshape(3)
        out = set()
        for nid, node in self.nodes.items():
            if np.linalg.norm(np.asarray(node.pose.position) - c) <= r:
                out.add(nid)
        return out

    def shortest_path(self, from_id: str, to_id: str) -> list[str]:
        """Minimum-total-length node path; ties broken by lexicographic id sequence.

        Returns [] when the two nodes are disconnected.
        """
        for nid in (from_id, to_id):
            if nid not in self.nodes:
                raise MapError(f"missing node: {nid!r}")
        if from_id == to_id:
            return [from_id]
        adj: dict[str, list[tuple[str, float]]] = {nid: [] for nid in self.nodes}
        for (a, b), edge in self.edges.items():
            adj[a].append((b, edge.length))
            adj[b].append((a, edge.length))
        best: dict[str, tuple[float, tuple[str, ...]]] = {}
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
        if to_id not in best:
            return []
        return list(best[to_id][1])

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
        for key, edge in self.edges.items():
            if key != (edge.a, edge.b) or edge.a > edge.b:
                violations.append(f"edge key {key!r} not in canonical sorted form")
            if edge.a == edge.b:
                violations.append(f"self-loop edge on {edge.a!r}")
            for nid in (edge.a, edge.b):
                if nid not in self.nodes:
                    violations.append(f"edge {key!r} endpoint {nid!r} does not exist")
            if edge.length < 0:
                violations.append(f"edge {key!r} has negative length")
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
        if not isinstance(data, dict):
            raise MapError(f"map document must be a JSON object, got {type(data).__name__}")
        m = cls()
        try:
            for i, nd in enumerate(data.get("nodes", [])):
                node = MapNode(
                    nd["id"],
                    Pose6.from_jsonable(nd["pose"]),
                    nd.get("image_ref", ""),
                    set(nd.get("landmark_ids", [])),
                )
                if node.id in m.nodes:
                    raise MapError(f"duplicate node id {node.id!r} (nodes[{i}])")
                m.nodes[node.id] = node
            for i, ed in enumerate(data.get("edges", [])):
                a, b = ed["nodes"]
                key = tuple(sorted((a, b)))
                if key in m.edges:
                    raise MapError(f"duplicate edge {key!r} (edges[{i}])")
                m.edges[key] = MapEdge(
                    key[0], key[1], Pose6.from_jsonable(ed["relative_pose"]), float(ed["length"])
                )
            for i, ld in enumerate(data.get("landmarks", [])):
                lm = Landmark(
                    ld["id"],
                    ld["category"],
                    dict(ld.get("visual_attributes", {})),
                    ld.get("functional_description"),
                    set(ld.get("node_ids", [])),
                )
                if lm.id in m.landmarks:
                    raise MapError(f"duplicate landmark id {lm.id!r} (landmarks[{i}])")
                m.landmarks[lm.id] = lm
        except KeyError as e:
            raise MapError(f"map document missing field {e.args[0]!r}") from e
        return m

    @classmethod
    def load(cls, path) -> "TopoMap":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as e:
            raise MapError(f"{path}: invalid JSON at line {e.lineno} col {e.colno}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise MapError(f"{path}: cannot read map file: {e}") from e
        return cls.from_jsonable(data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopoMap)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.landmarks == other.landmarks
        )


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]

    def to_jsonable(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}
