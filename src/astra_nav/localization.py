"""Coarse-to-fine self-localization and language-based goal search over a map.

The coarse stage matches detected landmark descriptions against the map's
landmark registry (category via a synonym table, attributes by exact
per-key agreement) and unions the nodes of every match. A co-visibility
oracle then filters candidates, nearby reference nodes are gathered, and
the fine stage estimates the query pose from the reference poses, either
as a score-softmax-weighted circular mean or by snapping to the best
reference.

The thresholds are fixed: an observation matches a landmark when
0.6 * category agreement + 0.4 * attribute agreement reaches 0.6; a
candidate node passes the filter at an oracle score of 0.5 or more; each
passing node adds its 3 nearest map nodes under position distance plus
0.5 m per radian of heading difference; the softmax runs at temperature 1.
A node's nearest map nodes depend on the map's node poses alone, so they
are ranked once per node and kept with the map's node index. In the same
way an observation's matches depend on the registry alone, and on the
observation only through its canonical category and its attribute items
with values stripped and lower-cased: each such key is scored against the
registry once and its matches kept in the map's match memo, which the map
drops with its sightings when the registry changes.

Goal search (`goal_localize`) is one query: the goal is the node, among
those of every landmark whose category and functional description hold
each word of the instruction, within r_max (100 m by default) of the
current pose, nearest the current pose in the plane, the lower id on a
tie. Instruction and landmark text are split into the same lower-case
alphanumeric words, so "Sofa." asks for "sofa".

The detector and co-visibility scorer that would normally come from a
large vision-language model are adapter inputs here: observations are
plain data, and any callable (query_ctx, node) -> score in [0, 1] can act
as the oracle.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AstraError, check_landmark_text, is_finite_number, read_json
from .geom import Pose2
from .topomap import MapNode, TopoMap

log = logging.getLogger(__name__)

_CATEGORY_WEIGHT = 0.6
_ATTRIBUTE_WEIGHT = 0.4
_MATCH_THRESHOLD = 0.6
_FILTER_THRESHOLD = 0.5
_REF_K = 3
_ANGLE_BETA = 0.5  # m of penalty per radian of heading difference

# Indoor category aliases mapped to a canonical name.
_SYNONYMS: dict[str, str] = {
    "couch": "sofa",
    "settee": "sofa",
    "television": "tv",
    "tv stand": "tv",
    "refrigerator": "fridge",
    "icebox": "fridge",
    "garbage bin": "trash can",
    "waste basket": "trash can",
    "rubbish bin": "trash can",
    "cupboard": "cabinet",
    "wardrobe": "closet",
    "bookcase": "shelf",
    "bookshelf": "shelf",
    "rack": "shelf",
    "lamp": "light",
    "ceiling light": "light",
    "desk": "table",
    "workbench": "table",
    "armchair": "chair",
    "stool": "chair",
    "doorway": "door",
    "entrance": "door",
}


@dataclass
class LandmarkObservation:
    """One detected landmark in the query view: category plus visual attributes."""

    category: str
    visual_attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.category:
            raise ValueError("observation category must be nonempty")


@dataclass
class LandmarkMatch:
    observation_index: int
    landmark_id: str
    score: float


@dataclass
class QueryContext:
    """Side information an oracle may use: the true pose (tests/simulation) and
    the landmark ids already associated with the query."""

    pose: Pose2 | None = None
    landmark_ids: set[str] = field(default_factory=set)


CovisOracle = Callable[[QueryContext, MapNode], float]


@dataclass
class LocalizationResult:
    candidate_node_ids: set[str]
    filtered_node_ids: set[str]
    reference_node_ids: list[str]
    estimated_pose: Pose2 | None
    confidence: float

    def to_jsonable(self) -> dict:
        return {
            "candidate_node_ids": sorted(self.candidate_node_ids),
            "filtered_node_ids": sorted(self.filtered_node_ids),
            "reference_node_ids": list(self.reference_node_ids),
            "estimated_pose": list(self.estimated_pose.as_tuple()) if self.estimated_pose else None,
            "confidence": self.confidence,
        }


class LocalizationError(AstraError):
    pass


class GoalNotFoundError(AstraError):
    """No landmark matched the instruction within the maximum search radius."""


def canonical_category(category: str) -> str:
    c = category.strip().lower()
    return _SYNONYMS.get(c, c)


def attribute_similarity(a: dict[str, str], b: dict[str, str]) -> float:
    """Fraction of attribute keys (union of both sides) on which the values agree."""
    keys = set(a) | set(b)
    if not keys:
        return 1.0
    hits = sum(
        1
        for k in keys
        if k in a and k in b and a[k].strip().lower() == b[k].strip().lower()
    )
    return hits / len(keys)


def match_landmarks(query: list[LandmarkObservation], topo: TopoMap) -> list[LandmarkMatch]:
    """Score every (observation, registry landmark) pair; keep scores >= _MATCH_THRESHOLD,
    in landmark id order per observation. Each distinct observation key is
    scored once per registry and read from the map's match memo after (see
    the module docstring)."""
    memo = topo.sightings().matches
    matches = []
    for idx, obs in enumerate(query):
        obs_cat = canonical_category(obs.category)
        key = (obs_cat, frozenset((k, v.strip().lower()) for k, v in obs.visual_attributes.items()))
        pairs = memo.get(key)
        if pairs is None:
            pairs = memo[key] = tuple(_scored_matches(obs_cat, obs.visual_attributes, topo))
        matches += [LandmarkMatch(idx, lid, score) for lid, score in pairs]
    return matches


def _scored_matches(obs_cat: str, attributes: dict[str, str], topo: TopoMap):
    """The (landmark id, score) pairs of one observation at or above
    _MATCH_THRESHOLD, in landmark id order."""
    for lid in sorted(topo.landmarks):
        lm = topo.landmarks[lid]
        cat_sim = 1.0 if canonical_category(lm.category) == obs_cat else 0.0
        attr_sim = attribute_similarity(attributes, lm.visual_attributes)
        score = _CATEGORY_WEIGHT * cat_sim + _ATTRIBUTE_WEIGHT * attr_sim
        if score >= _MATCH_THRESHOLD:
            yield lid, score


def candidate_nodes(topo: TopoMap, matches: list[LandmarkMatch]) -> set[str]:
    """Union of the node registries of every matched landmark."""
    out: set[str] = set()
    for m in matches:
        out |= topo.nodes_for_landmark(m.landmark_id)
    return out


def visual_filter(
    query_ctx: QueryContext, candidates: set[str], oracle: CovisOracle, topo: TopoMap
) -> set[str]:
    """Keep candidates whose co-visibility score reaches _FILTER_THRESHOLD.

    An oracle failure on a node drops that node and logs a warning.
    """
    kept = set()
    for nid in sorted(candidates):
        try:
            score = oracle(query_ctx, topo.nodes[nid])
        except Exception as e:  # noqa: BLE001 - adapter boundary
            log.warning("co-visibility oracle failed on node %s: %s", nid, e)
            continue
        if score >= _FILTER_THRESHOLD:
            kept.add(nid)
    return kept


def sample_reference_nodes(topo: TopoMap, candidates: set[str]) -> list[str]:
    """_REF_K nearest map nodes per candidate under d_pos + _ANGLE_BETA * d_angle,
    deduplicated.

    Ties break on node id; the result is the sorted union. A candidate's
    references depend on node poses alone, so they are kept on the map's
    node index (`references`) and each node is ranked once: a call ranks
    only the candidates not kept yet, all of them in one pass over the
    index. Each key equals, bit for bit, the one `np.linalg.norm` and
    `Pose6.angle_to` give per node.
    """
    index = topo.node_index()
    kept = index.references
    missing = sorted(cid for cid in candidates if (_REF_K, cid) not in kept)
    if missing:
        rows = [index.row[cid] for cid in missing]
        q, cq = index.quaternions, index.quaternions[rows]
        # the quaternion dot summed term by term, as angle_to sums it
        dot = cq[:, None, 0] * q[:, 0] + cq[:, None, 1] * q[:, 1]
        dot = dot + cq[:, None, 2] * q[:, 2] + cq[:, None, 3] * q[:, 3]
        # fmin keeps 1.0 against NaN, as min(1.0, dot) does
        acos = np.array(list(map(math.acos, np.fmin(1.0, np.abs(dot)).ravel().tolist())))
        key = index.distances(index.positions[rows]) + _ANGLE_BETA * (2.0 * acos.reshape(dot.shape))
        order = np.lexsort((np.broadcast_to(np.arange(len(index.ids)), key.shape), key))
        for cid, nearest in zip(missing, order[:, :_REF_K].tolist()):
            kept[(_REF_K, cid)] = [index.ids[k] for k in nearest]
    return sorted({nid for cid in candidates for nid in kept[(_REF_K, cid)]})


def _check_fine_mode(mode: str) -> None:
    if mode not in ("weighted", "nearest"):
        raise ValueError(f"unknown fine localization mode: {mode!r}")


def _first_max(scores: list) -> tuple[int, float]:
    """The index of the first maximum of a non-empty score list and the
    maximum as a float, as `np.argmax` and `np.max` give them on the list's
    array, in one pass over plain Python numbers: ints and bools compare
    exactly unless a score is a float, when every score is compared as a
    float, and a NaN is the maximum, the first NaN its index."""
    if not all(isinstance(s, (int, np.integer)) for s in scores):
        scores = [float(s) for s in scores]
    best, top = 0, scores[0]
    for i, s in enumerate(scores):
        if s > top or (s != s and top == top):
            best, top = i, s
    return best, float(top)


def fine_localize(
    query_ctx: QueryContext,
    reference_node_ids: list[str],
    oracle: CovisOracle,
    topo: TopoMap,
    mode: str = "weighted",
) -> tuple[Pose2, float]:
    """Estimate the query pose from scored reference poses.

    weighted: softmax(score)-weighted mean of planar positions with a
    circular mean for headings. nearest: the pose of the best-scoring
    reference. Confidence is the maximum oracle score either way.
    """
    _check_fine_mode(mode)
    if not reference_node_ids:
        raise LocalizationError("fine localization needs at least one reference node")
    ids = sorted(reference_node_ids)
    scores = [oracle(query_ctx, topo.nodes[nid]) for nid in ids]
    if mode == "nearest":
        best, confidence = _first_max(scores)  # the first (smallest id) on ties
        return topo.nodes[ids[best]].pose.planar(), confidence
    scores = np.array(scores)
    confidence = float(np.max(scores))
    poses = [topo.nodes[nid].pose.planar() for nid in ids]
    w = np.exp(scores)
    w /= w.sum()
    x = float(np.dot(w, [p.x for p in poses]))
    y = float(np.dot(w, [p.y for p in poses]))
    theta = math.atan2(
        float(np.dot(w, [math.sin(p.theta) for p in poses])),
        float(np.dot(w, [math.cos(p.theta) for p in poses])),
    )
    return Pose2(x, y, theta), confidence


def localize(
    query: list[LandmarkObservation],
    query_ctx: QueryContext,
    topo: TopoMap,
    oracle: CovisOracle,
    fine_mode: str = "weighted",
) -> LocalizationResult:
    """Full coarse-to-fine pipeline; degrades to a confidence-0 result when empty.
    fine_mode is "weighted" or "nearest" (see `fine_localize`); any other
    mode raises ValueError before any work."""
    _check_fine_mode(fine_mode)
    matches = match_landmarks(query, topo)
    candidates = candidate_nodes(topo, matches)
    filtered = visual_filter(query_ctx, candidates, oracle, topo)
    if not filtered:
        return LocalizationResult(candidates, filtered, [], None, 0.0)
    refs = sample_reference_nodes(topo, filtered)
    pose, confidence = fine_localize(query_ctx, refs, oracle, topo, fine_mode)
    return LocalizationResult(candidates, filtered, refs, pose, confidence)


_WORD = re.compile(r"[^\W_]+")  # a run of characters that str.isalnum accepts


def _words(text: str) -> set[str]:
    """The words of `text`: its lower-cased runs of alphanumeric characters."""
    return set(_WORD.findall(text.lower()))


def goal_localize(
    instruction_terms: list[str],
    topo: TopoMap,
    current_pose: Pose2,
    r_max: float = 100.0,
) -> tuple[str, Pose2]:
    """Find the node of the nearest landmark whose text holds every word of
    the instruction, and that node's planar pose.

    A landmark's text is its category and functional description; the
    instruction terms and that text are split into words alike (`_words`).
    The goal is, of the nodes of every matching landmark within r_max of
    (x, y, 0) of the current pose in 3-D, the one nearest the current pose
    in the plane, the lower id on a tie. Raises GoalNotFoundError when no
    node is left, and LocalizationError when r_max is not a positive finite
    number or the terms hold no word.
    """
    if not (is_finite_number(r_max) and r_max > 0):
        raise LocalizationError(f"search radius r_max must be positive and finite, got {r_max!r}")
    words = set().union(*map(_words, instruction_terms))
    if not words:
        raise LocalizationError(f"instruction {instruction_terms!r} holds no word")
    goals = {
        nid
        for lm in topo.landmarks.values()
        if words <= _words(lm.category + " " + (lm.functional_description or ""))
        for nid in lm.node_ids
    }
    goals &= topo.spatial_query((current_pose.x, current_pose.y, 0.0), r_max)
    if not goals:
        raise GoalNotFoundError(f"no landmark matching {instruction_terms!r} within {r_max} m")
    nodes = topo.nodes
    best = min(
        goals,
        key=lambda nid: (
            math.hypot(
                nodes[nid].pose.position[0] - current_pose.x,
                nodes[nid].pose.position[1] - current_pose.y,
            ),
            nid,
        ),
    )
    return best, nodes[best].pose.planar()


# --- default oracles ---------------------------------------------------------

def make_ground_truth_oracle(radius: float = 0.5) -> CovisOracle:
    """Score 1 exactly on nodes within radius of the true query pose, else 0."""

    def oracle(ctx: QueryContext, node: MapNode) -> float:
        if ctx.pose is None:
            return 0.0
        d = math.hypot(
            node.pose.position[0] - ctx.pose.x, node.pose.position[1] - ctx.pose.y
        )
        return 1.0 if d <= radius else 0.0

    return oracle


def heuristic_oracle(ctx: QueryContext, node: MapNode) -> float:
    """Cheap stand-in: full score on shared landmark ids, else decay with distance."""
    if ctx.landmark_ids & node.landmark_ids:
        return 1.0
    if ctx.pose is None:
        return 0.0
    d = math.hypot(node.pose.position[0] - ctx.pose.x, node.pose.position[1] - ctx.pose.y)
    return max(0.0, 1.0 - d / 5.0)


# --- adapter wire formats ----------------------------------------------------

def parse_extractor_response(payload: dict) -> list[LandmarkObservation]:
    """Decode a remote extractor response: {"observations": [{category, visual_attributes}]},
    each category a non-empty string and the attributes an object with string values."""
    try:
        raw = payload["observations"]
    except (KeyError, TypeError) as e:
        raise LocalizationError("extractor response missing 'observations'") from e
    out = []
    for i, item in enumerate(raw):
        try:
            attributes = item.get("visual_attributes", {})
            check_landmark_text(item["category"], attributes)
            out.append(LandmarkObservation(item["category"], dict(attributes)))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise LocalizationError(f"bad observation at index {i}: {e}") from e
    return out


def load_query(path) -> tuple[QueryContext, list[LandmarkObservation]]:
    """Read a query file: {"query_ctx": {pose?, landmark_ids?: [str]}, "observations": [...]}."""
    data = read_json(path, LocalizationError)
    try:
        ctx_raw = data.get("query_ctx", {})
        pose = Pose2.from_jsonable(ctx_raw["pose"]) if ctx_raw.get("pose") is not None else None
        ids = ctx_raw.get("landmark_ids", [])
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ValueError(f"landmark_ids must be a list of strings, got {ids!r}")
        ctx = QueryContext(pose, set(ids))
        return ctx, parse_extractor_response(data)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise LocalizationError(f"{path}: malformed query: {e!r}") from e
