"""Coarse-to-fine self-localization and language-based goal search over a map.

The coarse stage matches detected landmark descriptions against the map's
landmark registry (category via a synonym table, attributes by exact
per-key agreement) and unions the nodes of every match. A co-visibility
oracle then filters candidates, nearby reference nodes are gathered, and
the fine stage estimates the query pose from the reference poses, either
as a score-softmax-weighted circular mean or by snapping to the best
reference.

The detector and co-visibility scorer that would normally come from a
large vision-language model are adapter inputs here: observations are
plain data, and any callable (query_ctx, node) -> score in [0, 1] can act
as the oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AstraError
from .geom import Pose2
from .topomap import MapNode, TopoMap

log = logging.getLogger(__name__)

# Indoor category aliases mapped to a canonical name.
DEFAULT_SYNONYMS: dict[str, str] = {
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


@dataclass
class LocalizationConfig:
    match_threshold: float = 0.6
    category_weight: float = 0.6
    attribute_weight: float = 0.4
    filter_threshold: float = 0.5
    ref_k: int = 3
    angle_beta: float = 0.5  # meters of penalty per radian of orientation difference
    fine_mode: str = "weighted"  # "weighted" | "nearest"
    softmax_temperature: float = 1.0
    synonyms: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_SYNONYMS))


class LocalizationError(AstraError):
    pass


class GoalNotFoundError(AstraError):
    """No landmark matched the instruction within the maximum search radius."""


def canonical_category(category: str, synonyms: dict[str, str] | None = None) -> str:
    c = category.strip().lower()
    table = DEFAULT_SYNONYMS if synonyms is None else synonyms
    return table.get(c, c)


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


def match_landmarks(
    query: list[LandmarkObservation], topo: TopoMap, config: LocalizationConfig
) -> list[LandmarkMatch]:
    """Score every (observation, registry landmark) pair; keep scores >= threshold."""
    matches = []
    for idx, obs in enumerate(query):
        obs_cat = canonical_category(obs.category, config.synonyms)
        for lid in sorted(topo.landmarks):
            lm = topo.landmarks[lid]
            cat_sim = 1.0 if canonical_category(lm.category, config.synonyms) == obs_cat else 0.0
            attr_sim = attribute_similarity(obs.visual_attributes, lm.visual_attributes)
            score = config.category_weight * cat_sim + config.attribute_weight * attr_sim
            if score >= config.match_threshold:
                matches.append(LandmarkMatch(idx, lid, score))
    return matches


def candidate_nodes(topo: TopoMap, matches: list[LandmarkMatch]) -> set[str]:
    """Union of the node registries of every matched landmark."""
    out: set[str] = set()
    for m in matches:
        out |= topo.nodes_for_landmark(m.landmark_id)
    return out


def visual_filter(
    query_ctx: QueryContext,
    candidates: set[str],
    oracle: CovisOracle,
    topo: TopoMap,
    threshold: float,
) -> set[str]:
    """Keep candidates whose co-visibility score reaches the threshold.

    An oracle failure on a node drops that node and logs a warning.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("filter threshold must lie in [0, 1]")
    kept = set()
    for nid in sorted(candidates):
        try:
            score = oracle(query_ctx, topo.nodes[nid])
        except Exception as e:  # noqa: BLE001 - adapter boundary
            log.warning("co-visibility oracle failed on node %s: %s", nid, e)
            continue
        if score >= threshold:
            kept.add(nid)
    return kept


def sample_reference_nodes(
    topo: TopoMap, candidates: set[str], k: int, angle_beta: float = 0.5
) -> list[str]:
    """k nearest map nodes per candidate under d_pos + beta * d_angle, deduplicated.

    Ties break on node id; the result is the sorted union.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    refs: set[str] = set()
    all_nodes = sorted(topo.nodes)
    for cid in sorted(candidates):
        cand = topo.nodes[cid]
        cpos = np.asarray(cand.pose.position)
        ranked = sorted(
            all_nodes,
            key=lambda nid: (
                float(np.linalg.norm(np.asarray(topo.nodes[nid].pose.position) - cpos))
                + angle_beta * cand.pose.angle_to(topo.nodes[nid].pose),
                nid,
            ),
        )
        refs.update(ranked[:k])
    return sorted(refs)


def fine_localize(
    query_ctx: QueryContext,
    reference_node_ids: list[str],
    oracle: CovisOracle,
    topo: TopoMap,
    mode: str = "weighted",
    temperature: float = 1.0,
) -> tuple[Pose2, float]:
    """Estimate the query pose from scored reference poses.

    weighted: softmax(score/T)-weighted mean of planar positions with a
    circular mean for headings. nearest: the pose of the best-scoring
    reference. Confidence is the maximum oracle score either way.
    """
    if not reference_node_ids:
        raise LocalizationError("fine localization needs at least one reference node")
    ids = sorted(reference_node_ids)
    scores = np.array([oracle(query_ctx, topo.nodes[nid]) for nid in ids])
    poses = [topo.nodes[nid].pose.planar() for nid in ids]
    confidence = float(np.max(scores))
    if mode == "nearest":
        best = int(np.argmax(scores))  # argmax takes the first (smallest id) on ties
        return poses[best], confidence
    if mode != "weighted":
        raise ValueError(f"unknown fine localization mode: {mode!r}")
    w = np.exp(scores / temperature)
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
    config: LocalizationConfig,
    oracle: CovisOracle,
) -> LocalizationResult:
    """Full coarse-to-fine pipeline; degrades to a confidence-0 result when empty."""
    matches = match_landmarks(query, topo, config)
    candidates = candidate_nodes(topo, matches)
    filtered = visual_filter(query_ctx, candidates, oracle, topo, config.filter_threshold)
    if not filtered:
        return LocalizationResult(candidates, filtered, [], None, 0.0)
    refs = sample_reference_nodes(topo, filtered, config.ref_k, config.angle_beta)
    pose, confidence = fine_localize(
        query_ctx, refs, oracle, topo, config.fine_mode, config.softmax_temperature
    )
    return LocalizationResult(candidates, filtered, refs, pose, confidence)


def _landmark_text_tokens(lm) -> set[str]:
    text = lm.category + " " + (lm.functional_description or "")
    tokens = set()
    word = []
    for ch in text.lower():
        if ch.isalnum():
            word.append(ch)
        elif word:
            tokens.add("".join(word))
            word = []
    if word:
        tokens.add("".join(word))
    return tokens


def goal_localize(
    instruction_terms: list[str],
    topo: TopoMap,
    current_pose: Pose2,
    r0: float = 10.0,
    r_step: float = 10.0,
    r_max: float = 100.0,
) -> tuple[str, Pose2]:
    """Find the node of the nearest landmark whose description covers all terms.

    The search starts within r0 of the current pose and widens by r_step until
    r_max; raises GoalNotFoundError if nothing matches by then.
    """
    if r0 <= 0:
        raise ValueError("initial search radius must be positive")
    terms = [t.lower() for t in instruction_terms if t]
    matching_landmarks = [
        lm for lm in topo.landmarks.values() if all(t in _landmark_text_tokens(lm) for t in terms)
    ]
    center = (current_pose.x, current_pose.y, 0.0)
    r = r0
    while True:
        ring = topo.spatial_query(center, r)
        candidates = sorted({nid for lm in matching_landmarks for nid in lm.node_ids} & ring)
        if candidates:
            best = min(
                candidates,
                key=lambda nid: (
                    math.hypot(
                        topo.nodes[nid].pose.position[0] - current_pose.x,
                        topo.nodes[nid].pose.position[1] - current_pose.y,
                    ),
                    nid,
                ),
            )
            return best, topo.nodes[best].pose.planar()
        if r >= r_max:
            raise GoalNotFoundError(
                f"no landmark matching {instruction_terms!r} within {r_max} m"
            )
        r = min(r + r_step, r_max)


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
    """Decode a remote extractor response: {"observations": [{category, visual_attributes}]}."""
    try:
        raw = payload["observations"]
    except (KeyError, TypeError) as e:
        raise LocalizationError("extractor response missing 'observations'") from e
    out = []
    for i, item in enumerate(raw):
        try:
            out.append(
                LandmarkObservation(item["category"], dict(item.get("visual_attributes", {})))
            )
        except (KeyError, TypeError) as e:
            raise LocalizationError(f"bad observation at index {i}: {e}") from e
    return out


def load_query(path) -> tuple[QueryContext, list[LandmarkObservation]]:
    """Read a query file: {"query_ctx": {pose?, landmark_ids?}, "observations": [...]}."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    ctx_raw = data.get("query_ctx", {})
    pose = Pose2(*ctx_raw["pose"]) if ctx_raw.get("pose") is not None else None
    ctx = QueryContext(pose, set(ctx_raw.get("landmark_ids", [])))
    return ctx, parse_extractor_response(data)
