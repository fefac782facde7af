import math

import numpy as np
import pytest

from astra_nav.geom import Pose2
from astra_nav.localization import (
    GoalNotFoundError,
    LandmarkObservation,
    LocalizationConfig,
    LocalizationError,
    QueryContext,
    attribute_similarity,
    candidate_nodes,
    canonical_category,
    fine_localize,
    goal_localize,
    heuristic_oracle,
    load_query,
    localize,
    make_ground_truth_oracle,
    match_landmarks,
    parse_extractor_response,
    sample_reference_nodes,
    visual_filter,
)
from astra_nav.topomap import Landmark, MapNode, Pose6, TopoMap


def node(nid, x=0.0, y=0.0):
    return MapNode(nid, Pose6((x, y, 0.0)))


def line_map(n=5, spacing=1.0):
    """n nodes on the x axis, one landmark per node."""
    m = TopoMap()
    for i in range(n):
        m.add_node(node(f"n{i}", i * spacing, 0.0))
        if i:
            m.add_edge(f"n{i-1}", f"n{i}", Pose6((spacing, 0, 0)))
        m.register_landmark(
            f"n{i}", Landmark(f"lm{i}", "sofa" if i % 2 == 0 else "door", {"color": "gray"})
        )
    return m


class TestMatching:
    def test_exact_match_scores_one(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        obs = [LandmarkObservation("sofa", {"color": "gray"})]
        matches = match_landmarks(obs, m, LocalizationConfig())
        assert len(matches) == 1
        assert matches[0].score == pytest.approx(1.0)

    def test_synonym_category(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        obs = [LandmarkObservation("couch", {"color": "gray"})]
        matches = match_landmarks(obs, m, LocalizationConfig())
        assert matches and matches[0].score == pytest.approx(1.0)

    def test_weighted_partial_attributes(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark(
            "n1", Landmark("lm1", "sofa", {"color": "gray", "material": "fabric"})
        )
        obs = [LandmarkObservation("sofa", {"color": "gray", "material": "wood"})]
        cfg = LocalizationConfig(category_weight=0.6, attribute_weight=0.4)
        matches = match_landmarks(obs, m, cfg)
        assert matches[0].score == pytest.approx(0.6 + 0.4 * 0.5)

    def test_below_threshold_dropped(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "door", {}))
        obs = [LandmarkObservation("sofa", {})]
        cfg = LocalizationConfig(match_threshold=0.6)
        # category mismatch: score = 0.4 * 1.0 (vacuous attrs) = 0.4 < 0.6
        assert match_landmarks(obs, m, cfg) == []

    def test_canonicalization(self):
        assert canonical_category(" Couch ") == "sofa"
        assert canonical_category("weird thing") == "weird thing"

    def test_attribute_similarity_union(self):
        assert attribute_similarity({}, {}) == 1.0
        assert attribute_similarity({"color": "gray"}, {"color": "GRAY"}) == 1.0
        assert attribute_similarity({"color": "gray"}, {"color": "red"}) == 0.0
        assert attribute_similarity({"color": "gray"}, {"color": "gray", "material": "wood"}) == 0.5


class TestCandidates:
    def test_empty(self):
        assert candidate_nodes(line_map(), []) == set()

    def test_union(self):
        m = TopoMap()
        for nid in ("n1", "n2", "n3"):
            m.add_node(node(nid))
        a = Landmark("a", "sofa")
        b = Landmark("b", "door")
        m.register_landmark("n1", a)
        m.register_landmark("n2", a)
        m.register_landmark("n2", b)
        m.register_landmark("n3", b)
        obs = [LandmarkObservation("sofa"), LandmarkObservation("door")]
        matches = match_landmarks(obs, m, LocalizationConfig())
        assert candidate_nodes(m, matches) == {"n1", "n2", "n3"}

    def test_matches_brute_force_on_random_maps(self):
        rng = np.random.default_rng(6)
        cats = ["sofa", "door", "shelf", "tv"]
        for _ in range(10):
            m = TopoMap()
            n = int(rng.integers(3, 50))
            for i in range(n):
                m.add_node(node(f"n{i:02d}", *rng.uniform(-10, 10, 2)))
            for k in range(int(rng.integers(1, 12))):
                lm = Landmark(f"lm{k:02d}", str(rng.choice(cats)))
                for nid in rng.choice(n, rng.integers(1, 4), replace=False):
                    m.register_landmark(f"n{nid:02d}", lm)
            obs = [LandmarkObservation(str(rng.choice(cats)))]
            cfg = LocalizationConfig()
            got = candidate_nodes(m, match_landmarks(obs, m, cfg))
            want = set()
            for lm in m.landmarks.values():
                score = 0.6 * (canonical_category(lm.category) == canonical_category(obs[0].category))
                score += 0.4 * attribute_similarity(obs[0].visual_attributes, lm.visual_attributes)
                if score >= cfg.match_threshold:
                    want |= lm.node_ids
            assert got == want


class TestVisualFilter:
    def test_threshold_zero_keeps_all(self):
        m = line_map()
        kept = visual_filter(QueryContext(), {"n0", "n1"}, lambda c, n: 0.0, m, 0.0)
        assert kept == {"n0", "n1"}

    def test_threshold_one_keeps_only_perfect(self):
        m = line_map()
        oracle = lambda c, n: 1.0 if n.id == "n2" else 0.99
        assert visual_filter(QueryContext(), {"n1", "n2", "n3"}, oracle, m, 1.0) == {"n2"}

    def test_mid_threshold(self):
        m = line_map()
        scores = {"n0": 0.2, "n1": 0.7, "n2": 0.9}
        oracle = lambda c, n: scores[n.id]
        assert visual_filter(QueryContext(), set(scores), oracle, m, 0.5) == {"n1", "n2"}

    def test_oracle_failure_drops_node(self, caplog):
        m = line_map()

        def oracle(ctx, n):
            if n.id == "n1":
                raise RuntimeError("boom")
            return 1.0

        with caplog.at_level("WARNING"):
            kept = visual_filter(QueryContext(), {"n0", "n1"}, oracle, m, 0.5)
        assert kept == {"n0"}
        assert any("n1" in rec.message for rec in caplog.records)

    def test_monotone_in_threshold(self):
        m = line_map()
        rng = np.random.default_rng(0)
        scores = {nid: float(rng.random()) for nid in m.nodes}
        oracle = lambda c, n: scores[n.id]
        prev = None
        for thr in np.linspace(0, 1, 11):
            kept = visual_filter(QueryContext(), set(m.nodes), oracle, m, float(thr))
            if prev is not None:
                assert kept <= prev
            prev = kept


class TestReferences:
    def test_k1_returns_candidates(self):
        m = line_map()
        assert sample_reference_nodes(m, {"n2"}, 1) == ["n2"]

    def test_nearest_by_metric(self):
        m = line_map(4)
        assert sample_reference_nodes(m, {"n0"}, 2) == ["n0", "n1"]

    def test_empty_candidates(self):
        assert sample_reference_nodes(line_map(), set(), 3) == []

    def test_angle_term_matters(self):
        m = TopoMap()
        m.add_node(node("q", 0, 0))
        # near but rotated by pi vs slightly farther but aligned
        m.add_node(MapNode("rot", Pose6((0.5, 0, 0), (0.0, 0.0, 0.0, 1.0))))
        m.add_node(node("far", 1.0, 0))
        refs = sample_reference_nodes(m, {"q"}, 2, angle_beta=0.5)
        assert refs == ["far", "q"]  # 0.5 + 0.5*pi > 1.0


class TestFine:
    def test_single_reference(self):
        m = line_map()
        pose, conf = fine_localize(QueryContext(), ["n2"], lambda c, n: 0.7, m)
        assert pose == Pose2(2.0, 0.0, 0.0)
        assert conf == pytest.approx(0.7)

    def test_symmetric_mean(self):
        m = TopoMap().add_node(node("a", 0, 0)).add_node(node("b", 2, 0))
        pose, _ = fine_localize(QueryContext(), ["a", "b"], lambda c, n: 0.5, m)
        assert pose.x == pytest.approx(1.0)
        assert pose.y == pytest.approx(0.0)

    def test_softmax_weighting_hand_value(self):
        m = TopoMap().add_node(node("a", 0, 0)).add_node(node("b", 2, 0))
        scores = {"a": 0.9, "b": 0.1}
        pose, conf = fine_localize(QueryContext(), ["a", "b"], lambda c, n: scores[n.id], m)
        expect = 2.0 * math.exp(0.1) / (math.exp(0.9) + math.exp(0.1))
        assert pose.x == pytest.approx(expect, abs=1e-3)
        assert pose.x == pytest.approx(0.620, abs=1e-3)
        assert conf == pytest.approx(0.9)

    def test_nearest_mode_snaps(self):
        m = TopoMap().add_node(node("a", 0, 0)).add_node(node("b", 2, 0))
        scores = {"a": 0.9, "b": 0.1}
        pose, _ = fine_localize(
            QueryContext(), ["a", "b"], lambda c, n: scores[n.id], m, mode="nearest"
        )
        assert pose == Pose2(0, 0, 0)

    def test_circular_mean_headings(self):
        m = TopoMap()
        m.add_node(MapNode("a", Pose6((0, 0, 0), _yaw_quat(math.pi - 0.1))))
        m.add_node(MapNode("b", Pose6((0, 0, 0), _yaw_quat(-math.pi + 0.1))))
        pose, _ = fine_localize(QueryContext(), ["a", "b"], lambda c, n: 1.0, m)
        assert abs(pose.theta) == pytest.approx(math.pi, abs=1e-9)

    def test_empty_references(self):
        with pytest.raises(LocalizationError):
            fine_localize(QueryContext(), [], lambda c, n: 1.0, line_map())


def _yaw_quat(yaw):
    return (math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2))


class TestLocalizePipeline:
    def test_unique_node_recovered(self):
        m = line_map()
        true_node = m.nodes["n2"]
        obs = [
            LandmarkObservation(
                m.landmarks[lid].category, dict(m.landmarks[lid].visual_attributes)
            )
            for lid in true_node.landmark_ids
        ]
        ctx = QueryContext(pose=true_node.pose.planar())
        result = localize(obs, ctx, m, LocalizationConfig(), make_ground_truth_oracle())
        assert result.estimated_pose is not None
        err = math.hypot(result.estimated_pose.x - 2.0, result.estimated_pose.y - 0.0)
        assert err <= 0.5
        assert result.confidence == 1.0
        assert result.filtered_node_ids <= result.candidate_node_ids

    def test_empty_query_soft_fails(self):
        result = localize([], QueryContext(), line_map(), LocalizationConfig(), heuristic_oracle)
        assert result.confidence == 0.0
        assert result.estimated_pose is None

    def test_ambiguous_landmark_disambiguated_by_oracle(self):
        m = TopoMap().add_node(node("near", 0, 0)).add_node(node("far", 30, 0))
        lm = Landmark("lm1", "sofa", {"color": "gray"})
        m.register_landmark("near", lm)
        m.register_landmark("far", lm)
        obs = [LandmarkObservation("sofa", {"color": "gray"})]
        ctx = QueryContext(pose=Pose2(0.1, 0.0, 0.0))
        result = localize(obs, ctx, m, LocalizationConfig(ref_k=1), make_ground_truth_oracle())
        assert result.candidate_node_ids == {"near", "far"}
        assert result.filtered_node_ids == {"near"}
        assert result.estimated_pose.x == pytest.approx(0.0)


class TestGoalLocalize:
    def make_map(self):
        m = TopoMap()
        for i in range(20):
            m.add_node(node(f"n{i:02d}", i * 1.0, 0.0))
        m.register_landmark(
            "n01", Landmark("lm-rest", "sofa", {}, "for resting in living areas")
        )
        m.register_landmark(
            "n12", Landmark("lm-store", "shelf", {}, "for document storage")
        )
        return m

    def test_found_in_first_ring(self):
        m = self.make_map()
        nid, pose = goal_localize(["resting"], m, Pose2(0, 0, 0), r0=5.0)
        assert nid == "n01"
        assert pose.x == pytest.approx(1.0)

    def test_ring_expansion(self):
        m = self.make_map()
        nid, _ = goal_localize(["storage"], m, Pose2(0, 0, 0), r0=5.0, r_step=5.0, r_max=50.0)
        assert nid == "n12"

    def test_not_found(self):
        with pytest.raises(GoalNotFoundError):
            goal_localize(["unicorn"], self.make_map(), Pose2(0, 0, 0), r0=5.0, r_max=20.0)

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(12)
        cats = ["sofa", "door", "shelf", "tv"]
        for _ in range(10):
            m = TopoMap()
            n = int(rng.integers(4, 30))
            for i in range(n):
                m.add_node(node(f"n{i:02d}", *rng.uniform(-20, 20, 2)))
            for k in range(int(rng.integers(1, 8))):
                cat = str(rng.choice(cats))
                lm = Landmark(f"lm{k}", cat, {}, f"use the {cat} here")
                for nid in rng.choice(n, rng.integers(1, 3), replace=False):
                    m.register_landmark(f"n{nid:02d}", lm)
            term = str(rng.choice(cats))
            cur = Pose2(*rng.uniform(-5, 5, 2), 0)
            nodes_with_term = {
                nid
                for lm in m.landmarks.values()
                if term in (lm.category + " " + (lm.functional_description or ""))
                for nid in lm.node_ids
            }
            reachable = {
                nid
                for nid in nodes_with_term
                if math.hypot(
                    m.nodes[nid].pose.position[0] - cur.x,
                    m.nodes[nid].pose.position[1] - cur.y,
                )
                <= 100.0
            }
            if not reachable:
                with pytest.raises(GoalNotFoundError):
                    goal_localize([term], m, cur, r0=10.0)
                continue
            want = min(
                reachable,
                key=lambda nid: (
                    math.hypot(
                        m.nodes[nid].pose.position[0] - cur.x,
                        m.nodes[nid].pose.position[1] - cur.y,
                    ),
                    nid,
                ),
            )
            got, _ = goal_localize([term], m, cur, r0=10.0)
            assert got == want


class TestAdapters:
    def test_response_round_trip(self):
        payload = {
            "observations": [
                {"category": "sofa", "visual_attributes": {"color": "gray"}},
                {"category": "door"},
            ]
        }
        obs = parse_extractor_response(payload)
        assert len(obs) == 2
        assert obs[0].category == "sofa"
        assert obs[1].visual_attributes == {}

    def test_bad_response(self):
        with pytest.raises(LocalizationError):
            parse_extractor_response({"nope": []})

    def test_query_file(self, tmp_path):
        import json

        doc = {
            "query_ctx": {"pose": [1.0, 2.0, 0.5], "landmark_ids": ["lm1"]},
            "observations": [{"category": "sofa"}],
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        ctx, obs = load_query(path)
        assert ctx.pose == Pose2(1, 2, 0.5)
        assert ctx.landmark_ids == {"lm1"}
        assert obs[0].category == "sofa"


def test_heuristic_oracle_prefers_shared_landmarks():
    m = line_map()
    ctx = QueryContext(pose=Pose2(10, 10, 0), landmark_ids={"lm3"})
    assert heuristic_oracle(ctx, m.nodes["n3"]) == 1.0
    far_score = heuristic_oracle(QueryContext(pose=Pose2(10, 0, 0)), m.nodes["n0"])
    assert far_score == 0.0
    near_score = heuristic_oracle(QueryContext(pose=Pose2(1.0, 0, 0)), m.nodes["n0"])
    assert near_score == pytest.approx(0.8)
