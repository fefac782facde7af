import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astra_nav import localization, topomap
from astra_nav.geom import Pose2
from astra_nav.localization import (
    GoalNotFoundError,
    LandmarkObservation,
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
            m.add_edges([(f"n{i-1}", f"n{i}", Pose6((spacing, 0, 0)))])
        m.register_landmark(
            f"n{i}", Landmark(f"lm{i}", "sofa" if i % 2 == 0 else "door", {"color": "gray"})
        )
    return m


class TestMatching:
    def test_exact_match_scores_one(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        obs = [LandmarkObservation("sofa", {"color": "gray"})]
        matches = match_landmarks(obs, m)
        assert len(matches) == 1
        assert matches[0].score == pytest.approx(1.0)

    def test_synonym_category(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        obs = [LandmarkObservation("couch", {"color": "gray"})]
        matches = match_landmarks(obs, m)
        assert matches and matches[0].score == pytest.approx(1.0)

    def test_weighted_partial_attributes(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark(
            "n1", Landmark("lm1", "sofa", {"color": "gray", "material": "fabric"})
        )
        obs = [LandmarkObservation("sofa", {"color": "gray", "material": "wood"})]
        matches = match_landmarks(obs, m)
        assert matches[0].score == pytest.approx(0.6 + 0.4 * 0.5)

    def test_below_threshold_dropped(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "door", {}))
        obs = [LandmarkObservation("sofa", {})]
        # category mismatch: score = 0.4 * 1.0 (vacuous attrs) = 0.4 < 0.6
        assert match_landmarks(obs, m) == []

    def test_canonicalization(self):
        assert canonical_category(" Couch ") == "sofa"
        assert canonical_category("weird thing") == "weird thing"

    def test_attribute_similarity_union(self):
        assert attribute_similarity({}, {}) == 1.0
        assert attribute_similarity({"color": "gray"}, {"color": "GRAY"}) == 1.0
        assert attribute_similarity({"color": "gray"}, {"color": "red"}) == 0.0
        assert attribute_similarity({"color": "gray"}, {"color": "gray", "material": "wood"}) == 0.5


def ref_match_landmarks(query, topo):
    """Every (observation, registry landmark) pair scored afresh, in id order."""
    matches = []
    for idx, obs in enumerate(query):
        obs_cat = canonical_category(obs.category)
        for lid in sorted(topo.landmarks):
            lm = topo.landmarks[lid]
            cat_sim = 1.0 if canonical_category(lm.category) == obs_cat else 0.0
            attr_sim = attribute_similarity(obs.visual_attributes, lm.visual_attributes)
            score = 0.6 * cat_sim + 0.4 * attr_sim
            if score >= 0.6:
                matches.append(localization.LandmarkMatch(idx, lid, score))
    return matches


def registry_map():
    """Landmarks whose categories and attribute values are written as a
    detector might: synonyms, case and stray whitespace."""
    m = TopoMap()
    for i in range(4):
        m.add_node(node(f"n{i}", float(i)))
    for k, (category, attributes) in enumerate([
        ("sofa", {"color": "gray", "material": "fabric"}),
        ("Couch", {"color": " Gray"}),
        ("settee ", {}),
        ("door", {"color": "red", "material": "wood"}),
        ("door", {"material": "WOOD ", "size": "large"}),
        ("shelf", {"color": "gray"}),
        ("tv", {"size": "large"}),
        ("Doorway", {}),
    ]):
        m.register_landmark(f"n{k % 4}", Landmark(f"lm{k}", category, attributes))
    return m


CATEGORIES = ["sofa", "Couch ", " SOFA", "settee", "door", "Doorway", "bookcase ", "shelf",
              "television", "tv stand", "plant"]
VALUES = ["gray", " Gray", "GRAY ", "red", "Red", "wood", " WOOD ", "fabric", "large"]
observations = st.builds(
    LandmarkObservation,
    st.sampled_from(CATEGORIES),
    st.dictionaries(st.sampled_from(["color", "material", "size", "shape"]), st.sampled_from(VALUES),
                    max_size=4),
)


class TestMatchMemo:
    @settings(max_examples=200, deadline=None)
    @given(query=st.lists(observations, min_size=1, max_size=4))
    def test_matches_follow_the_unmemoized_loop(self, query):
        m = registry_map()
        want = ref_match_landmarks(query, m)
        assert match_landmarks(query, m) == want  # the first call fills the memo
        assert match_landmarks(query, m) == want  # the second reads it

    def test_observations_with_one_key_share_a_memo_entry(self):
        m = registry_map()
        variants = [LandmarkObservation("sofa", {"color": "gray"}),
                    LandmarkObservation("Couch ", {"color": " GRAY"}),
                    LandmarkObservation(" settee", {"color": "gray "})]
        assert match_landmarks(variants, m) == ref_match_landmarks(variants, m)
        assert len(m.sightings().matches) == 1

    def test_a_repeated_observation_scores_no_landmark_again(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return attribute_similarity(a, b)

        monkeypatch.setattr(localization, "attribute_similarity", counting)
        m = registry_map()
        obs = [LandmarkObservation("door", {"material": "wood"})]
        first = match_landmarks(obs, m)
        assert len(calls) == len(m.landmarks)
        calls.clear()
        again = [LandmarkObservation("Doorway", {"material": " Wood"})]
        assert match_landmarks(obs, m) == first
        assert match_landmarks(again, m) == first
        assert calls == []
        # a new landmark drops the memo: the next call scores the registry afresh
        m.register_landmark("n0", Landmark("lm9", "door", {"material": "wood"}))
        assert match_landmarks(obs, m) == ref_match_landmarks(obs, m)
        assert len(calls) == len(m.landmarks)

    def test_registry_changes_reach_the_next_match(self):
        m = registry_map()
        obs = [LandmarkObservation("plant", {"color": "green"}),
               LandmarkObservation("door", {"color": "red", "size": "large"})]
        before = match_landmarks(obs, m)
        assert before == ref_match_landmarks(obs, m)
        m.register_landmark("n3", Landmark("lm8", "Plant ", {"color": "GREEN"}))
        after = match_landmarks(obs, m)
        assert after == ref_match_landmarks(obs, m)
        assert [x.landmark_id for x in after if x.observation_index == 0] == ["lm8"]
        # lm3 keeps its color and gains lm4's size, and lm4 is gone
        assert m.merge_covisible("lm3", "lm4") == ["attribute 'material': kept 'wood', dropped "
                                                   "'WOOD ' from 'lm4'"]
        merged = match_landmarks(obs, m)
        assert merged == ref_match_landmarks(obs, m)
        door = {x.landmark_id: x.score for x in after if x.observation_index == 1}
        merged_door = {x.landmark_id: x.score for x in merged if x.observation_index == 1}
        assert set(door) == {"lm3", "lm4", "lm7"} and set(merged_door) == {"lm3", "lm7"}
        assert merged_door["lm3"] > door["lm3"]


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
        matches = match_landmarks(obs, m)
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
            got = candidate_nodes(m, match_landmarks(obs, m))
            want = set()
            for lm in m.landmarks.values():
                score = 0.6 * (canonical_category(lm.category) == canonical_category(obs[0].category))
                score += 0.4 * attribute_similarity(obs[0].visual_attributes, lm.visual_attributes)
                if score >= 0.6:
                    want |= lm.node_ids
            assert got == want


class TestVisualFilter:
    # the threshold is a module constant, 0.5; the edge cases patch it
    def test_threshold_zero_keeps_all(self, monkeypatch):
        monkeypatch.setattr(localization, "_FILTER_THRESHOLD", 0.0)
        m = line_map()
        kept = visual_filter(QueryContext(), {"n0", "n1"}, lambda c, n: 0.0, m)
        assert kept == {"n0", "n1"}

    def test_threshold_one_keeps_only_perfect(self, monkeypatch):
        monkeypatch.setattr(localization, "_FILTER_THRESHOLD", 1.0)
        m = line_map()
        oracle = lambda c, n: 1.0 if n.id == "n2" else 0.99
        assert visual_filter(QueryContext(), {"n1", "n2", "n3"}, oracle, m) == {"n2"}

    def test_mid_threshold(self):
        m = line_map()
        scores = {"n0": 0.2, "n1": 0.7, "n2": 0.9, "n3": 0.5, "n4": 0.49}
        oracle = lambda c, n: scores[n.id]
        assert visual_filter(QueryContext(), set(scores), oracle, m) == {"n1", "n2", "n3"}

    def test_oracle_failure_drops_node(self, caplog):
        m = line_map()

        def oracle(ctx, n):
            if n.id == "n1":
                raise RuntimeError("boom")
            return 1.0

        with caplog.at_level("WARNING"):
            kept = visual_filter(QueryContext(), {"n0", "n1"}, oracle, m)
        assert kept == {"n0"}
        assert any("n1" in rec.message for rec in caplog.records)

    def test_monotone_in_threshold(self, monkeypatch):
        m = line_map()
        rng = np.random.default_rng(0)
        scores = {nid: float(rng.random()) for nid in m.nodes}
        oracle = lambda c, n: scores[n.id]
        prev = None
        for thr in np.linspace(0, 1, 11):
            monkeypatch.setattr(localization, "_FILTER_THRESHOLD", float(thr))
            kept = visual_filter(QueryContext(), set(m.nodes), oracle, m)
            if prev is not None:
                assert kept <= prev
            prev = kept


def ref_reference_nodes(m, candidates, k=3):
    """Every node ranked per candidate by its own norm plus 0.5 times its
    angle, then id, with nothing kept between calls."""
    want = set()
    for cid in candidates:
        cand = m.nodes[cid]
        ranked = sorted(m.nodes, key=lambda nid: (
            float(np.linalg.norm(np.asarray(m.nodes[nid].pose.position) - np.asarray(cand.pose.position)))
            + 0.5 * cand.pose.angle_to(m.nodes[nid].pose),
            nid,
        ))
        want.update(ranked[:k])
    return sorted(want)


def rounding_tie_map(rng):
    """A candidate "c", one node beside it and node pairs mirrored about it
    with one random orientation each: ties in exact arithmetic, so the K-th
    reference is decided by the rounding of each key, then by id."""
    c = rng.uniform(-50, 50, 3)
    m = TopoMap().add_node(MapNode("c", Pose6(tuple(c))))
    m.add_node(MapNode("near", Pose6(tuple(c + rng.uniform(-0.01, 0.01, 3)))))
    for i in range(4):
        v, q = rng.uniform(-3, 3, 3), rng.normal(size=4)
        q = tuple(q / np.linalg.norm(q))
        m.add_node(MapNode(f"a{i}", Pose6(tuple(c + v), q)))
        m.add_node(MapNode(f"b{i}", Pose6(tuple(c - v), q)))
    return m


def random_pose_map(rng):
    """Nodes on a coarse lattice (many equal distances) with a few random
    orientations, so ranks tie in exact arithmetic and break on rounding or id."""
    m = TopoMap()
    quats = [(1.0, 0.0, 0.0, 0.0)] + [tuple(q / np.linalg.norm(q)) for q in rng.normal(size=(2, 4))]
    for i in range(int(rng.integers(1, 30))):
        xyz = tuple(float(v) for v in rng.integers(-3, 4, 3) * 0.5)
        m.add_node(MapNode(f"n{i:02d}", Pose6(xyz, quats[int(rng.integers(len(quats)))])))
    return m


class TestReferences:
    # three references per candidate; the k = 1 case patches the constant
    def test_k1_returns_candidates(self, monkeypatch):
        monkeypatch.setattr(localization, "_REF_K", 1)
        m = line_map()
        assert sample_reference_nodes(m, {"n2"}) == ["n2"]

    def test_kept_references_are_never_served_under_another_k(self, monkeypatch):
        m = line_map()
        assert sample_reference_nodes(m, {"n2"}) == ["n1", "n2", "n3"]
        monkeypatch.setattr(localization, "_REF_K", 1)
        assert sample_reference_nodes(m, {"n2"}) == ["n2"]
        monkeypatch.setattr(localization, "_REF_K", 2)
        assert sample_reference_nodes(m, {"n2", "n0"}) == ["n0", "n1", "n2"]
        monkeypatch.setattr(localization, "_REF_K", 3)
        assert sample_reference_nodes(m, {"n2"}) == ["n1", "n2", "n3"]

    def test_nearest_by_metric(self):
        m = line_map(5)
        assert sample_reference_nodes(m, {"n0"}) == ["n0", "n1", "n2"]
        # equal distances break ties on node id
        assert sample_reference_nodes(m, {"n2"}) == ["n1", "n2", "n3"]

    def test_empty_candidates(self):
        assert sample_reference_nodes(line_map(), set()) == []

    def test_angle_term_matters(self):
        m = TopoMap()
        m.add_node(node("q", 0, 0))
        # near but rotated by pi vs slightly farther but aligned
        m.add_node(MapNode("rot", Pose6((0.5, 0, 0), (0.0, 0.0, 0.0, 1.0))))
        m.add_node(node("far", 1.0, 0))
        m.add_node(node("farther", 1.5, 0))
        refs = sample_reference_nodes(m, {"q"})
        assert refs == ["far", "farther", "q"]  # 0.5 + 0.5*pi > 1.5

    def test_matches_per_node_keys_on_rounding_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = rounding_tie_map(rng)
            assert sample_reference_nodes(m, {"c", "a0"}) == ref_reference_nodes(m, {"c", "a0"})

    def test_kept_references_match_an_unkept_reference_in_any_call_order(self):
        # candidate sets that overlap, asked in a random order and asked again, so
        # each call finds a different part of them kept
        rng = np.random.default_rng(8)
        maps = [rounding_tie_map(rng) for _ in range(40)] + [random_pose_map(rng) for _ in range(40)]
        for m in maps:
            ids = sorted(m.nodes)
            sets = [set(rng.choice(ids, size=int(rng.integers(1, min(len(ids), 5) + 1)),
                                   replace=False).tolist()) for _ in range(4)]
            for k in rng.permutation(len(sets) * 2).tolist():
                cands = sets[k % len(sets)]
                assert sample_reference_nodes(m, cands) == ref_reference_nodes(m, cands)
            for cid in ids:
                assert sample_reference_nodes(m, {cid}) == ref_reference_nodes(m, {cid})
            assert sample_reference_nodes(m, set(ids)) == ref_reference_nodes(m, ids)

    def test_each_node_is_ranked_once(self, monkeypatch):
        ranked = []
        distances = topomap._NodeIndex.distances

        def counting(self, centers):
            ranked.append(len(centers))
            return distances(self, centers)

        monkeypatch.setattr(topomap._NodeIndex, "distances", counting)
        m = line_map(6)
        assert sample_reference_nodes(m, {"n0", "n3"}) == ["n0", "n1", "n2", "n3", "n4"]
        assert sample_reference_nodes(m, {"n3", "n0"}) == ["n0", "n1", "n2", "n3", "n4"]
        # two candidates not kept yet are ranked together, in one pass
        assert sample_reference_nodes(m, {"n0", "n5", "n1"}) == ["n0", "n1", "n2", "n3", "n4", "n5"]
        assert ranked == [2, 2]

    def test_a_node_added_after_a_ranking_is_found(self):
        m = line_map(5)
        assert sample_reference_nodes(m, {"n2"}) == ["n1", "n2", "n3"]
        # nearer to n2 than both kept neighbours, and the first in id order
        m.add_node(node("m", 2.3, 0.0))
        assert sample_reference_nodes(m, {"n2"}) == ["m", "n1", "n2"]
        assert sample_reference_nodes(m, {"n2"}) == ref_reference_nodes(m, {"n2"})

    def test_angle_term_rounds_as_angle_to(self):
        # a rotated node A and an aligned node B exactly at A's per-node key: the
        # tie for the third reference goes to the smaller id only if A's key is
        # computed with the same roundings, arc cosine included
        rng = np.random.default_rng(4)
        for _ in range(300):
            v, q = rng.uniform(0.5, 2.0, 3), rng.normal(size=4)
            rotated = Pose6(tuple(v), tuple(q / np.linalg.norm(q)))
            key = float(np.linalg.norm(v)) + 0.5 * Pose6().angle_to(rotated)
            for a_id, b_id in (("a", "b"), ("b", "a")):
                m = TopoMap().add_node(node("c", 0.0, 0.0)).add_node(node("near", 0.001, 0.0))
                m.add_node(MapNode(a_id, rotated)).add_node(node(b_id, key, 0.0))
                assert sample_reference_nodes(m, {"c"}) == ["a", "c", "near"]


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

    def test_nearest_mode_snaps(self, monkeypatch):
        m = TopoMap().add_node(node("a", 0, 0)).add_node(node("b", 2, 0))
        scores = {"a": 0.9, "b": 0.1}
        planar, built = Pose6.planar, []
        monkeypatch.setattr(Pose6, "planar", lambda self: built.append(self) or planar(self))
        pose, _ = fine_localize(
            QueryContext(), ["a", "b"], lambda c, n: scores[n.id], m, mode="nearest"
        )
        assert pose == Pose2(0, 0, 0)
        assert built == [m.nodes["a"].pose]  # the chosen reference's pose alone

    _score = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf, 2.0**53]),
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([0, 1, 2**53 + 1, -(2**63)]),
        st.booleans(),
        st.floats(-2.0, 2.0).map(np.float64),
    )

    @settings(max_examples=500, deadline=None)
    @given(scores=st.one_of(
        st.lists(_score, min_size=1, max_size=12),
        st.lists(st.sampled_from([0.0, 1.0, math.nan]), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    ))
    @example(scores=[2**53, 2**53 + 1])  # ints that compare equal as floats
    @example(scores=[2.0**53, 2**53 + 1])  # but as floats beside a float
    @example(scores=[0.5, math.nan, 1.0, math.nan])
    @example(scores=[True, 1, 1.0])
    def test_nearest_mode_takes_numpy_max_and_argmax(self, scores):
        # ties keep the first, a NaN is the maximum and the first NaN wins,
        # ints compare exactly unless a float joins them
        m = TopoMap()
        for i in range(len(scores)):
            m.add_node(node(f"n{i:02d}", i, 0))
        pose, confidence = fine_localize(QueryContext(), list(m.nodes)[::-1],
                                         lambda c, n: scores[int(n.id[1:])], m, mode="nearest")
        array = np.array(scores)
        want = float(np.max(array))
        assert pose == m.nodes[f"n{int(np.argmax(array)):02d}"].pose.planar()
        assert type(confidence) is float
        if math.isnan(want):
            assert math.isnan(confidence)
        elif want == 0.0:
            # numpy's reduction gives either sign on a 0.0 / -0.0 tie
            assert confidence == 0.0
        else:
            assert np.float64(confidence).tobytes() == np.float64(want).tobytes()

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown fine localization mode: 'bogus'"):
            fine_localize(QueryContext(), ["n2"], lambda c, n: 0.7, line_map(), mode="bogus")

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
        result = localize(obs, ctx, m, make_ground_truth_oracle())
        assert result.estimated_pose is not None
        err = math.hypot(result.estimated_pose.x - 2.0, result.estimated_pose.y - 0.0)
        assert err <= 0.5
        assert result.confidence == 1.0
        assert result.filtered_node_ids <= result.candidate_node_ids

    def test_empty_query_soft_fails(self):
        result = localize([], QueryContext(), line_map(), heuristic_oracle)
        assert result.confidence == 0.0
        assert result.estimated_pose is None

    def test_ambiguous_landmark_disambiguated_by_oracle(self):
        m = TopoMap().add_node(node("near", 0, 0)).add_node(node("far", 30, 0))
        lm = Landmark("lm1", "sofa", {"color": "gray"})
        m.register_landmark("near", lm)
        m.register_landmark("far", lm)
        obs = [LandmarkObservation("sofa", {"color": "gray"})]
        ctx = QueryContext(pose=Pose2(0.1, 0.0, 0.0))
        result = localize(obs, ctx, m, make_ground_truth_oracle(), "nearest")
        assert result.candidate_node_ids == {"near", "far"}
        assert result.filtered_node_ids == {"near"}
        assert result.reference_node_ids == ["far", "near"]
        assert result.estimated_pose.x == pytest.approx(0.0)


    @pytest.mark.parametrize("score", [0.0, 1.0], ids=["none-passes", "one-passes"])
    def test_unknown_fine_mode_is_refused_up_front(self, score):
        # refused whether or not a candidate passes the filter, before the oracle is asked
        m = line_map()
        obs = [LandmarkObservation("sofa", {"color": "gray"})]
        asked = []

        def oracle(ctx, n):
            asked.append(n.id)
            return score

        for mode in ("weighted", "nearest"):
            result = localize(obs, QueryContext(), m, oracle, mode)
            assert (result.estimated_pose is not None) == (score > 0)
        asked.clear()
        with pytest.raises(ValueError, match="unknown fine localization mode: 'bogus'"):
            localize(obs, QueryContext(), m, oracle, "bogus")
        assert asked == []


def ref_goal_localize(instruction_terms, topo, current_pose, r0=10.0, r_step=10.0, r_max=100.0):
    """goal_localize as a ring search: rings from r0 widened by r_step up to
    r_max, the nearest matching node in the plane from the first ring that
    holds one; terms are only lower-cased, landmark text split into words."""

    def text_tokens(lm):
        text = lm.category + " " + (lm.functional_description or "")
        tokens, word = set(), []
        for ch in text.lower():
            if ch.isalnum():
                word.append(ch)
            elif word:
                tokens.add("".join(word))
                word = []
        if word:
            tokens.add("".join(word))
        return tokens

    terms = [t.lower() for t in instruction_terms if t]
    matching = [lm for lm in topo.landmarks.values() if all(t in text_tokens(lm) for t in terms)]
    center = (current_pose.x, current_pose.y, 0.0)
    r = r0
    while True:
        ring = topo.spatial_query(center, r)
        candidates = sorted({nid for lm in matching for nid in lm.node_ids} & ring)
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
            raise GoalNotFoundError(f"no landmark matching {instruction_terms!r} within {r_max} m")
        r = min(r + r_step, r_max)


def goal_outcome(search, *args):
    """The goal node id `search` returns, or "not found"."""
    try:
        return search(*args)[0]
    except GoalNotFoundError:
        return "not found"


GOAL_CATEGORIES = ["sofa", "door", "shelf", "tv"]


def drawn_goal_map(data, layout):
    """A map of up to 25 nodes, on a 0.5 m lattice ("lattice"), anywhere in
    the plane ("uniform") or anywhere in space ("3d"), with up to 6
    landmarks of GOAL_CATEGORIES seen from 1-3 nodes each."""
    n = data.draw(st.integers(1, 25), label="n")
    if layout == "lattice":
        coord = st.integers(-40, 40).map(lambda k: k * 0.5)
    else:
        coord = st.floats(-30.0, 30.0, allow_nan=False)
    height = coord if layout == "3d" else st.just(0.0)
    m = TopoMap()
    for i in range(n):
        x, y, z = data.draw(st.tuples(coord, coord, height), label=f"node {i}")
        m.add_node(MapNode(f"n{i:02d}", Pose6((x, y, z))))
    for k in range(data.draw(st.integers(1, 6), label="landmarks")):
        cat = data.draw(st.sampled_from(GOAL_CATEGORIES), label=f"category {k}")
        seen = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), label=f"nodes {k}")
        for i in sorted(seen):
            m.register_landmark(f"n{i:02d}", Landmark(f"lm{k}", cat, {}, f"use the {cat} here"))
    return m


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
        # a goal inside a small r_max is found as it was in a first ring of that radius
        m = self.make_map()
        nid, pose = goal_localize(["resting"], m, Pose2(0, 0, 0), r_max=5.0)
        assert nid == "n01"
        assert pose.x == pytest.approx(1.0)

    def test_ring_expansion(self):
        # one query reaches as far as r_max, where rings once had to widen to
        m = self.make_map()
        nid, _ = goal_localize(["storage"], m, Pose2(0, 0, 0), r_max=50.0)
        assert nid == "n12"
        assert goal_localize(["storage"], m, Pose2(0, 0, 0), r_max=12.0)[0] == "n12"
        with pytest.raises(GoalNotFoundError, match="within 11.9 m"):
            goal_localize(["storage"], m, Pose2(0, 0, 0), r_max=11.9)

    def test_not_found(self):
        with pytest.raises(GoalNotFoundError):
            goal_localize(["unicorn"], self.make_map(), Pose2(0, 0, 0), r_max=20.0)

    @pytest.mark.parametrize(
        "terms",
        [["Sofa."], ["resting,", "sofa"], ["living areas"], ["(sofa)", "for-resting"]],
        ids=["punctuated", "comma", "two-words-in-one-term", "hyphenated"],
    )
    def test_terms_are_split_into_words_as_landmark_text_is(self, terms):
        nid, _ = goal_localize(terms, self.make_map(), Pose2(0, 0, 0))
        assert nid == "n01"

    @pytest.mark.parametrize("terms", [[], [""], ["..."], [" ", "-", "?!"]],
                             ids=["none", "empty", "dots", "blank-and-punctuation"])
    def test_terms_without_a_word_are_refused(self, terms):
        with pytest.raises(LocalizationError, match="holds no word"):
            goal_localize(terms, self.make_map(), Pose2(0, 0, 0))

    def test_nearest_in_the_plane_among_all_nodes_within_r_max(self):
        # node a is nearer in the plane but 5 m up; a 4 m ring held only b
        m = TopoMap()
        m.add_node(MapNode("a", Pose6((1.0, 0.0, 5.0))))
        m.add_node(MapNode("b", Pose6((3.0, 0.0, 0.0))))
        for nid in ("a", "b"):
            m.register_landmark(nid, Landmark("lm", "sofa", {}, None))
        here = Pose2(0, 0, 0)
        assert ref_goal_localize(["sofa"], m, here, r0=4.0, r_step=4.0, r_max=10.0)[0] == "b"
        assert goal_localize(["sofa"], m, here, r_max=10.0)[0] == "a"
        assert goal_localize(["sofa"], m, here, r_max=4.0)[0] == "b"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_ring_search_at_r_max(self, data):
        layout = data.draw(st.sampled_from(["lattice", "uniform", "3d"]), label="layout")
        m = drawn_goal_map(data, layout)
        term = data.draw(st.sampled_from(GOAL_CATEGORIES + ["unicorn"]), label="term")
        here = Pose2(*data.draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), label="pose"), 0.0)
        r_max = data.draw(st.floats(0.5, 60.0), label="r_max")
        got = goal_outcome(goal_localize, [term], m, here, r_max)
        assert got == goal_outcome(ref_goal_localize, [term], m, here, r_max, r_max, r_max)
        if layout != "3d":
            # in the plane, the first ring holding a match holds the nearest one
            r0 = data.draw(st.floats(r_max / 40, r_max), label="r0")
            r_step = data.draw(st.floats(r_max / 40, r_max), label="r_step")
            assert got == goal_outcome(ref_goal_localize, [term], m, here, r0, r_step, r_max)

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
                    goal_localize([term], m, cur)
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
            got, _ = goal_localize([term], m, cur)
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
