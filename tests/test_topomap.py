import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astra_nav.errors import MapError
from astra_nav.topomap import Landmark, MapNode, Pose6, TopoMap, node_components


def node(nid, x=0.0, y=0.0, z=0.0):
    return MapNode(nid, Pose6((x, y, z)))


def simple_map():
    m = TopoMap()
    m.add_node(node("a", 0, 0)).add_node(node("b", 1, 0)).add_node(node("c", 1, 1))
    m.add_edges([("a", "b", Pose6((1, 0, 0))), ("b", "c", Pose6((0, 1, 0)))])
    return m


class TestConstruction:
    def test_duplicate_node_id(self):
        m = TopoMap().add_node(node("a"))
        with pytest.raises(MapError, match="duplicate"):
            m.add_node(node("a"))

    def test_self_loop(self):
        m = TopoMap().add_node(node("a"))
        with pytest.raises(MapError, match="self-loop"):
            m.add_edges([("a", "a", Pose6())])

    def test_missing_endpoint(self):
        m = TopoMap().add_node(node("a"))
        with pytest.raises(MapError, match="does not exist"):
            m.add_edges([("a", "zz", Pose6())])

    def test_edge_length_pythagorean(self):
        m = TopoMap().add_node(node("a")).add_node(node("b"))
        m.add_edges([("a", "b", Pose6((3, 4, 0)))])
        assert m.edges[("a", "b")].length == pytest.approx(5.0)

    def test_edges_are_undirected(self):
        m = TopoMap().add_node(node("a")).add_node(node("b"))
        m.add_edges([("b", "a", Pose6((1, 0, 0)))])
        assert ("a", "b") in m.edges

    @pytest.mark.parametrize("position,quaternion", [((1, 2), (1, 0, 0, 0)), ((1, 2, 3), (1, 0, 0))])
    def test_pose_refuses_a_wrong_length(self, position, quaternion):
        # the node index, and so validate, reads every position as three numbers
        with pytest.raises(ValueError, match="three position and four quaternion"):
            Pose6(position, quaternion)

    def test_add_edges_names_the_refused_edge(self):
        m = TopoMap().add_node(node("a")).add_node(node("b"))
        with pytest.raises(MapError, match=r"self-loop edge \('b', 'b'\)"):
            m.add_edges([("a", "b", Pose6((1, 0, 0))), ("b", "b", Pose6())])
        with pytest.raises(MapError, match=r"edge \('zz', 'a'\) endpoint 'zz' does not exist"):
            m.add_edges([("zz", "a", Pose6())])
        assert list(m.edges) == [("a", "b")]

    def test_queries_made_before_add_edges_see_its_edges(self):
        m = TopoMap()
        for nid in "abcd":
            m.add_node(node(nid))
        assert not m.connected("a", "c") and m.shortest_path("a", "c") == []
        m.add_edges([("a", "b", Pose6((1, 0, 0))), ("c", "b", Pose6((1, 0, 0)))])
        assert m.connected("a", "c") and m.shortest_path("a", "c") == ["a", "b", "c"]
        # the edges before a refused one stay added, and queries see them too
        with pytest.raises(MapError, match="does not exist"):
            m.add_edges([("c", "d", Pose6((1, 0, 0))), ("d", "zz", Pose6())])
        assert m.connected("a", "d") and m.shortest_path("a", "d") == ["a", "b", "c", "d"]


class TestLandmarks:
    def test_fresh_registration(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        assert m.landmarks["lm1"].node_ids == {"n1"}
        assert "lm1" in m.nodes["n1"].landmark_ids

    def test_reregistration_extends_registry(self):
        m = TopoMap().add_node(node("n1")).add_node(node("n2"))
        lm = Landmark("lm1", "sofa")
        m.register_landmark("n1", lm)
        m.register_landmark("n2", lm)
        assert m.landmarks["lm1"].node_ids == {"n1", "n2"}

    def test_missing_node(self):
        with pytest.raises(MapError, match="missing node"):
            TopoMap().register_landmark("ghost", Landmark("lm1", "sofa"))

    def test_merge_self_is_noop(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa"))
        before = m.to_jsonable()
        assert m.merge_covisible("lm1", "lm1") == []
        assert m.to_jsonable() == before

    def test_merge_unions_nodes(self):
        m = TopoMap().add_node(node("n1")).add_node(node("n2"))
        m.register_landmark("n1", Landmark("lm1", "sofa"))
        m.register_landmark("n2", Landmark("lm2", "sofa"))
        warnings = m.merge_covisible("lm1", "lm2")
        assert warnings == []
        assert set(m.landmarks) == {"lm1"}
        assert m.landmarks["lm1"].node_ids == {"n1", "n2"}
        assert m.nodes["n2"].landmark_ids == {"lm1"}
        assert m.validate().ok

    def test_merge_category_conflict(self):
        m = TopoMap().add_node(node("n1")).add_node(node("n2"))
        m.register_landmark("n1", Landmark("lm1", "sofa"))
        m.register_landmark("n2", Landmark("lm2", "door"))
        with pytest.raises(MapError, match="category conflict"):
            m.merge_covisible("lm1", "lm2")

    def test_merge_attribute_conflict_warns(self):
        m = TopoMap().add_node(node("n1")).add_node(node("n2"))
        m.register_landmark("n1", Landmark("lm1", "sofa", {"color": "gray"}))
        m.register_landmark("n2", Landmark("lm2", "sofa", {"color": "brown"}))
        warnings = m.merge_covisible("lm1", "lm2")
        assert len(warnings) == 1 and "color" in warnings[0]
        assert m.landmarks["lm1"].visual_attributes["color"] == "gray"

    def test_merge_missing_landmark(self):
        m = TopoMap().add_node(node("n1"))
        m.register_landmark("n1", Landmark("lm1", "sofa"))
        with pytest.raises(MapError, match="missing landmark"):
            m.merge_covisible("lm1", "zzz")

    def test_nodes_for_landmark(self):
        m = TopoMap().add_node(node("n1")).add_node(node("n3"))
        lm = Landmark("lm1", "door")
        m.register_landmark("n1", lm)
        m.register_landmark("n3", lm)
        assert m.nodes_for_landmark("lm1") == {"n1", "n3"}
        with pytest.raises(MapError):
            m.nodes_for_landmark("nope")


class TestSpatialQuery:
    def test_zero_radius_hits_exact_node(self):
        m = TopoMap().add_node(node("a", 1.0, 2.0, 0.0))
        assert m.spatial_query((1.0, 2.0, 0.0), 0.0) == {"a"}

    def test_boundary_inclusive(self):
        m = TopoMap()
        for i, d in enumerate((1.0, 2.0, 3.0)):
            m.add_node(node(f"n{i}", d, 0.0))
        assert m.spatial_query((0, 0, 0), 2.0) == {"n0", "n1"}

    def test_negative_radius(self):
        with pytest.raises(MapError, match="negative"):
            TopoMap().spatial_query((0, 0, 0), -1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        m = TopoMap()
        pts = rng.uniform(-5, 5, size=(40, 3))
        for i, p in enumerate(pts):
            m.add_node(node(f"n{i:02d}", *p))
        for _ in range(20):
            center = rng.uniform(-5, 5, size=3)
            r = rng.uniform(0, 8)
            expect = {
                f"n{i:02d}" for i, p in enumerate(pts) if np.linalg.norm(p - center) <= r
            }
            assert m.spatial_query(center, r) == expect


    def test_boundary_at_each_per_node_norm(self):
        # a radius equal to one node's norm keeps exactly the nodes whose own norm,
        # as np.linalg.norm rounds it, is no larger
        rng = np.random.default_rng(12)
        for _ in range(50):
            center = rng.uniform(-50, 50, size=3)
            offsets = rng.uniform(-3, 3, size=(10, 3))
            pts = np.concatenate([center + offsets, center - offsets])
            m = TopoMap()
            for i, p in enumerate(pts):
                m.add_node(node(f"n{i:02d}", *p))
            norms = [np.linalg.norm(p - center) for p in pts]
            for r in norms:
                assert m.spatial_query(center, r) == {f"n{i:02d}" for i, d in enumerate(norms) if d <= r}


class TestNodeIndex:
    def test_rows_follow_sorted_ids(self):
        m = TopoMap()
        for nid, x in (("b", 1.0), ("a", 2.0), ("c", 3.0)):
            m.add_node(node(nid, x, -x, 0.5))
        index = m.node_index()
        assert index.ids == ("a", "b", "c")
        assert index.row == {"a": 0, "b": 1, "c": 2}
        assert index.positions.tolist() == [[2.0, -2.0, 0.5], [1.0, -1.0, 0.5], [3.0, -3.0, 0.5]]
        assert index.quaternions.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 3
        assert m.node_index() is index  # kept until a node is added

    def test_rebuilt_after_add_node(self):
        m = simple_map()
        assert m.spatial_query((5.0, 5.0, 0.0), 0.5) == set()
        m.add_node(node("d", 5.0, 5.0))
        assert m.node_index().ids == ("a", "b", "c", "d")
        assert m.spatial_query((5.0, 5.0, 0.0), 0.5) == {"d"}

    def test_empty_map(self):
        index = TopoMap().node_index()
        assert index.ids == () and index.positions.shape == (0, 3)
        assert TopoMap().spatial_query((0, 0, 0), 1.0) == set()

    def test_loaded_map_builds_its_own_index(self):
        m = simple_map()
        m.node_index()
        loaded = TopoMap.from_jsonable(m.to_jsonable())
        assert loaded == m
        assert loaded.node_index().ids == ("a", "b", "c")
        assert loaded.node_index().positions.tolist() == m.node_index().positions.tolist()
        loaded.add_node(node("d", 9.0, 9.0))
        assert loaded.spatial_query((9.0, 9.0, 0.0), 0.0) == {"d"}


class TestSightings:
    def test_landmark_nodes_in_id_order(self):
        m = simple_map()
        m.register_landmark("c", Landmark("l1", "sofa")).register_landmark("a", Landmark("l2", "door"))
        table = m.sightings()
        assert (table.ids, table.x, table.y) == (("a", "c"), (0.0, 1.0), (0.0, 1.0))
        assert table.matches == {}
        m.add_edges([("a", "c", Pose6((1, 1, 0)))])
        assert m.sightings() is table  # edges leave the sightings alone

    @pytest.mark.parametrize("change", ["add_node", "register_landmark", "merge_covisible"])
    def test_dropped_by_each_registry_change(self, change):
        m = simple_map()
        m.register_landmark("a", Landmark("l1", "sofa")).register_landmark("b", Landmark("l2", "sofa"))
        table = m.sightings()
        if change == "add_node":
            m.add_node(MapNode("d", Pose6((2.0, 0.0, 0.0)), landmark_ids={"l1"}))
        elif change == "register_landmark":
            m.register_landmark("c", Landmark("l1", "sofa"))
        else:
            m.merge_covisible("l1", "l2")
        assert m.sightings() is not table
        assert m.sightings().ids == tuple(sorted(nid for nid, n in m.nodes.items() if n.landmark_ids))

    def test_a_refused_merge_keeps_them(self):
        m = simple_map()
        m.register_landmark("a", Landmark("l1", "sofa")).register_landmark("b", Landmark("l2", "door"))
        table = m.sightings()
        with pytest.raises(MapError):
            m.merge_covisible("l1", "l2")
        assert m.sightings() is table


def test_edge_lengths_equal_the_norm_of_each_offset():
    # one call computes each distinct offset's length once; equal offsets, and
    # offsets that differ only in the sign of a zero, get the norm of their own bits
    rng = np.random.default_rng(5)
    offsets = [tuple(rng.uniform(-3, 3, 3)) for _ in range(20)]
    offsets += offsets[:5] + [(0.0, 1.5, 0.0), (-0.0, 1.5, -0.0), (-0.0, -1.5, 0.0)]
    m = TopoMap()
    for i in range(len(offsets) + 1):
        m.add_node(node(f"n{i:02d}"))
    m.add_edges((f"n{i:02d}", f"n{i + 1:02d}", Pose6(off)) for i, off in enumerate(offsets))
    for i, off in enumerate(offsets):
        assert m.edges[(f"n{i:02d}", f"n{i + 1:02d}")].length == float(np.linalg.norm(off))


def ref_components(n, links):
    """The lowest node index of each node's component, by a stack search."""
    adj = [set() for _ in range(n)]
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    lowest = [-1] * n
    for root in range(n):
        if lowest[root] < 0:
            lowest[root] = root
            stack = [root]
            while stack:
                for nxt in adj[stack.pop()]:
                    if lowest[nxt] < 0:
                        lowest[nxt] = root
                        stack.append(nxt)
    return lowest


class TestNodeComponents:
    def test_lowest_index_per_component(self):
        # components {0, 3, 5}, {1, 4}, {2}, {6, 7}, linked high index first
        i = np.array([5, 4, 7, 3, 2], dtype=np.intp)
        j = np.array([3, 1, 6, 0, 2], dtype=np.intp)
        assert node_components(8, i, j).tolist() == [0, 1, 2, 0, 1, 0, 6, 6]

    def test_chain_linked_from_the_far_end(self):
        n = 50
        i = np.arange(n - 1, 0, -1)
        assert node_components(n, i, i - 1).tolist() == [0] * n

    def test_empty_graph(self):
        empty = np.zeros(0, dtype=np.intp)
        assert node_components(0, empty, empty).tolist() == []
        assert node_components(3, empty, empty).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("numbering", ["reversed", "bit-reversed", "shuffled"])
    def test_chains_numbered_against_their_order(self, numbering):
        # two chains of 128 nodes whose walk along the chain does not follow
        # their numbering, so the lowest label must travel against the links
        n = 256
        walk = {
            "reversed": np.arange(n)[::-1],
            "bit-reversed": np.array([int(f"{k:08b}"[::-1], 2) for k in range(n)]),
            "shuffled": np.random.default_rng(3).permutation(n),
        }[numbering]
        links = [(int(a), int(b)) for chain in (walk[: n // 2], walk[n // 2 :])
                 for a, b in zip(chain[:-1], chain[1:])]
        i, j = np.array(links).T
        got = node_components(n, i, j).tolist()
        assert got == ref_components(n, links)
        assert len(set(got)) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_repeated_links_and_self_loops_change_nothing(self, data):
        n = data.draw(st.integers(1, 15), label="n")
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        links = data.draw(st.lists(pair, max_size=20), label="links")
        repeats = data.draw(st.lists(st.integers(1, 4), min_size=len(links), max_size=len(links)),
                            label="repeats")
        loops = data.draw(st.lists(st.integers(0, n - 1), max_size=10), label="self-loops")
        more = [link for link, k in zip(links, repeats) for _ in range(k)]
        more += [(b, a) for a, b in links] + [(v, v) for v in loops]
        order = data.draw(st.permutations(range(len(more))), label="order")
        more = [more[k] for k in order]
        i = np.array([a for a, _ in more], dtype=np.intp)
        j = np.array([b for _, b in more], dtype=np.intp)
        assert node_components(n, i, j).tolist() == ref_components(n, links)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_a_stack_search(self, data):
        n = data.draw(st.integers(0, 15), label="n")
        pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        links = data.draw(st.lists(pair, max_size=25 if n else 0), label="links")  # self-loops included
        i = np.array([a for a, _ in links], dtype=np.intp)
        j = np.array([b for _, b in links], dtype=np.intp)
        assert node_components(n, i, j).tolist() == ref_components(n, links)


def test_connected_answers_across_components_after_add_edges():
    m = TopoMap()
    for nid in "abcdef":
        m.add_node(node(nid))
    m.add_edges([("a", "b", Pose6((1, 0, 0))), ("c", "d", Pose6((1, 0, 0))), ("e", "f", Pose6((1, 0, 0)))])
    pairs = list(itertools.combinations("abcdef", 2))
    together = {("a", "b"), ("c", "d"), ("e", "f")}
    assert [m.connected(a, b) for a, b in pairs] == [(a, b) in together for a, b in pairs]
    m.add_edges([("d", "a", Pose6((1, 0, 0)))])
    together |= {(a, b) for a, b in itertools.combinations("abcd", 2)}
    assert [m.connected(a, b) for a, b in pairs] == [(a, b) in together for a, b in pairs]
    m.add_edges([("f", "b", Pose6((1, 0, 0)))])
    assert all(m.connected(a, b) for a, b in pairs)


class TestShortestPath:
    def test_trivial(self):
        m = simple_map()
        assert m.shortest_path("a", "a") == ["a"]

    def test_triangle_prefers_two_hops(self):
        m = TopoMap()
        for nid in "abc":
            m.add_node(node(nid))
        m.add_edges([("a", "b", Pose6((1, 0, 0))), ("b", "c", Pose6((1, 0, 0))),
                     ("a", "c", Pose6((3, 0, 0)))])
        assert m.shortest_path("a", "c") == ["a", "b", "c"]

    def test_disconnected_is_empty(self):
        m = TopoMap().add_node(node("a")).add_node(node("b"))
        assert m.shortest_path("a", "b") == []

    def test_missing_node(self):
        with pytest.raises(MapError, match="missing node"):
            simple_map().shortest_path("a", "zz")

    def test_lexicographic_tie_break(self):
        m = TopoMap()
        for nid in ("a", "m", "z", "goal"):
            m.add_node(node(nid))
        m.add_edges([("a", "m", Pose6((1, 0, 0))), ("m", "goal", Pose6((1, 0, 0))),
                     ("a", "z", Pose6((1, 0, 0))), ("z", "goal", Pose6((1, 0, 0)))])
        assert m.shortest_path("a", "goal") == ["a", "m", "goal"]

    def test_optimal_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = TopoMap()
            ids = [f"n{i}" for i in range(n)]
            for nid in ids:
                m.add_node(node(nid))
            lengths = {}
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < 0.45:
                    length = float(rng.uniform(0.1, 4.0))
                    m.add_edges([(ids[i], ids[j], Pose6((length, 0, 0)))])
                    lengths[(ids[i], ids[j])] = length
            src, dst = ids[0], ids[-1]
            # brute force over simple paths
            best_cost = math.inf
            stack = [(src, [src], 0.0)]
            while stack:
                cur, path, cost = stack.pop()
                if cur == dst:
                    best_cost = min(best_cost, cost)
                    continue
                for (a, b), length in lengths.items():
                    nxt = b if a == cur else a if b == cur else None
                    if nxt and nxt not in path:
                        stack.append((nxt, path + [nxt], cost + length))
            got = m.shortest_path(src, dst)
            if not got:
                assert best_cost == math.inf
            else:
                got_cost = sum(
                    lengths[tuple(sorted((x, y)))] for x, y in zip(got[:-1], got[1:])
                )
                assert got_cost == pytest.approx(best_cost)


class TestValidateAndPersistence:
    def test_empty_round_trip(self, tmp_path):
        m = TopoMap()
        path = tmp_path / "empty.json"
        m.save(path)
        assert TopoMap.load(path) == m

    def test_dangling_backref_is_violation(self):
        m = TopoMap().add_node(node("n1"))
        m.nodes["n1"].landmark_ids.add("ghost")
        report = m.validate()
        assert not report.ok
        assert len(report.violations) == 1
        assert "ghost" in report.violations[0]

    def test_random_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = TopoMap()
        ids = [f"n{i:03d}" for i in range(100)]
        for nid in ids:
            m.add_node(node(nid, *rng.uniform(-10, 10, 3)))
        for _ in range(150):
            a, b = rng.choice(ids, 2, replace=False)
            if tuple(sorted((a, b))) not in m.edges:
                m.add_edges([(a, b, Pose6(tuple(rng.uniform(-2, 2, 3))))])
        for k in range(30):
            lm = Landmark(
                f"lm{k:03d}",
                str(rng.choice(["sofa", "door", "shelf"])),
                {"color": str(rng.choice(["red", "gray"]))},
                "for testing",
            )
            for nid in rng.choice(ids, rng.integers(1, 4), replace=False):
                m.register_landmark(str(nid), lm)
        assert m.validate().ok
        path = tmp_path / "m.json"
        m.save(path)
        loaded = TopoMap.load(path)
        assert loaded == m
        assert loaded.validate().ok

    def test_load_reports_json_error_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [}')
        with pytest.raises(MapError, match="line"):
            TopoMap.load(path)

    def test_load_reports_missing_field(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text('{"nodes": [{"id": "a"}], "edges": [], "landmarks": []}')
        with pytest.raises(MapError, match="pose"):
            TopoMap.load(path)

    @pytest.mark.parametrize("length", [-2.0, -1e-300, math.nan, math.inf])
    def test_load_refuses_a_bad_edge_length(self, length):
        doc = simple_map().to_jsonable()
        doc["edges"][1]["length"] = length
        with pytest.raises(MapError, match=r"edges\[1\]"):
            TopoMap.from_jsonable(doc)
        doc["edges"][1]["length"] = -0.0  # zero-length edges stay allowed
        assert TopoMap.from_jsonable(doc).edges[("b", "c")].length == 0.0

    def test_validate_reports_a_negative_length_set_in_code(self):
        m = simple_map()
        m.edges[("a", "b")].length = -1.0
        assert m.validate().violations == ["edge ('a', 'b') has negative length"]

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf])
    def test_validate_flags_a_length_that_load_refuses(self, tmp_path, coordinate):
        m = simple_map()
        m.add_edges([("a", "c", Pose6((coordinate, 0, 0)))])
        assert m.validate().violations == ["edge ('a', 'c') has non-finite length"]
        m.save(tmp_path / "m.json")
        with pytest.raises(MapError, match="finite and >= 0"):
            TopoMap.load(tmp_path / "m.json")

    @pytest.mark.parametrize("position,quaternion", [
        ((math.inf, 0, 0), (1, 0, 0, 0)),
        ((0, math.nan, 0), (1, 0, 0, 0)),
        ((0, 0, 0), (1, 0, 0, -math.inf)),
    ])
    def test_validate_flags_a_non_finite_node_pose(self, position, quaternion):
        m = simple_map()
        assert m.validate().ok
        m.add_node(MapNode("d", Pose6(position, quaternion)))
        assert m.validate().violations == ["node 'd' has a non-finite pose"]


    def test_cross_reference_symmetry_after_ops(self):
        m = simple_map()
        lm = Landmark("lm1", "door")
        m.register_landmark("a", lm)
        m.register_landmark("b", lm)
        m.register_landmark("c", Landmark("lm2", "door"))
        m.merge_covisible("lm1", "lm2")
        report = m.validate()
        assert report.ok, report.violations
        for nid, n in m.nodes.items():
            for lid in n.landmark_ids:
                assert nid in m.landmarks[lid].node_ids
        for lid, lm in m.landmarks.items():
            for nid in lm.node_ids:
                assert lid in m.nodes[nid].landmark_ids


def test_pose6_planar_yaw():
    half = math.pi / 4
    q = (math.cos(half / 2), 0.0, 0.0, math.sin(half / 2))
    p = Pose6((1, 2, 3), q).planar()
    assert p.x == 1 and p.y == 2
    assert p.theta == pytest.approx(half)


@dataclasses.dataclass(frozen=True)
class PostInitPose6:
    """Pose6 as a generated __init__ that sets both fields, then a
    __post_init__ that converts them and sets them again."""

    position: tuple = (0.0, 0.0, 0.0)
    quaternion: tuple = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        position, quaternion = tuple(map(float, self.position)), tuple(map(float, self.quaternion))
        if len(position) != 3 or len(quaternion) != 4:
            raise ValueError(f"a pose needs three position and four quaternion numbers, got "
                             f"{position!r} and {quaternion!r}")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "quaternion", quaternion)


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),
    (((1, 2, 3),), {}),
    (([1, 2.5, -0.0], [1, 0, 0, 0]), {}),
    ((np.array([1, 2, 3]), (np.float32(0.5), np.int64(0), True, np.float64(-0.25))), {}),
    ((), {"quaternion": [0, 0, 0, 1]}),
    (((np.int8(4), 5, 6),), {"quaternion": np.array([1.0, 0.0, 0.0, 0.0])}),
    ((range(3), range(1, 5)), {}),
])
def test_pose6_converts_as_the_post_init_form(args, kwargs):
    got, want = Pose6(*args, **kwargs), PostInitPose6(*args, **kwargs)
    assert (got.position, got.quaternion) == (want.position, want.quaternion)
    assert all(type(v) is float for v in got.position + got.quaternion)
    assert np.array(got.position + got.quaternion).tobytes() == \
        np.array(want.position + want.quaternion).tobytes()
    assert hash(got) == hash(want)
    assert repr(got) == repr(want).replace("PostInitPose6", "Pose6", 1)
    assert got == Pose6(*args, **kwargs) and got != want
    assert dataclasses.replace(got) == got and [f.name for f in dataclasses.fields(got)] == [
        "position", "quaternion"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.position = (0.0, 0.0, 0.0)


@pytest.mark.parametrize("position,quaternion", [((1, 2), (1, 0, 0, 0)), ((1, 2, 3, 4), (1, 0, 0, 0, 0))])
def test_pose6_refuses_as_the_post_init_form(position, quaternion):
    with pytest.raises(ValueError) as want:
        PostInitPose6(position, quaternion)
    with pytest.raises(ValueError) as got:
        Pose6(position, quaternion)
    assert str(got.value) == str(want.value)
