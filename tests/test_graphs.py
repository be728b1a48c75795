import copy
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import strata as st
from strata import graphs
from support import (
    construct_graph_cycles_oracle,
    construct_graph_oracle,
    delete_edge_oracle,
    raised_rotation_oracle,
    subdivide_edge_oracle,
)
from strata.errors import (
    BoundViolation,
    IndexOutOfRange,
    InvalidSpec,
    NoRemovableEdge,
    NotSimple,
    OutOfRange,
    PreconditionUnmet,
    StrataError,
)

TRIANGLE_EDGES = [(0, 1), (0, 2), (1, 2)]


def euler_ok(m):
    r = m.report()
    return r.V - r.E + r.F == 2 - 2 * r.genus


class TestCombinatorialMap:
    def test_triangle_has_two_faces(self):
        m = st.build_map(3, TRIANGLE_EDGES)
        assert len(st.trace_faces(m)) == 2
        assert m.report() == st.EmbeddedGraphReport(3, 3, 2, 0, True)

    def test_path_has_one_face(self):
        m = st.build_map(2, [(0, 1)])
        r = m.report()
        assert (r.V, r.E, r.F, r.genus) == (2, 1, 1, 0)

    def test_loops_rejected(self):
        with pytest.raises(NotSimple):
            st.build_map(1, [(0, 0)])

    @pytest.mark.parametrize(
        "n, edges",
        [
            ("x", []),
            (2, None),
            (2, [(0, "a")]),
            (2, [(0, 1.0)]),
            (2, [[]]),
            (2, [(0, 5)]),
            (2, [(0, -1)]),
        ],
        ids=[
            "str-count",
            "None-edges",
            "str-vertex",
            "float-vertex",
            "empty-edge",
            "vertex-too-high",
            "negative-vertex",
        ],
    )
    def test_edges_must_be_integer_pairs(self, n, edges):
        # a negative vertex once indexed from the end of the vertex list
        with pytest.raises(InvalidSpec, match=r"^edges must be pairs of integer vertices"):
            st.build_map(n, edges)

    def test_double_edge_not_simple(self):
        m = st.build_map(2, [(0, 1), (0, 1)])
        assert not m.report().simple

    @pytest.mark.parametrize(
        "rotations",
        [
            [[0, 2], [1], [3]],  # dart 2 belongs at vertex 1, dart 3 at vertex 2
            [[0], [1, 7], [3, 2]],  # no edge has dart 7
            [[0], [1, 2], [3], [0]],  # a rotation for a vertex the map lacks
            [[0], [1, 2]],  # vertex 2's darts are missing
            [[0, 0], [1, 2], [3]],  # a dart listed twice
            [[0, "a"], [1, 2], [3]],  # a dart that does not sort with integers
            [[0.0], [1, 2], [3]],  # a float equal to a dart
            [[False], [True, 2], [3]],  # bools equal to darts
            [0, [1, 2], [3]],  # a rotation that is not a list
        ],
    )
    def test_rotations_must_match_edges(self, rotations):
        with pytest.raises(InvalidSpec):
            st.build_map(3, [(0, 1), (1, 2)], rotations=rotations)

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap((1, 0, 3, 2))

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap((0, 0, 1, 2))

    def test_json_round_trip(self):
        m = st.embed_complete(5, 1)
        assert st.CombinatorialMap.from_json_dict(m.to_json_dict()) == m

    @pytest.mark.parametrize(
        "call",
        [
            lambda: st.CombinatorialMap(()),
            lambda: st.CombinatorialMap.from_json_dict(
                {"darts": 4, "sigma": [[0], [1]], "alpha_convention": "pairs"}
            ),
            lambda: st.CombinatorialMap.from_json_dict(
                {"darts": 2, "sigma": [[0], [5]], "alpha_convention": "pairs"}
            ),
            lambda: st.build_map(3, [(0, 1)]),
        ],
        ids=["no-darts", "json-missing-darts", "json-foreign-dart", "isolated-vertex"],
    )
    def test_malformed_input_rejected(self, call):
        with pytest.raises(InvalidSpec):
            call()

    def test_json_requires_pair_convention(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap.from_json_dict(
                {"darts": 2, "sigma": [[0], [1]], "alpha_convention": "involution"}
            )

    @pytest.mark.parametrize("perm", [[1, 0, 0], [0, 0], [1, 2, 1]])
    def test_orbits_of_a_non_permutation_raise(self, perm):
        # a derived map is not re-checked, so a broken move must fail, not hang
        with pytest.raises(AssertionError, match="internal error"):
            graphs._orbits(perm)

    def test_views_walk_each_orbit_once(self, monkeypatch):
        # one walk of the vertex orbits and one of the face orbits per call
        m = st.embed_complete(4, 0)
        walked = []
        orbits = graphs._orbits

        def counting_orbits(perm):
            walked.append("vertex" if tuple(perm) == m.sigma else "face")
            return orbits(perm)

        monkeypatch.setattr(graphs, "_orbits", counting_orbits)
        for view in (st.CombinatorialMap.report, st.copeland_generators, st.assign_face_pairs):
            walked.clear()
            view(m)
            assert sorted(walked) == ["face", "vertex"], view


class TestGenusRange:
    def test_seven_vertices(self):
        assert st.complete_graph_genus_range(7) == (1, 7)

    def test_four_vertices(self):
        assert st.complete_graph_genus_range(4) == (0, 1)

    def test_five_vertices(self):
        assert st.complete_graph_genus_range(5) == (1, 3)

    def test_small_n_rejected(self):
        with pytest.raises(OutOfRange):
            st.complete_graph_genus_range(2)


class TestEmbedComplete:
    def test_k7_torus_triangulation(self):
        m = st.embed_complete(7, 1)
        assert m.report() == st.EmbeddedGraphReport(7, 21, 14, 1, True)

    def test_k5_all_achievable_genera(self):
        for g, faces in ((1, 5), (2, 3), (3, 1)):
            m = st.embed_complete(5, g)
            r = m.report()
            assert (r.genus, r.F, r.simple) == (g, faces, True)
            assert euler_ok(m)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            st.embed_complete(5, 4)
        with pytest.raises(OutOfRange):
            st.embed_complete(5, 0)

    def test_faceless_corner_rejected(self):
        # the published upper formula rounds up; the top value for K_4 and
        # K_3 would need a faceless decomposition, which cannot exist
        with pytest.raises(OutOfRange):
            st.embed_complete(4, 2)
        with pytest.raises(OutOfRange):
            st.embed_complete(3, 1)

    def test_raise_move_path(self):
        m = st.embed_complete(6, 3, seed=1)
        r = m.report()
        assert (r.V, r.genus, r.simple) == (6, 3, True)

    def test_every_supported_genus(self):
        for n in range(3, 9):
            E = n * (n - 1) // 2
            gamma, gamma_max = st.complete_graph_genus_range(n)
            for g in range(gamma, gamma_max + 1):
                F = E - n + 2 - 2 * g
                assert F >= 1
                m = st.embed_complete(n, g)
                r = m.report()
                assert (r.V, r.E, r.F, r.genus, r.simple) == (n, E, F, g, True)
                # the seed is accepted and ignored
                for seed in range(10):
                    assert st.embed_complete(n, g, seed=seed) == m

    def test_k7_torus_frozen_for_builder_misses(self):
        # K_7 at its minimum genus is Heawood's cyclic rotation, whatever the seed
        edges = list(itertools.combinations(range(7), 2))
        dart = {}
        for e, (u, v) in enumerate(edges):
            dart[(u, v)], dart[(v, u)] = 2 * e, 2 * e + 1
        cyclic = [[dart[(v, (v + d) % 7)] for d in (1, 3, 2, 6, 4, 5)] for v in range(7)]
        expected = st.build_map(7, edges, rotations=cyclic)
        for seed in (10, 20, 29):
            m = st.embed_complete(7, 1, seed=seed)
            assert m == expected
            assert m.report().F == 14

    def test_seed_determinism(self):
        a = st.embed_complete(6, 2, seed=42)
        b = st.embed_complete(6, 2, seed=42)
        assert a == b

    def test_size_cap(self):
        with pytest.raises(OutOfRange):
            st.embed_complete(9, 3)

    def test_k8_full_range(self):
        for g in range(2, 11):
            f = 28 - 8 + 2 - 2 * g
            r = st.embed_complete(8, g, seed=1).report()
            assert (r.genus, r.F, r.simple) == (g, f, True)


def _kn_map(n, neighbor_orders):
    edges = list(itertools.combinations(range(n), 2))
    dart = {}
    for e, (u, v) in enumerate(edges):
        dart[(u, v)], dart[(v, u)] = 2 * e, 2 * e + 1
    rotations = [[dart[(v, u)] for u in order] for v, order in enumerate(neighbor_orders)]
    return st.build_map(n, edges, rotations=rotations)


def _same_partition(a, b):
    # two face labellings name the same faces when pairing them is a bijection
    return len(a) == len(b) and len(set(zip(a, b))) == len(set(a)) == len(set(b))


def _owner(rot):
    # the vertex of each dart, from the dart cycles listed one per vertex
    return {d: v for v, cyc in enumerate(rot) for d in cyc}


def _traced_labels(rot):
    # per dart the index of its face, from a fresh trace of the rotation
    return graphs._faces(graphs._sigma_of(rot, sum(map(len, rot))))[1]


def _edge_multiset(rot):
    vertex_of = _owner(rot)
    return sorted(
        tuple(sorted((vertex_of[2 * e], vertex_of[2 * e + 1])))
        for e in range(len(vertex_of) // 2)
    )


class TestRaiseMove:
    def test_table_entries_have_minimum_genus(self):
        table = graphs._MIN_GENUS_ROTATIONS
        assert sorted(table) == list(range(3, graphs.MAX_COMPLETE_VERTICES + 1))
        for n, orders in table.items():
            m = _kn_map(n, orders)
            E = n * (n - 1) // 2
            F = len(st.trace_faces(m))
            gamma, _ = st.complete_graph_genus_range(n)
            assert n - E + F == 2 - 2 * gamma, n
            assert m.report().simple

    def test_each_move_raises_genus_by_one(self):
        for n in range(3, graphs.MAX_COMPLETE_VERTICES + 1):
            n_darts = n * (n - 1)
            rot = graphs._kn_rotation(n, graphs._MIN_GENUS_ROTATIONS[n])
            edges = _edge_multiset(rot)
            gamma, gamma_max = st.complete_graph_genus_range(n)
            before = st.CombinatorialMap(tuple(graphs._sigma_of(rot, n_darts))).report()
            assert before.genus == gamma
            for _ in range(gamma, gamma_max):
                # a tuple, as in the table: a raise reads labels, never writes them
                graphs._raise_genus(rot, tuple(_traced_labels(rot)))
                after = st.CombinatorialMap(tuple(graphs._sigma_of(rot, n_darts))).report()
                assert _edge_multiset(rot) == edges
                assert (after.F, after.genus) == (before.F - 2, before.genus + 1)
                assert after.simple
                before = after

    def test_no_move_from_one_face(self):
        # only a bad start tabled at import could reach this, so it is an
        # internal error, not an input error
        n = 5
        rot = graphs._kn_rotation(n, graphs._MIN_GENUS_ROTATIONS[n])
        for _ in range(2):
            graphs._raise_genus(rot, _traced_labels(rot))
        with pytest.raises(AssertionError, match="internal error"):
            graphs._raise_genus(rot, _traced_labels(rot))


class TestDeleteEdge:
    def test_merged_labels_match_a_fresh_trace(self):
        # every deletion chain construct_graph can start: K_n at each genus,
        # walked down to one face, with labels checked after every step
        for n in range(3, graphs.MAX_COMPLETE_VERTICES + 1):
            gamma, gamma_max = st.complete_graph_genus_range(n)
            for g in range(gamma, gamma_max + 1):
                label, sigma = map(list, graphs._complete_entry(n, g))
                assert _same_partition(label, graphs._faces(sigma)[1])
                while len(set(label)) > 1:
                    graphs._delete_edge(sigma, label)
                    assert _same_partition(label, graphs._faces(sigma)[1]), (n, g)

    def test_k5_torus_loses_one_face(self):
        m = st.delete_edge_preserving(st.embed_complete(5, 1))
        r = m.report()
        assert (r.V, r.E, r.F, r.genus, r.simple) == (5, 9, 4, 1, True)

    def test_single_face_fails(self):
        m = st.embed_complete(5, 3)
        with pytest.raises(NoRemovableEdge):
            st.delete_edge_preserving(m)

    def test_two_deletions_from_genus_two(self):
        m = st.embed_complete(5, 2)
        m = st.delete_edge_preserving(st.delete_edge_preserving(m))
        r = m.report()
        assert (r.V, r.E, r.F, r.genus) == (5, 8, 1, 2)

    def test_one_loop_isolates_its_vertex(self):
        # one vertex, one loop, two faces: the loop borders both faces, but
        # removing it would leave the vertex with no darts
        with pytest.raises(NoRemovableEdge, match="^removing edge 0 would isolate a vertex$"):
            st.delete_edge_preserving(st.CombinatorialMap((1, 0)))

    def test_one_face_message(self):
        with pytest.raises(
            NoRemovableEdge, match="^map has a single face; nothing can be removed$"
        ):
            st.delete_edge_preserving(st.CombinatorialMap((0, 1)))

    def test_walk_down_to_one_face(self):
        m = st.embed_complete(6, 1)
        while m.report().F > 1:
            prev = m.report()
            m = st.delete_edge_preserving(m)
            r = m.report()
            assert r.F == prev.F - 1
            assert r.genus == prev.genus
            assert r.simple
            assert euler_ok(m)


class TestSubdivide:
    def test_path_grows(self):
        m = st.subdivide_edge(st.build_map(2, [(0, 1)]), 0)
        r = m.report()
        assert (r.V, r.E, r.F, r.genus) == (3, 2, 1, 0)

    def test_genus_two_example(self):
        m = st.embed_complete(5, 2)
        m = st.subdivide_edge(m, 0)
        r = m.report()
        assert (r.V, r.E, r.F, r.genus, r.simple) == (6, 11, 3, 2, True)

    def test_repeated_subdivision(self):
        m = st.embed_complete(5, 1)
        base = m.report()
        for k in range(1, 6):
            m = st.subdivide_edge(m, 0)
            r = m.report()
            assert (r.V, r.E) == (base.V + k, base.E + k)
            assert (r.F, r.genus) == (base.F, base.genus)
            assert r.simple

    def test_edge_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            st.subdivide_edge(st.build_map(2, [(0, 1)]), 1)

    def test_matches_oracle_on_every_edge(self):
        for n, g in ((4, 0), (5, 2), (7, 1), (8, 4)):
            m = st.embed_complete(n, g)
            for e in range(m.n_edges):
                assert st.subdivide_edge(m, e) == subdivide_edge_oracle(m, e)


def _connected(sigma):
    try:
        st.CombinatorialMap(sigma)
    except InvalidSpec:
        return False
    return True


# every connected map on 1..8 edges: loops, multi-edges and degree-1 vertices
# included, since sigma is any permutation of the darts
_any_sigma = hst.integers(1, 8).flatmap(lambda E: hst.permutations(range(2 * E)))


def _edge_first(m, e):
    # the same map with edges 0 and e swapped, so that a deletion tries e first
    swap = list(range(m.n_darts))
    swap[0], swap[1], swap[2 * e], swap[2 * e + 1] = 2 * e, 2 * e + 1, 0, 1
    sigma = [0] * m.n_darts
    for d, nxt in enumerate(m.sigma):
        sigma[swap[d]] = swap[nxt]
    return st.CombinatorialMap(sigma)


def _outcome(move, *args):
    # the sigma of the map a move returns, or the class and message it raises
    try:
        return move(*args).sigma
    except StrataError as exc:
        return type(exc), str(exc)


class TestMovesMatchCycleOracle:
    @given(sigma=_any_sigma.filter(_connected))
    @example(sigma=(1, 0))  # one loop on two faces: deleting it isolates its vertex
    @example(sigma=(0, 1))  # one edge on a single face
    @settings(max_examples=300, deadline=None)
    def test_every_edge(self, sigma):
        # both public moves return the cycle-list oracles' sigma, or raise
        # the same error class with the same message, at every edge index
        m = st.CombinatorialMap(sigma)
        for e in range(m.n_edges):
            first = _edge_first(m, e)
            want = _outcome(delete_edge_oracle, first)
            assert _outcome(st.delete_edge_preserving, first) == want, (sigma, e)
            want = _outcome(subdivide_edge_oracle, m, e)
            assert _outcome(st.subdivide_edge, m, e) == want, (sigma, e)

    def test_construct_graph_far_past_the_bound(self):
        # every (g, f) the embedding table reaches, 3, 17 and 200 vertices
        # past its point bound, against the cycle-list chain from the raises on
        for g in range(2, 11):
            for f in range(1, 4 * g - 3):
                bound = st.point_bound(g, f)
                if bound > graphs.MAX_COMPLETE_VERTICES:
                    continue
                for n in (bound + 3, bound + 17, bound + 200):
                    assert st.construct_graph(g, f, n).sigma == construct_graph_cycles_oracle(
                        g, f, n
                    ), (g, f, n)


class TestConstructGraph:
    def test_genus_two_single_face(self):
        m = st.construct_graph(2, 1, 5)
        r = m.report()
        assert (r.V, r.E, r.F, r.genus, r.simple) == (5, 8, 1, 2, True)

    def test_vertex_bound_enforced(self):
        with pytest.raises(BoundViolation):
            st.construct_graph(2, 1, 4)

    def test_face_bound_enforced(self):
        with pytest.raises(BoundViolation):
            st.construct_graph(2, 5, 8)
        with pytest.raises(BoundViolation):
            st.construct_graph(2, 0, 5)

    def test_genus_three_with_subdivision(self):
        m = st.construct_graph(3, 1, 6)
        r = m.report()
        assert (r.V, r.E, r.F, r.genus, r.simple) == (6, 11, 1, 3, True)

    def test_multiple_faces(self):
        m = st.construct_graph(2, 3, 6)
        r = m.report()
        assert (r.V, r.F, r.genus, r.simple) == (6, 3, 2, True)

    def test_matches_map_level_oracle(self):
        # every (g, f) the embedding table reaches, and 40 vertices past its
        # point bound: well beyond the n <= bound + 2 of the frozen digest
        for g in range(2, 11):
            for f in range(1, 4 * g - 3):
                bound = st.point_bound(g, f)
                if bound > graphs.MAX_COMPLETE_VERTICES:
                    continue
                for k, want in enumerate(construct_graph_oracle(g, f, 40)):
                    assert st.construct_graph(g, f, bound + k) == want, (g, f, bound + k)

    def test_builds_one_map(self, monkeypatch):
        # one derived map per build, and no pass through the checking constructor
        built, checked = [], []
        derived = graphs.CombinatorialMap._derived
        new = graphs.CombinatorialMap.__new__

        def counting_derived(cls, sigma):
            built.append(len(sigma))
            return derived(sigma)

        def counting_new(cls, sigma):
            checked.append(len(sigma))
            return new(cls, sigma)

        monkeypatch.setattr(graphs.CombinatorialMap, "_derived", classmethod(counting_derived))
        monkeypatch.setattr(graphs.CombinatorialMap, "__new__", counting_new)
        for g, f, n in ((2, 1, 5), (2, 1, 60), (3, 4, 9), (4, 12, 8), (10, 2, 20)):
            built.clear()
            m = st.construct_graph(g, f, n)
            assert built == [m.n_darts]
            assert checked == []
        # the patch sees a pass through the checking constructor
        graphs.CombinatorialMap((0, 1))
        assert checked == [2]

    def test_canonical_cycles(self):
        # every vertex and face cycle starts at its least dart, and the
        # cycles come in the order of those darts
        for args in ((2, 1, 5), (3, 6, 9), (5, 12, 10)):
            m = st.construct_graph(*args)
            for cycles in (m.vertices(), st.trace_faces(m)):
                assert all(cyc[0] == min(cyc) for cyc in cycles)
                firsts = [cyc[0] for cyc in cycles]
                assert firsts == sorted(firsts)
                assert sorted(d for cyc in cycles for d in cyc) == list(range(m.n_darts))


def _bipyramid_planar():
    # triangular bipyramid: V=5, E=9, F=6 hits the planar ceiling 2V-4
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]
    darts_at = [[] for _ in range(5)]
    for e, (u, v) in enumerate(edges):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    choices = []
    for order in darts_at:
        head, tail = order[0], order[1:]
        choices.append([[head] + list(p) for p in itertools.permutations(tail)])
    for rotations in itertools.product(*choices):
        m = st.build_map(5, edges, rotations=[list(r) for r in rotations])
        if m.report().genus == 0:
            return m
    raise AssertionError("no planar rotation system found")


class TestFacePairs:
    def test_k4_on_sphere(self):
        pairs = st.assign_face_pairs(st.embed_complete(4, 0))
        assert len(pairs) == 4
        assert len(set(pairs.values())) == 4

    def test_path_graph(self):
        pairs = st.assign_face_pairs(st.build_map(2, [(0, 1)]))
        assert pairs == {0: (0, 1)}

    def test_triangulation_at_the_ceiling(self):
        m = _bipyramid_planar()
        pairs = st.assign_face_pairs(m)
        assert len(pairs) == 6
        assert len(set(pairs.values())) == 6

    def test_every_small_planar_map(self):
        # every planar rotation system of every connected simple graph on
        # 2-5 labelled vertices: 2 398 maps, each face gets a distinct edge
        # of its own boundary (the walk has no fallback, so a stall would
        # raise)
        count = 0
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for k in range(n - 1, len(pairs) + 1):
                for edges in itertools.combinations(pairs, k):
                    at = [[] for _ in range(n)]
                    for e, (u, v) in enumerate(edges):
                        at[u].append(2 * e)
                        at[v].append(2 * e + 1)
                    if not all(at):
                        continue
                    choices = [
                        [[head] + list(p) for p in itertools.permutations(rest)]
                        for head, *rest in at
                    ]
                    for rotations in itertools.product(*choices):
                        try:
                            m = st.build_map(n, list(edges), rotations=[list(r) for r in rotations])
                        except InvalidSpec:  # disconnected
                            break
                        if m.report().genus:
                            continue
                        count += 1
                        faces = st.trace_faces(m)
                        owner = _owner(m.vertices())
                        assigned = st.assign_face_pairs(m)
                        assert set(assigned) == set(range(len(faces)))
                        assert len(set(assigned.values())) == len(faces)
                        for idx, cyc in enumerate(faces):
                            boundary = {tuple(sorted((owner[d], owner[d ^ 1]))) for d in cyc}
                            assert assigned[idx] in boundary
        assert count == 2398

    def test_needs_planar(self):
        with pytest.raises(PreconditionUnmet):
            st.assign_face_pairs(st.embed_complete(5, 1))

    def test_needs_simple(self):
        m = st.build_map(2, [(0, 1), (0, 1)])
        with pytest.raises(NotSimple):
            st.assign_face_pairs(m)


class TestCopeland:
    def test_eight_generators(self):
        words = st.copeland_generators(st.construct_graph(2, 1, 5))
        assert len(words) == 8
        assert all(st.in_kernel(w) for w in words)
        surf = words[0].surface
        assert surf.weights == (1,) * 5 and surf.punctures == 1 and surf.genus == 2

    def test_path_graph(self):
        words = st.copeland_generators(st.build_map(2, [(0, 1)]))
        assert len(words) == 1
        assert words[0].letters[0].kind == "sigma"

    def test_k7_torus(self):
        words = st.copeland_generators(st.embed_complete(7, 1))
        assert len(words) == 21
        assert all(st.in_kernel(w) for w in words)

    def test_rejects_double_edges(self):
        with pytest.raises(NotSimple):
            st.copeland_generators(st.build_map(2, [(0, 1), (0, 1)]))

    def test_words_pass_the_public_constructor(self):
        # the words are built unchecked: each must equal its checked rebuild
        maps = [st.construct_graph(g, f, n) for g, f, n in _ladder_plan()]
        rng = random.Random(61)
        maps += [_random_simple_map(rng, rng.randint(2, 9)) for _ in range(200)]
        for m in maps:
            for w in st.copeland_generators(m):
                surf = w.surface
                rebuilt = st.BraidWord(
                    st.MarkedSurface(surf.genus, surf.weights, surf.punctures),
                    tuple(st.Letter(lt.kind, lt.i, lt.second, lt.exp) for lt in w.letters),
                )
                assert rebuilt == w


def _ladder_plan():
    # every (g, f, n) the graph-embed benchmark ladder can ask for: f in
    # {1, 2g, 4g - 4} with point bound at most 8, and n up to 2 above it
    for g in range(2, 64):
        for f in sorted({1, 2 * g, 4 * g - 4}):
            bound = st.point_bound(g, f)
            if bound <= 8:
                yield from ((g, f, n) for n in range(bound, bound + 3))


def _random_simple_map(rng, n):
    # a random spanning tree, random further edges, and random rotations
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges += rng.sample(others, rng.randint(0, len(others)))
    rng.shuffle(edges)
    darts_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    for darts in darts_at:
        rng.shuffle(darts)
    return st.build_map(n, edges, darts_at)


def _complete_maps():
    # embed_complete at every (n, g) in range
    for n in range(3, graphs.MAX_COMPLETE_VERTICES + 1):
        gamma, gamma_max = st.complete_graph_genus_range(n)
        for g in range(gamma, gamma_max + 1):
            yield st.embed_complete(n, g)


def _constructed_maps(extra):
    # construct_graph at every (g, f) the table reaches, k vertices past its
    # point bound for each k in extra
    for g in range(2, 11):
        for f in range(1, 4 * g - 3):
            bound = st.point_bound(g, f)
            if bound <= graphs.MAX_COMPLETE_VERTICES:
                for k in extra:
                    yield st.construct_graph(g, f, bound + k)


def _passes_checks(m):
    # the public constructor runs every check graphs skips for maps it derives
    return st.CombinatorialMap(m.sigma) == m


class TestDerivedMaps:
    def test_embed_complete(self):
        assert all(_passes_checks(m) for m in _complete_maps())

    def test_construct_graph(self):
        assert all(_passes_checks(m) for m in _constructed_maps(range(41)))

    def test_subdivide_every_edge(self):
        # every edge, on maps with no, one, two and forty subdivision vertices
        for m in itertools.chain(_complete_maps(), _constructed_maps((0, 1, 2, 40))):
            for e in range(m.n_edges):
                assert _passes_checks(st.subdivide_edge(m, e)), (m, e)

    def test_delete_chains_to_one_face(self):
        for m in _complete_maps():
            while m.report().F > 1:
                m = st.delete_edge_preserving(m)
                assert _passes_checks(m)

    def test_derived_map_is_an_ordinary_map(self):
        m = graphs.CombinatorialMap._derived((1, 0))
        assert type(m) is st.CombinatorialMap and m.sigma == (1, 0)
        assert m == st.CombinatorialMap((1, 0)) and hash(m) == hash(st.CombinatorialMap((1, 0)))


class TestStartTable:
    def test_labels_are_a_fresh_trace(self):
        # every (n, g) in range, against the per-call raise chain of the
        # oracle, which keeps a dart -> vertex index and merges labels
        assert sorted(graphs._EMBEDDINGS) == sorted(graphs._MIN_GENUS_ROTATIONS)
        for n, ladder in graphs._EMBEDDINGS.items():
            gamma, gamma_max = st.complete_graph_genus_range(n)
            assert type(ladder) is tuple and len(ladder) == gamma_max - gamma + 1
            E = n * (n - 1) // 2
            for g, entry in enumerate(ladder, gamma):
                label, sigma = entry
                assert type(entry) is tuple and type(label) is tuple and type(sigma) is tuple
                rot_oracle, label_oracle = raised_rotation_oracle(n, g)
                assert sigma == tuple(graphs._sigma_of(rot_oracle, 2 * E)), (n, g)
                assert label == tuple(graphs._faces(sigma)[1]), (n, g)
                assert _same_partition(label, label_oracle), (n, g)
                r = st.embed_complete(n, g).report()
                assert (r.V, r.E, r.F, r.genus, r.simple) == (n, E, E - n + 2 - 2 * g, g, True)

    def test_unchanged_by_builds(self):
        # builds edit list copies of an entry's labels and sigma in place, and
        # so does the deletion test: none may reach the table's tuples
        before = copy.deepcopy(graphs._EMBEDDINGS)
        for _ in _complete_maps():
            pass
        for _ in _constructed_maps((0, 3)):
            pass
        TestDeleteEdge().test_merged_labels_match_a_fresh_trace()
        assert graphs._EMBEDDINGS == before


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: st.construct_graph(2.0, 1, 5), BoundViolation),
        (lambda: st.construct_graph(2, True, 5), BoundViolation),
        (lambda: st.construct_graph(2, 1, "5"), BoundViolation),
        (lambda: st.construct_graph(2, 1, None), BoundViolation),
        (lambda: st.embed_complete(7, 1.0), OutOfRange),
        (lambda: st.complete_graph_genus_range(7.5), OutOfRange),
        (lambda: st.point_bound(2.0, 1), OutOfRange),
        (lambda: st.a_min(2.5, 1), OutOfRange),
        (lambda: st.a_min(2, 1.5), OutOfRange),
        (lambda: st.subdivide_edge(st.embed_complete(5, 1), 0.0), IndexOutOfRange),
        (lambda: st.subdivide_edge(st.embed_complete(5, 1), True), IndexOutOfRange),
        (lambda: st.CombinatorialMap([1.0, 0]), InvalidSpec),
        (lambda: st.CombinatorialMap([True, False]), InvalidSpec),
        (lambda: st.CombinatorialMap(None), InvalidSpec),
    ],
    ids=[
        "construct-float-genus",
        "construct-bool-faces",
        "construct-str-vertices",
        "construct-none-vertices",
        "embed-float-genus",
        "genus-range-float",
        "point-bound-float",
        "a-min-float",
        "a-min-float-count",
        "subdivide-float-edge",
        "subdivide-bool-edge",
        "map-float-darts",
        "map-bool-darts",
        "map-none",
    ],
)
def test_entry_points_keep_the_integer_contract(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: st.subdivide_edge("x", 0),
        lambda: st.delete_edge_preserving([1, 0]),
        lambda: st.copeland_generators([1, 0]),
        lambda: st.assign_face_pairs(None),
        lambda: st.trace_faces("ab"),
    ],
    ids=["subdivide-str", "delete-list", "copeland-list", "face-pairs-none", "trace-str"],
)
def test_map_entry_points_reject_a_non_map(call):
    with pytest.raises(InvalidSpec):
        call()


def _frozen_maps():
    # the ladder both frozen digests cover: construct_graph near each point
    # bound, and every genus of K_3-K_8 with one subdivision and every
    # face-preserving deletion down to one face
    for g in range(2, 11):
        for f in range(1, 4 * g - 3):
            bound = st.point_bound(g, f)
            if bound <= 8:
                for n in range(bound, bound + 3):
                    yield st.construct_graph(g, f, n)
    for n in range(3, 9):
        gamma, gamma_max = st.complete_graph_genus_range(n)
        for g in range(gamma, gamma_max + 1):
            m = st.embed_complete(n, g)
            yield st.subdivide_edge(m, 0)
            yield m
            while m.report().F > 1:
                m = st.delete_edge_preserving(m)
                yield m


# sha256 of the JSON that test_graph_outputs_frozen builds, taken from the
# builder that validated a fresh map after every deleted edge
GRAPH_OUTPUTS_DIGEST = "1d67e6fc0abf55b72238fc0902509141617ae03e975dad4254ea300242f701b3"


def test_graph_outputs_frozen():
    docs = [m.to_json_dict() for m in _frozen_maps()]
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GRAPH_OUTPUTS_DIGEST


# sha256 of every view read off the same maps, taken before the views shared
# one orbit walk: report, edges, vertex owners, faces, exchange generators,
# and on the planar maps the face-pair assignment
GRAPH_VIEWS_DIGEST = "3f698828dde11509d16e80766addc5478f6db019ec74c53ef24d4f128a223004"


def test_graph_views_frozen():
    docs = []
    for m in _frozen_maps():
        report = m.report()
        owner = _owner(m.vertices())
        doc = {
            "report": report.to_json_dict(),
            "edges": [(owner[d], owner[d + 1]) for d in range(0, m.n_darts, 2)],
            "vertex_of": sorted(owner.items()),
            "faces": st.trace_faces(m),
            "copeland": [
                [lt.to_json_dict() for lt in w.letters] for w in st.copeland_generators(m)
            ],
        }
        if report.genus == 0:
            doc["face_pairs"] = sorted(st.assign_face_pairs(m).items())
        docs.append(doc)
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GRAPH_VIEWS_DIGEST
