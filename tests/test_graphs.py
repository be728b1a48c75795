import itertools

import pytest

import strata as st
from strata.errors import (
    BoundViolation,
    IndexOutOfRange,
    InvalidSpec,
    NoRemovableEdge,
    NotSimple,
    OutOfRange,
    PreconditionUnmet,
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

    def test_double_edge_not_simple(self):
        m = st.build_map(2, [(0, 1), (0, 1)])
        assert not m.is_simple()

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap((1, 0, 3, 2))

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap((0, 0, 1, 2))

    def test_json_round_trip(self):
        m = st.embed_complete(5, 1)
        assert st.CombinatorialMap.from_json_dict(m.to_json_dict()) == m

    def test_json_requires_pair_convention(self):
        with pytest.raises(InvalidSpec):
            st.CombinatorialMap.from_json_dict(
                {"darts": 2, "sigma": [[0], [1]], "alpha_convention": "involution"}
            )


class TestGenusRange:
    def test_seven_vertices(self):
        assert st.complete_graph_genus_range(7) == (1, 8)

    def test_four_vertices(self):
        assert st.complete_graph_genus_range(4) == (0, 2)

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

    def test_incremental_builder_path(self):
        m = st.embed_complete(6, 3, seed=1)
        r = m.report()
        assert (r.V, r.genus, r.simple) == (6, 3, True)

    def test_every_supported_genus(self):
        for n in range(3, 9):
            E = n * (n - 1) // 2
            gamma, gamma_max = st.complete_graph_genus_range(n)
            for g in range(gamma, gamma_max + 1):
                F = E - n + 2 - 2 * g
                if F < 1:
                    continue
                for seed in range(10):
                    r = st.embed_complete(n, g, seed=seed).report()
                    assert (r.V, r.E, r.F, r.genus, r.simple) == (n, E, F, g, True)

    def test_k7_torus_frozen_for_builder_misses(self):
        # the builder alone finds no genus-1 K_7 for these seeds
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


class TestDeleteEdge:
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
