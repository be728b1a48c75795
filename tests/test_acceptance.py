"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time

import pytest

import strata as st
from strata.braids import I_COMMUTATOR
from strata.errors import PreconditionUnmet
from support import desc, enumerate_signatures, random_kernel_word


def _done(num, name, t0, limit_s):
    elapsed = time.monotonic() - t0
    assert elapsed < limit_s, "criterion %d exceeded %ds (%.2fs)" % (num, limit_s, elapsed)
    print("criterion %d (%s): PASS in %.2fs (limit %ds)" % (num, name, elapsed, limit_s))


# ---------------------------------------------------------------------------
# 1. classification: the four empty strata and the two-component lists


def lanneau_expected(g):
    """Instantiate the two-component families directly from their parameters."""
    if g == 2:
        return {desc(3, 3, -1, -1), desc(6, -1, -1)}
    out = set()
    for k in range(0, g - 1):
        out.add(desc(4 * (g - k) - 6, 4 * k + 2))
    for k in range(0, g):
        out.add(desc(2 * (g - k) - 3, 2 * (g - k) - 3, 4 * k + 2))
    for k in range(-1, g - 1):
        a, b = 2 * (g - k) - 3, 2 * k + 1
        out.add(desc(a, a, b, b))
    return out


FROZEN_TWO_COMPONENT = {
    2: {(3, 3, -1, -1), (6, -1, -1)},
    3: {(6, 2), (3, 3, 2), (6, 1, 1), (10, -1, -1), (3, 3, 1, 1), (5, 5, -1, -1)},
    4: {
        (10, 2),
        (6, 6),
        (5, 5, 2),
        (6, 3, 3),
        (10, 1, 1),
        (14, -1, -1),
        (5, 5, 1, 1),
        (3, 3, 3, 3),
        (7, 7, -1, -1),
    },
    5: {
        (14, 2),
        (10, 6),
        (7, 7, 2),
        (6, 5, 5),
        (10, 3, 3),
        (14, 1, 1),
        (18, -1, -1),
        (7, 7, 1, 1),
        (5, 5, 3, 3),
        (9, 9, -1, -1),
    },
}


def test_criterion_1_classification():
    t0 = time.monotonic()
    empties = set()
    for g in range(0, 4):
        for s in enumerate_signatures(g, max_poles=4):
            if st.classify_connectivity(s).is_empty:
                empties.add((s.genus, s.orders))
    assert empties == {(1, ()), (1, (1, -1)), (2, (3, 1)), (2, (4,))}

    for g in (2, 3, 4, 5):
        scanned = {
            s.orders
            for s in enumerate_signatures(g, max_poles=4)
            if st.classify_connectivity(s).component_count == 2
        }
        expected = {t for t in lanneau_expected(g) if t.count(-1) <= 4}
        assert scanned == expected, "genus %d scan mismatch" % g
        assert scanned == {desc(*t) for t in FROZEN_TWO_COMPONENT[g]}
    _done(1, "classification suite", t0, 1)


# ---------------------------------------------------------------------------
# 2. bound arithmetic


def test_criterion_2_bound_arithmetic():
    t0 = time.monotonic()
    assert st.a_min(2, 0) == 5
    for g in range(2, 51):
        for b in range(0, 51):
            target = 2 * g + max(b, 1) - 2
            a = 1
            while a * (a - 3) < 2 * target:
                a += 1
            assert st.a_min(g, b) == a, (g, b)
    # one-face form of the b = 0 bound: discriminant collapses to 16g + 1
    for g in range(2, 51):
        disc = 16 * g + 1
        s = math.isqrt(disc)
        if s * s < disc:
            s += 1
        assert st.a_min(g, 0) == (s + 4) // 2
    _done(2, "bound arithmetic", t0, 1)


# ---------------------------------------------------------------------------
# 3. graph construction


def _all_rotation_systems(n):
    edges = list(itertools.combinations(range(n), 2))
    dart_of = {}
    for e, (u, v) in enumerate(edges):
        dart_of[(u, v)] = 2 * e
        dart_of[(v, u)] = 2 * e + 1
    per_vertex = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        head, tail = others[0], others[1:]
        per_vertex.append([(head,) + p for p in itertools.permutations(tail)])
    for combo in itertools.product(*per_vertex):
        sigma = [0] * (2 * len(edges))
        for v, order in enumerate(combo):
            darts = [dart_of[(v, u)] for u in order]
            for pos, d in enumerate(darts):
                sigma[d] = darts[(pos + 1) % len(darts)]
        yield sigma


def _count_faces(sigma):
    seen = [False] * len(sigma)
    count = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        count += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = sigma[cur ^ 1]
    return count


def test_criterion_3_graph_construction():
    t0 = time.monotonic()
    for g in (2, 3):
        n_min = st.point_bound(g, 1)
        m = st.construct_graph(g, 1, n_min)
        r = m.report()
        assert r.simple and r.F == 1 and r.genus == g and r.V == n_min
        assert r.V - r.E + r.F == 2 - 2 * r.genus

    assert st.embed_complete(7, 1).report().F == 14
    m5 = st.embed_complete(5, 2)
    assert m5.report().F == 3
    m5 = st.delete_edge_preserving(st.delete_edge_preserving(m5))
    assert m5.report().F == 1 and m5.report().E == 8

    for n in (3, 4, 5):
        E = n * (n - 1) // 2
        achieved = set()
        for sigma in _all_rotation_systems(n):
            F = _count_faces(sigma)
            genus = (2 - n + E - F) // 2
            achieved.add((genus, F))
        gamma, gamma_max = st.complete_graph_genus_range(n)
        expected = set()
        for g in range(gamma, gamma_max + 1):
            F = E - n + 2 - 2 * g
            if F >= 1:
                expected.add((g, F))
        assert achieved == expected, "K_%d achievable mismatch" % n
        assert min(g for g, _ in achieved) == gamma
    _done(3, "graph construction", t0, 60)


# ---------------------------------------------------------------------------
# 4. homology homomorphism property


def test_criterion_4_aj_homomorphism():
    t0 = time.monotonic()
    surf = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
    rng = random.Random(20260810)
    from support import inverse_word, random_word

    for _ in range(10000):
        u = random_word(surf, rng, rng.randint(0, 6))
        v = random_word(surf, rng, rng.randint(0, 6))
        au, av = st.abel_jacobi(u), st.abel_jacobi(v)
        uv = st.BraidWord(surf, u.letters + v.letters)
        assert st.abel_jacobi(uv) == tuple(a + b for a, b in zip(au, av))
        assert st.abel_jacobi(inverse_word(u)) == tuple(-a for a in au)

    zero = (0,) * 10
    for i in range(1, surf.n + 1):
        for j in range(i + 1, surf.n + 1):
            assert st.abel_jacobi(st.BraidWord(surf, (st.kappa(i, j),))) == zero
            if surf.weights[i - 1] == surf.weights[j - 1]:
                assert st.abel_jacobi(st.BraidWord(surf, (st.sigma(i, j),))) == zero
    _done(4, "homology homomorphism", t0, 5)


# ---------------------------------------------------------------------------
# 5. factorization suite


def test_criterion_5_factorization():
    t0 = time.monotonic()
    flagship = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
    assert st.main_theorem_verdict(st.StratumSignature(5, flagship.weights))[0]
    rng = random.Random(404)
    for _ in range(1000):
        z = random_kernel_word(flagship, rng)
        assert len(z.letters) <= 30
        certs = st.factorize_kernel_word(z)
        assert certs is not None
        assert all(c.tag != "uncertified" for c in certs)
        assert all(c.verify() for c in certs)
        combined = st.concatenate_factors(flagship, certs)
        assert st.permutation_image(combined) == st.permutation_image(z)
        assert st.in_kernel(combined) and st.in_kernel(z)

    # all weights equal: the bound fails on four points of genus 2, so the
    # equal-weight regime is exercised on eight simple zeros of genus 3
    assert st.a_min(2, 0) == 5
    with pytest.raises(PreconditionUnmet):
        st.factorize_kernel_word(
            st.BraidWord(st.MarkedSurface(2, (1, 1, 1, 1), stratum_mode=True))
        )
    equal8 = st.MarkedSurface(3, (1,) * 8, stratum_mode=True)
    assert 8 >= st.a_min(3, 0) == 5
    for _ in range(300):
        z = random_kernel_word(equal8, rng)
        certs = st.factorize_kernel_word(z)
        assert all(c.tag != I_COMMUTATOR for c in certs)
        assert all(c.verify() for c in certs)
    _done(5, "factorization suite", t0, 60)


# ---------------------------------------------------------------------------
# 6. minimal balancing multiple against brute force


def test_criterion_6_minimal_d_oracle():
    t0 = time.monotonic()
    checked = 0
    for size in (2, 3, 4):
        for weights in itertools.combinations_with_replacement(range(1, 13), size):
            for l in range(size):
                others = [w for i, w in enumerate(weights) if i != l]
                G = 0
                for w in others:
                    G = math.gcd(G, w)
                brute = next(
                    d for d in range(1, G + 1) if (d * weights[l]) % G == 0
                )
                d, coeffs = st.minimal_d(weights, l)
                assert d == brute, (weights, l)
                assert coeffs[l] == d
                assert sum(c * w for c, w in zip(coeffs, weights)) == 0
                checked += 1
    assert checked > 4000
    _done(6, "minimal-d oracle", t0, 5)


# ---------------------------------------------------------------------------
# 7. edge generators of the genus-2 single-face graph


def test_criterion_7_copeland_extraction():
    t0 = time.monotonic()
    words = st.copeland_generators(st.construct_graph(2, 1, 5))
    assert len(words) == 8
    assert all(st.in_kernel(w) for w in words)
    _done(7, "edge-generator extraction", t0, 1)
