"""Shared oracles and generators for the test suite."""

from __future__ import annotations

from typing import Iterator

import strata as st
from strata.signatures import _G2_TWO_COMPONENT, REASON_FAMILY, REASON_G2


def positive_partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing positive partitions of ``total`` (the empty one for 0)."""
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    for first in range(max_part, 0, -1):
        for rest in positive_partitions(total - first, first):
            yield (first,) + rest


def enumerate_signatures(g: int, max_poles: int = 4) -> list[st.StratumSignature]:
    """Every valid signature of genus g with at most ``max_poles`` poles."""
    out = []
    for poles in range(max_poles + 1):
        target = 4 * g - 4 + poles
        if target < 0:
            continue
        for part in positive_partitions(target):
            out.append(st.StratumSignature(g, part + (-1,) * poles))
    return out


def desc(*orders: int) -> tuple[int, ...]:
    return tuple(sorted(orders, reverse=True))


def two_component_reason_oracle(s: st.StratumSignature) -> str | None:
    """Oracle for ``signatures._two_component_reason``: each of Lanneau's
    hyperelliptic families built member by member for every k the genus
    allows, and compared with the orders.  Time linear in the genus."""
    g = s.genus
    if g == 2:
        return REASON_G2 if s.orders in _G2_TWO_COMPONENT else None
    if g < 3:
        return None
    key = s.orders
    # family 1: one zero of order 4(g-k)-6 and one of order 4k+2
    for k in range(0, g - 1):  # g - k >= 2
        if key == tuple(sorted((4 * (g - k) - 6, 4 * k + 2), reverse=True)):
            return REASON_FAMILY[0]
    # family 2: a pair of zeros of order 2(g-k)-3 and one of order 4k+2
    for k in range(0, g):  # g - k >= 1
        cand = tuple(sorted((2 * (g - k) - 3, 2 * (g - k) - 3, 4 * k + 2), reverse=True))
        if key == cand:
            return REASON_FAMILY[1]
    # family 3: pairs of orders 2(g-k)-3 and 2k+1; k = -1 gives the pole pair
    # of Q(2g-1, 2g-1, -1, -1) (Lanneau, Comment. Math. Helv. 79, 2004)
    for k in range(-1, g - 1):  # g - k >= 2
        a, b = 2 * (g - k) - 3, 2 * k + 1
        if key == tuple(sorted((a, a, b, b), reverse=True)):
            return REASON_FAMILY[2]
    return None


def random_letter(
    surf: st.MarkedSurface, rng, sigma_share: float | None = None
) -> st.Letter:
    """A random valid letter.  ``sigma_share``, when given, is the chance of an
    exchange letter on surfaces that have one; otherwise it is one in four."""
    kinds = ["rho", "rho", "kappa"]
    by_weight: dict[int, list[int]] = {}
    for i, w in enumerate(surf.weights, 1):
        by_weight.setdefault(w, []).append(i)
    classes = [pts for pts in by_weight.values() if len(pts) >= 2]
    if classes:
        kinds.append("sigma")
    if sigma_share is not None and classes and rng.random() < sigma_share:
        kind = "sigma"
    else:
        kind = rng.choice(kinds)
    exp = rng.choice((1, -1))
    if kind == "rho":
        return st.rho(rng.randint(1, surf.n), rng.randint(1, 2 * surf.genus), exp)
    if kind == "sigma":
        i, j = sorted(rng.sample(rng.choice(classes), 2))
        return st.sigma(i, j, exp)
    i, j = sorted(rng.sample(range(1, surf.n + 1), 2))
    return st.kappa(i, j, exp)


def random_word(
    surf: st.MarkedSurface, rng, length: int, sigma_share: float | None = None
) -> st.BraidWord:
    return st.BraidWord(
        surf, tuple(random_letter(surf, rng, sigma_share) for _ in range(length))
    )


def random_kernel_word(surf: st.MarkedSurface, rng, length: int = 8) -> st.BraidWord:
    """A random word pushed into the kernel by balancing with weight-1 loops."""
    word = random_word(surf, rng, length)
    ones = [i for i, w in enumerate(surf.weights, 1) if w == 1]
    balance = []
    for r, val in enumerate(st.abel_jacobi(word), 1):
        sign = -1 if val > 0 else 1
        balance.extend([st.rho(ones[0], r, sign)] * abs(val))
    return st.BraidWord(surf, word.letters + tuple(balance))


def permutation_image_oracle(w: st.BraidWord) -> tuple[int, ...]:
    """Oracle for ``permutation_image``: rebuild the whole image list for each
    exchange letter, swapping the two values it names."""
    perm = list(range(1, w.surface.n + 1))
    for lt in w.letters:
        if lt.kind != "sigma":
            continue
        a, b = lt.i, lt.second
        perm = [b if v == a else a if v == b else v for v in perm]
    return tuple(perm)


def factor_by_permutation_oracle(z: st.BraidWord) -> tuple[st.BraidWord, st.BraidWord]:
    """Oracle for ``factor_by_permutation``: one exchange per non-anchor point
    of each cycle, and the remainder as the free reduction of the product
    ``y^-1 * z``."""
    perm = permutation_image_oracle(z)
    letters = []
    seen: set[int] = set()
    for start in range(1, z.surface.n + 1):
        if start in seen or perm[start - 1] == start:
            seen.add(start)
            continue
        cycle = [start]
        cur = perm[start - 1]
        while cur != start:
            cycle.append(cur)
            cur = perm[cur - 1]
        seen.update(cycle)
        for other in cycle[1:]:
            letters.append(st.sigma(min(cycle[0], other), max(cycle[0], other)))
    y = st.BraidWord(z.surface, tuple(letters))
    return y, st.free_reduce(y.inverse() * z)


def minimal_d_oracle(weights: tuple[int, ...], l: int) -> tuple[int, tuple[int, ...]]:
    """Oracle for ``minimal_d`` on valid input: the extended-gcd chain over
    the other weights, rescaling the whole witness at every step."""
    g = 0
    witness = [0] * len(weights)
    for idx, w in enumerate(weights):
        if idx == l:
            continue
        g, x, y = _egcd(g, w)
        for k in range(len(witness)):
            witness[k] *= x
        witness[idx] = y
    target = weights[l]
    d = g // _egcd(g, target)[0]
    scale = -(d * target) // g
    coeffs = [scale * c for c in witness]
    coeffs[l] = d
    return d, tuple(coeffs)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, x, y) with g = ax + by >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def subdivide_edge_oracle(m: st.CombinatorialMap, e: int) -> st.CombinatorialMap:
    """Oracle for ``subdivide_edge``: rebuild every vertex cycle of the map,
    with dart 2e+1 moved to a new vertex beside the new dart 2E and its old
    slot taken by the new dart 2E+1, and validate a fresh map from them."""
    E = m.n_edges
    cycles = [[2 * E + 1 if d == 2 * e + 1 else d for d in cyc] for cyc in m.vertices()]
    cycles.append([2 * e + 1, 2 * E])
    return st.CombinatorialMap.from_json_dict(
        {"darts": m.n_darts + 2, "sigma": cycles, "alpha_convention": "pairs"}
    )


def construct_graph_oracle(g: int, f: int, extra: int) -> list[st.CombinatorialMap]:
    """Oracle for ``construct_graph(g, f, n)`` at n = bound .. bound + extra,
    with bound = ``point_bound(g, f)``: the complete-graph map on bound
    vertices, one map per deleted edge down to f faces, then one map per
    subdivision of edge 0."""
    m = st.embed_complete(st.point_bound(g, f), g)
    while m.report().F > f:
        m = st.delete_edge_preserving(m)
    maps = [m]
    for _ in range(extra):
        maps.append(subdivide_edge_oracle(maps[-1], 0))
    return maps


def loose_part_multisets(total: int, count: int, lo: int) -> Iterator[tuple[int, ...]]:
    """Non-decreasing tuples of ``count`` valid orders (no zeros, each at
    least ``lo``) summing to ``total``, with every first part up to
    ``total + count - 1`` tried, so some branches yield nothing."""
    if count == 1:
        if total >= lo and total != 0:
            yield (total,)
        return
    for v in range(lo, total + count):
        if v == 0:
            continue
        for rest in loose_part_multisets(total - v, count - 1, v):
            yield (v,) + rest


def legal_splits_oracle(order: int, include_poles: bool = True) -> list[tuple[int, ...]]:
    """Oracle for ``legal_splits``: the loosely enumerated tuples of 2, 3 and
    4 parts in that order, without two odd parts of an even order."""
    lo = -1 if include_poles else 1
    return [
        parts
        for count in (2, 3, 4)
        for parts in loose_part_multisets(order, count, lo)
        if not (count == 2 and order % 2 == 0 and parts[0] % 2 != 0)
    ]


def bfs_refinements(lower: st.StratumSignature, max_poles: int) -> set[tuple[int, ...]]:
    """Oracle: the orders of every signature reachable from ``lower`` by
    splits with at most ``max_poles`` poles, ``lower`` included, found by a
    breadth-first search through every intermediate signature.

    Splits never remove a pole, so pruning states with more poles loses no
    target within the bound, and one search answers ``is_adjacent`` for
    every higher signature of that lower one.
    """
    seen = {lower.orders}
    frontier = [lower]
    while frontier:
        fresh: list[st.StratumSignature] = []
        for state in frontier:
            for nxt in st.poset_successors(state):
                if nxt.orders.count(-1) > max_poles or nxt.orders in seen:
                    continue
                seen.add(nxt.orders)
                fresh.append(nxt)
        frontier = fresh
    return seen
