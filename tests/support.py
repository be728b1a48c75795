"""Shared oracles and generators for the test suite."""

from __future__ import annotations

from typing import Iterator

import strata as st


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
