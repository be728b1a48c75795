"""Computations made apart from the package, used to check its outputs.

Nothing here imports ``strata``.  Signatures are tuples of orders, braid
letters are tuples ``(kind, i, second, exp)`` and maps are vertex rotations
given as a dart permutation ``sigma`` with ``alpha(d) = d ^ 1``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

# The four signatures whose strata are empty (Masur-Smillie), orders descending.
EMPTY = {(1, ()), (1, (1, -1)), (2, (3, 1)), (2, (4,))}


def desc(orders) -> tuple[int, ...]:
    return tuple(sorted(orders, reverse=True))


# --- splitting calculus -----------------------------------------------------


@functools.cache
def legal_splits(k: int) -> tuple[tuple[int, ...], ...]:
    """Part multisets (non-decreasing) a zero of order k may split into."""
    out: list[tuple[int, ...]] = []

    def grow(total: int, count: int, lo: int, acc: tuple[int, ...]) -> None:
        if count == 1:
            if total >= lo and total != 0:
                out.append(acc + (total,))
            return
        for v in range(lo, total + 2 * count):
            if v != 0:
                grow(total - v, count - 1, v, acc + (v,))

    if k >= 1:
        for count in (2, 3, 4):
            grow(k, count, -1, ())
    return tuple(p for p in out if not (len(p) == 2 and k % 2 == 0 and p[0] % 2))


def one_split_successors(orders: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every signature (orders descending) one split below ``orders``."""
    out = set()
    for idx, k in enumerate(orders):
        rest = orders[:idx] + orders[idx + 1 :]
        for parts in legal_splits(k):
            out.add(desc(rest + parts))
    return out


def is_two_part_split(higher: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    """Whether ``higher`` is ``lower`` with one entry split in two parts.

    When ``higher`` has exactly one entry more than ``lower`` this decides
    reachability, since every split adds at least one entry.
    """
    if len(higher) != len(lower) + 1:
        return False
    target = Counter(higher)
    for k in set(lower):
        rest = Counter(lower)
        rest[k] -= 1
        for parts in legal_splits(k):
            if len(parts) == 2 and rest + Counter(parts) == target:
                return True
    return False


# --- braid words -----------------------------------------------------------


def homology(genus: int, weights, letters) -> list[int]:
    coords = [0] * (2 * genus)
    for kind, i, second, exp in letters:
        if kind == "rho":
            coords[second - 1] += exp * weights[i - 1]
    return coords


def permutation(n: int, letters) -> tuple[int, ...]:
    """Entry k-1 is where point k ends up; sigma letters act left to right.

    Swaps the points sitting at slots i and j for each exchange, then
    inverts the slot table.
    """
    at = list(range(n + 1))
    for kind, i, j, _exp in letters:
        if kind == "sigma":
            at[i], at[j] = at[j], at[i]
    where = [0] * n
    for slot in range(1, n + 1):
        where[at[slot] - 1] = slot
    return tuple(where)


def factor_shape_ok(tag: str, param, letters, genus: int, weights) -> bool:
    """The letter shape a factor's tag requires, checked from its letters."""
    if tag == "transposition":
        return len(letters) == 1 and letters[0][0] == "sigma"
    if tag == "square_transposition":
        return len(letters) == 1 and letters[0][0] in ("kappa", "kappa_puncture")
    if tag == "null_rho":
        if not letters:
            return True
        dirs = {lt[2] for lt in letters}
        return (
            all(lt[0] == "rho" for lt in letters)
            and dirs == {param}
            and sum(lt[3] * weights[lt[1] - 1] for lt in letters) == 0
        )
    if tag == "i_commutator":
        i = param
        if not all(lt[0] in ("rho", "kappa") and lt[1] == i for lt in letters):
            return False
        rho_sum = [0] * (2 * genus)
        kappa_sum = {j: 0 for j in range(i + 1, len(weights) + 1)}
        for kind, _i, second, exp in letters:
            if kind == "rho":
                rho_sum[second - 1] += exp
            else:
                kappa_sum[second] += exp
        return not any(rho_sum) and len(set(kappa_sum.values())) <= 1
    return False


def factors_ok(genus: int, weights, word, factors) -> bool:
    """The checks a kernel factorization must pass.

    ``factors`` is a list of ``(tag, param, letters)``.  The input must be in
    the kernel, every factor must have zero homology image and the shape its
    tag requires, and the factors concatenated must keep the input's
    permutation.
    """
    if any(homology(genus, weights, word)):
        return False
    for tag, param, letters in factors:
        if any(homology(genus, weights, letters)):
            return False
        if not factor_shape_ok(tag, param, letters, genus, weights):
            return False
    joined = [lt for _tag, _param, letters in factors for lt in letters]
    n = len(weights)
    return permutation(n, joined) == permutation(n, word)


def dmin(weights, l: int) -> int:
    """Smallest d > 0 with d * w_l in the lattice of the other weights, by scan."""
    G = 0
    for idx, w in enumerate(weights):
        if idx != l:
            G = math.gcd(G, w)
    d = 1
    while (d * weights[l]) % G:
        d += 1
    return d


# --- maps ------------------------------------------------------------------


def cycles(perm) -> list[list[int]]:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = perm[cur]
        out.append(cyc)
    return out


def map_counts(sigma) -> dict:
    """Vertices, edges, faces (orbits of sigma after alpha), genus, simplicity."""
    verts = cycles(sigma)
    faces = cycles([sigma[d ^ 1] for d in range(len(sigma))])
    owner = {d: v for v, cyc in enumerate(verts) for d in cyc}
    E = len(sigma) // 2
    pairs = [tuple(sorted((owner[2 * e], owner[2 * e + 1]))) for e in range(E)]
    simple = all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)
    euler = len(verts) - E + len(faces)
    return {
        "V": len(verts),
        "E": E,
        "F": len(faces),
        "genus": (2 - euler) // 2 if euler % 2 == 0 else None,
        "simple": simple,
        "edges": sorted(pairs),
    }


def sigma_from_cycles(n_darts: int, rotation) -> list[int]:
    sigma = [-1] * n_darts
    for cyc in rotation:
        for pos, d in enumerate(cyc):
            sigma[d] = cyc[(pos + 1) % len(cyc)]
    return sigma


# --- signatures and bounds ---------------------------------------------------


def point_bound(g: int, extra: int) -> int:
    """Least n with n(n-3)/2 >= 2g + extra - 2, by scan."""
    n = 3
    while n * (n - 3) < 2 * (2 * g + extra - 2):
        n += 1
    return n


def cover_orders(base: tuple[int, ...], ramified: set[int]) -> tuple[int, ...]:
    out = []
    for idx, k in enumerate(base):
        if idx in ramified:
            if 2 * k + 2:
                out.append(2 * k + 2)
        else:
            out += [k, k]
    return desc(out)


def main_theorem(genus: int, orders) -> bool:
    ones = sum(1 for k in orders if k == 1)
    rest = [k for k in orders if k != 1]
    even_pair = (
        bool(rest)
        and all(k > 0 and k % 2 == 0 for k in rest)
        and len(set(rest)) < len(rest)
    )
    return even_pair and ones > max([genus + 5] + rest)
