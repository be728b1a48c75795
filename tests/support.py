"""Shared oracles and generators for the test suite."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from typing import Iterator

import strata as st
from strata import cli, graphs
from strata.errors import InvalidLetter, NoRemovableEdge
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


def branched_lifts(g: int) -> Iterator[tuple]:
    """Every double cover of genus g over a genus-0 base that the
    hyperelliptic construction allows, as (points, poles, ramified, r, lift).

    The base has one to three non-pole points, ``points``, each of order
    k >= 0 (k = 0 a marked regular point), descending, and sum(k) + 4 simple
    poles, counted rather than listed.  The cover is branched at the points
    whose indices ``ramified`` lists, every marked point among them, and at
    r = 2g + 2 - len(ramified) of the poles.  A ramified point of order k
    lifts to one of order 2k + 2, a ramified pole to none, an unramified
    point or pole to two copies of itself; ``lift`` is the descending
    orders.  The cover branched exactly at the odd-order points is the
    square of an abelian differential and is left out.  A base with more
    than 2g + 7 poles is never needed: its unramified poles alone lift to a
    dimension above its own (see ``hyperelliptic_oracle``)."""
    for m in (1, 2, 3):
        for points in itertools.combinations_with_replacement(range(2 * g + 4), m):
            points = points[::-1]
            poles = sum(points) + 4
            if poles > 2 * g + 7:
                continue
            for size in range(m + 1):
                for ramified in itertools.combinations(range(m), size):
                    r = 2 * g + 2 - size
                    if not 0 <= r <= poles:
                        continue
                    if any(k == 0 and i not in ramified for i, k in enumerate(points)):
                        continue
                    odd = tuple(i for i, k in enumerate(points) if k % 2)
                    if r == poles and ramified == odd:
                        continue
                    lift = [2 * k + 2 if i in ramified else k for i, k in enumerate(points)]
                    lift += [k for i, k in enumerate(points) if i not in ramified]
                    lift += [-1] * (2 * (poles - r))
                    yield points, poles, ramified, r, tuple(sorted(lift, reverse=True))


def hyperelliptic_oracle(g: int) -> set[tuple[int, ...]]:
    """The orders of the genus-g strata with a hyperelliptic component,
    derived from the double-cover lift and the dimension formula alone,
    without the family rules (Lanneau, Comment. Math. Helv. 79, 2004).

    A lift from ``branched_lifts`` whose stratum has the dimension of its
    base, 2g - 2 + len(lift) = n - 2 with n the base's points and poles,
    fills a component of that stratum, and that component is hyperelliptic.
    The bound on the poles: the lift holds at least 2(poles - r) poles, so
    with m <= 3 non-pole points and r <= 2g + 2, equal dimensions need
    poles <= m + 2r - 2g <= 2g + 7."""
    return {
        lift
        for points, poles, _, _, lift in branched_lifts(g)
        if 2 * g - 2 + len(lift) == len(points) + poles - 2
    }


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


def inverse_word(w: st.BraidWord) -> st.BraidWord:
    """The inverse of w, through the public constructor: its letters
    reversed, each exponent negated."""
    return st.BraidWord(
        w.surface, tuple(st.Letter(lt.kind, lt.i, lt.second, -lt.exp) for lt in reversed(w.letters))
    )


def validate_letters_oracle(letters, surf: st.MarkedSurface) -> tuple[st.Letter, ...]:
    """Oracle for the letter checks of the ``BraidWord`` constructor: every
    element checked in word order, one at a time, whatever its identity.
    Returns the letters with each repeat of a (class, kind, i, second, exp)
    with a str kind and int fields replaced by its first occurrence; raises
    InvalidLetter for the first letter not valid on surf, and TypeError for
    the first element that is not a Letter."""
    second_key = {"rho": "r", "sigma": "j", "kappa": "j", "kappa_puncture": "l"}
    weights, m = surf.weights, surf.punctures
    n, dirs = len(weights), 2 * surf.genus
    first: dict[tuple, st.Letter] = {}
    out = []
    for lt in letters:
        if not isinstance(lt, st.Letter):
            raise TypeError("expected a Letter, got %s" % type(lt).__name__)
        kind, i, second, exp = lt.kind, lt.i, lt.second, lt.exp
        if type(i) is not int or type(second) is not int or type(exp) is not int:
            if kind not in tuple(second_key):  # a tuple: kind may not hash
                raise InvalidLetter("unknown letter kind %r" % (kind,))
            raise InvalidLetter(
                "%s letter fields 'i', %r and 'exp' must be integers" % (kind, second_key[kind])
            )
        if type(kind) is str:
            lt = first.setdefault((lt.__class__, kind, i, second, exp), lt)
        out.append(lt)
        if exp not in (1, -1):
            raise InvalidLetter("letter exponent must be +-1, got %r" % (exp,))
        if not 1 <= i <= n:
            raise InvalidLetter("point index %d out of range 1..%d" % (i, n))
        if kind == "rho":
            if not 1 <= second <= dirs:
                raise InvalidLetter("homology direction %d out of range 1..%d" % (second, dirs))
        elif kind in ("sigma", "kappa"):
            if not i < second <= n:
                raise InvalidLetter("%s needs i < j <= n, got (%d, %d)" % (kind, i, second))
            if kind == "sigma" and weights[i - 1] != weights[second - 1]:
                raise InvalidLetter(
                    "sigma exchanges equal weights only: %d vs %d"
                    % (weights[i - 1], weights[second - 1])
                )
        elif kind == "kappa_puncture":
            if not 1 <= second <= m:
                raise InvalidLetter("puncture index %d out of range 1..%d" % (second, m))
        else:
            raise InvalidLetter("unknown letter kind %r" % (kind,))
    return tuple(out)


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
    return y, free_reduce_oracle(st.BraidWord(z.surface, inverse_word(y).letters + z.letters))


def free_reduce_oracle(w: st.BraidWord) -> st.BraidWord:
    """Free reduction of w: delete the first adjacent pair of mutually
    inverse letters, step back one place, and repeat until no pair is left."""
    letters = list(w.letters)
    k = 0
    while k + 1 < len(letters):
        a, b = letters[k], letters[k + 1]
        if (a.kind, a.i, a.second, a.exp) == (b.kind, b.i, b.second, -b.exp):
            del letters[k:k + 2]
            k = max(k - 1, 0)
        else:
            k += 1
    return st.BraidWord(w.surface, tuple(letters))


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
    """Oracle for the subdivide move ``graphs._subdivide_edge``: rebuild
    every vertex cycle of the map, with dart 2e+1 moved to a new vertex
    beside the new dart 2E and its old slot taken by the new dart 2E+1, and
    validate a fresh map from them."""
    E = m.n_edges
    cycles = [[2 * E + 1 if d == 2 * e + 1 else d for d in cyc] for cyc in m.vertices()]
    cycles.append([2 * e + 1, 2 * E])
    return st.CombinatorialMap.from_json_dict(
        {"darts": m.n_darts + 2, "sigma": cycles, "alpha_convention": "pairs"}
    )


def raise_genus_indexed(rot: list[list[int]], label: list[int], owner: list[int]) -> None:
    """Oracle for one raise move, on the rotation as dart cycles and its face
    labels, both edited in place.  ``owner[d]`` is the index in rot of the
    cycle holding dart d; a raise keeps every dart at its vertex, so one index
    serves a whole chain.  The lowest-index edge whose darts lie on different
    faces a and b is lifted (b merges into a) and re-inserted at the first
    corner pair of its endpoints on different faces fu and fv, each corner
    read as the face of the dart after it through the lift (fv merges into
    fu); the labels are rewritten in one pass once the pair is found."""
    for e in range(len(label) // 2):
        du, dv = 2 * e, 2 * e + 1
        a, b = label[du], label[dv]
        if a == b:
            continue
        cu, cv = rot[owner[du]], rot[owner[dv]]
        ru = [d for d in cu if d != du]
        rv = [d for d in cv if d != dv]
        faces_u = [a if label[d] == b else label[d] for d in ru[1:] + ru[:1]]
        faces_v = [a if label[d] == b else label[d] for d in rv[1:] + rv[:1]]
        for ra, fu in enumerate(faces_u):
            for rb, fv in enumerate(faces_v):
                if fu != fv:
                    cu[:] = ru[: ra + 1] + [du] + ru[ra + 1 :]
                    cv[:] = rv[: rb + 1] + [dv] + rv[rb + 1 :]
                    # lift (b -> a), then the handle (fv -> fu); fu, fv != b
                    b_to = fu if a == fv else a
                    label[:] = [fu if f == fv else b_to if f == b else f for f in label]
                    label[du] = label[dv] = fu
                    return
    raise AssertionError("no edge admits a raise move on this map")


def raised_rotation_oracle(n: int, g: int) -> tuple[list[list[int]], list[int]]:
    """Oracle for the embedding of K_n at genus g, one chain per call: the
    tabled minimum-genus rotation with freshly traced face labels and dart ->
    vertex index, then one ``raise_genus_indexed`` move per unit of genus
    above the minimum, its labels merged rather than traced.  Returns the
    rotation as dart cycles and the labels."""
    rot = graphs._kn_rotation(n, graphs._MIN_GENUS_ROTATIONS[n])
    n_darts = n * (n - 1)
    label = graphs._faces(graphs._sigma_of(rot, n_darts))[1]
    owner = [0] * n_darts
    for v, cyc in enumerate(rot):
        for d in cyc:
            owner[d] = v
    gamma, _ = st.complete_graph_genus_range(n)
    for _ in range(g - gamma):
        raise_genus_indexed(rot, label, owner)
    return rot, label


def delete_edge_in_cycles(rot: list[list[int]], label: list[int]) -> None:
    """Oracle for the deletion move, on the rotation as dart cycles and its
    face labels: drop the lowest-index edge whose two darts lie on different
    faces from every cycle, renumber the darts above it down by two, and
    merge and drop its labels."""
    e = next((e for e in range(len(label) // 2) if label[2 * e] != label[2 * e + 1]), None)
    if e is None:
        raise NoRemovableEdge("map has a single face; nothing can be removed")
    a, b = label[2 * e], label[2 * e + 1]
    label[:] = [a if f == b else f for f in label]
    del label[2 * e : 2 * e + 2]
    for cyc in rot:
        cyc[:] = [d - 2 if d > 2 * e + 1 else d for d in cyc if d // 2 != e]
        if not cyc:
            raise NoRemovableEdge("removing edge %d would isolate a vertex" % e)


def subdivide_edge_in_cycles(rot: list[list[int]], n_darts: int, e: int) -> None:
    """Oracle for the subdivision move, on the rotation as dart cycles: dart
    2e+1 moves to a new cycle beside the new dart n_darts, and its old slot
    takes the new edge's other dart n_darts + 1.  Cycles are searched newest
    first: after a subdivision of e, dart 2e+1 sits in the cycle it added."""
    d = 2 * e + 1
    cyc = next(cyc for cyc in reversed(rot) if d in cyc)
    cyc[cyc.index(d)] = n_darts + 1
    rot.append([d, n_darts])


def delete_edge_oracle(m: st.CombinatorialMap) -> st.CombinatorialMap:
    """Oracle for ``delete_edge_preserving``: the cycle-list deletion on the
    map's vertex cycles and traced face labels, checked as a fresh map."""
    rot, label = m.vertices(), graphs._faces(m.sigma)[1]
    delete_edge_in_cycles(rot, label)
    return st.CombinatorialMap(graphs._sigma_of(rot, len(label)))


def construct_graph_cycles_oracle(g: int, f: int, n: int) -> tuple[int, ...]:
    """Oracle for the sigma of ``construct_graph(g, f, n)``: the raise chain
    of ``raised_rotation_oracle`` on bound = ``point_bound(g, f)`` vertices,
    then cycle-list deletions while it has more than f faces and cycle-list
    subdivisions of edge 0 up to n vertices."""
    bound = st.point_bound(g, f)
    rot, label = raised_rotation_oracle(bound, g)
    while len(set(label)) > f:
        delete_edge_in_cycles(rot, label)
    for k in range(n - bound):
        subdivide_edge_in_cycles(rot, len(label) + 2 * k, 0)
    return tuple(graphs._sigma_of(rot, sum(map(len, rot))))


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


def partition_oracle(higher: st.StratumSignature, lower: st.StratumSignature) -> bool:
    """Oracle for ``is_adjacent`` by brute force over set partitions: every
    entry of ``higher`` goes to one entry of ``lower``, each pole of
    ``lower`` must end with a lone -1, and each zero with a group that
    ``splits_into`` accepts.

    A state is the sorted tuple of (entry of ``lower``, its group so far),
    so equal groups are tried once, and states that failed are kept.  A
    state is cut off once the zeros' groups, summed as they stand, exceed
    their zeros by more than the poles ``higher`` has to spare."""
    entries = higher.orders
    spare = entries.count(-1) - lower.orders.count(-1)
    failed: set[tuple[int, tuple]] = set()

    def place(i: int, groups: tuple) -> bool:
        if i == len(entries):
            return all(
                group == (-1,) if k == -1 else st.splits_into(k, group) for k, group in groups
            )
        if (i, groups) in failed:
            return False
        e = entries[i]
        for j, (k, group) in enumerate(groups):
            if j and groups[j - 1] == groups[j]:
                continue
            if k == -1 and (e != -1 or group):
                continue
            grown = groups[:j] + ((k, group + (e,)),) + groups[j + 1 :]
            if sum(max(0, sum(g) - z) for z, g in grown if z > 0) > spare:
                continue
            if place(i + 1, tuple(sorted(grown))):
                return True
        failed.add((i, groups))
        return False

    return place(0, tuple((k, ()) for k in sorted(lower.orders)))


def parse_outcome(parse, argv: list[str], digest=None) -> tuple:
    """("ok", the parsed values) or ("exit", code): what ``parse(argv)`` did.
    What it printed is thrown away, or fed with the outcome to the hashlib
    object ``digest``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = "ok", vars(parse(argv))
        except SystemExit as exc:
            outcome = "exit", exc.code
    if digest is not None:
        shown = sorted(outcome[1].items()) if outcome[0] == "ok" else outcome[1]
        digest.update(repr((outcome[0], shown, out.getvalue(), err.getvalue())).encode())
    return outcome


def version_dependent(argv: list[str]) -> bool:
    """Whether ``argv`` holds a word that argparse reads differently from one
    Python version to the next; ``cli.parse_args`` rejects each with exit 2."""
    for word in argv:
        head, _, tail = word.partition("=")
        if word == "--" or (word.startswith("-h") and word != "-h"):
            return True
        if tail == "--" and head.startswith("--") and " " not in head:  # --name=--
            return True
    return False


# the words an adversarial argv is made of: every option name with its
# prefixes, values argparse reads in more than one way (a sign, spaces, a
# non-ASCII digit, a leading dash), and the forms argparse versions disagree on
_NAMES = {"-h", "--help"} | {
    spec[0] for _, _, options in cli.COMMANDS.values() for spec in cli.COMMON + options
}
ARGV_NAMES = sorted({name[:k] for name in _NAMES for k in range(2, len(name) + 1)} | {"-x", "--x"})
ARGV_INTS = ["3", "0", "-3", "+3", " 3", "3 ", "\u0663", "1_0", "-3\n", "x", "", "-.5", "9" * 4400]
ARGV_VALUES = ARGV_INTS + [
    "4", "2,2", "-1,2", "-1, 2", "-1.", "-", "a b", "-x y", "--x y", "main", "gen2",
    "--", "-h", "-hX", "-hh", "-h x", "-h=h", "--=x", "--=",
]


def random_argv(rng: random.Random) -> list[str]:
    """One adversarial argv: now and then a word before the subcommand, then
    most of the subcommand's options, each spelled in full, as a prefix or
    with "=", with values drawn for its kind, and now and then a stray word."""
    words = [rng.choice(ARGV_NAMES + ARGV_VALUES) for _ in range(rng.choice((0, 0, 0, 0, 1)))]
    if rng.random() < 0.05:
        words.append(rng.choice(["", "bogus", "inf", "-1"]))
        return words
    command = rng.choice(list(cli.COMMANDS))
    words.append(command)
    given = []
    for name, kind, _, _ in cli.COMMON + cli.COMMANDS[command][2]:
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2))):
            spelled = name[: rng.randint(3, len(name))] if rng.random() < 0.3 else name
            if kind is bool:
                given.append([spelled + "=" + rng.choice(ARGV_INTS) if rng.random() < 0.1 else spelled])
                continue
            if kind is int:
                value = rng.choice(ARGV_INTS)
            elif kind is str:
                value = rng.choice(ARGV_VALUES)
            else:
                value = rng.choice(list(kind) + ["x", ""])
            given.append([spelled + "=" + value] if rng.random() < 0.5 else [spelled, value])
    rng.shuffle(given)
    for option in given:
        words.extend(option)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        words.insert(rng.randint(len(words) - len(given), len(words)), rng.choice(ARGV_NAMES + ARGV_VALUES))
    return words


def argv_corpus(count: int = 4000, seed: int = 0) -> list[list[str]]:
    """A fixed list of adversarial argv, the same on every Python version."""
    rng = random.Random(seed)
    return [random_argv(rng) for _ in range(count)]


def factorize_oracle(z: st.BraidWord) -> list[tuple]:
    """Oracle for ``factorize_kernel_word`` on a word it accepts: each factor
    as (tag, param, letters), built by the plain peel.  Every stage splits the
    whole remaining word into the letters moving its point and the rest,
    balances by ``minimal_d`` on its weight prefix, and puts its debt in
    front of the rest."""
    surf = z.surface
    weights, n = surf.weights, surf.n
    a = next((k for k, w in enumerate(weights) if w != weights[0]), n)
    y, x = factor_by_permutation_oracle(z)
    out = [("transposition", None, (lt,)) for lt in y.letters + x.letters if lt.kind == "sigma"]
    current = [lt for lt in x.letters if lt.kind != "sigma"]
    for c in range(n, a, -1):
        moving = [lt for lt in current if lt.i == c]
        current = [lt for lt in current if lt.i != c]
        if not moving:
            continue
        rhos = [lt for lt in moving if lt.kind == "rho"]
        kappas = [lt for lt in moving if lt.kind == "kappa"]
        ordered = st.BraidWord(surf, sorted(rhos, key=lambda lt: lt.second) + kappas)
        h = free_reduce_oracle(st.BraidWord(surf, tuple(moving) + inverse_word(ordered).letters))
        if h.letters:
            out.append(("i_commutator", c, h.letters))
        d, coeffs = st.minimal_d(weights[:c], c - 1)
        debt = []
        for r in range(1, 2 * surf.genus + 1):
            e = sum(lt.exp for lt in rhos if lt.second == r)
            if e == 0:
                continue
            assert e % d == 0
            block = [st.rho(c, r, 1 if e > 0 else -1)] * abs(e)
            for k in range(c - 1):
                cnt = e // d * coeffs[k]
                sign = 1 if cnt > 0 else -1
                block += [st.rho(k + 1, r, sign)] * abs(cnt)
                debt += [st.rho(k + 1, r, -sign)] * abs(cnt)
            out.append(("null_rho", r, tuple(block)))
        out += [("square_transposition", None, (lt,)) for lt in kappas]
        current = debt + current
    for r in range(1, 2 * surf.genus + 1):
        group = tuple(lt for lt in current if lt.kind == "rho" and lt.second == r)
        if group:
            out.append(("null_rho", r, group))
    out += [("square_transposition", None, (lt,)) for lt in current if lt.kind == "kappa"]
    return out
