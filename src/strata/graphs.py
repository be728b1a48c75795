"""Rotation-system encodings of graphs embedded on oriented surfaces.

Darts are numbered 0..2E-1 with darts 2i and 2i+1 the two halves of edge i,
so the edge involution is "xor 1" and never stored.  A map is determined by
the vertex rotation alone; faces are the orbits of sigma∘alpha, and the genus
falls out of the Euler count.  On top of the raw encoding the module builds
complete-graph embeddings of prescribed genus, walks them down to a target
face count, subdivides up to a target vertex count, and reads off the
exchange generators living on the edges.

Complete-graph embeddings take one path: a frozen rotation for the two
minimum-genus cases the builder does not reach for every seed (K_7 on the
torus, K_8 at genus 2), and otherwise a seeded incremental builder that inserts the
edges of K_n into a spanning star one at a time, choosing each insertion's
corners by face labels so that the face count moves by the scheduled +1 or
-1 (the edge-insertion face rule, Gross & Tucker, Topological Graph Theory).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import braids
from .criteria import point_bound
from .errors import (
    BoundViolation,
    BudgetExceeded,
    IndexOutOfRange,
    InvalidSpec,
    NoRemovableEdge,
    NotSimple,
    OutOfRange,
    PreconditionUnmet,
    TooManyFaces,
)

# the incremental builder fails at the minimum genus of K_9 (g = 3) and K_10
# (g = 4) for most seeds, and the frozen table stops at K_8
MAX_COMPLETE_VERTICES = 8


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    out: list[list[int]] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        out.append(cyc)
    return out


def _face_count(sigma: list[int] | tuple[int, ...]) -> int:
    n = len(sigma)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = sigma[cur ^ 1]
    return count


def _sigma_of(cycles: list[list[int]], n_darts: int) -> list[int]:
    # vertex rotation from its cycles, each listing the darts at one vertex
    sigma = [0] * n_darts
    for cyc in cycles:
        for pos, d in enumerate(cyc):
            sigma[d] = cyc[(pos + 1) % len(cyc)]
    return sigma


@dataclass(frozen=True)
class CombinatorialMap:
    """Connected graph 2-cell embedded on an oriented surface."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        n = len(self.sigma)
        if n == 0 or n % 2:
            raise InvalidSpec("a map needs a positive even number of darts")
        if sorted(self.sigma) != list(range(n)):
            raise InvalidSpec("vertex rotation is not a permutation of the darts")
        # connectivity: the group generated by sigma and alpha acts transitively
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            d = stack.pop()
            for nxt in (self.sigma[d], d ^ 1):
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        if not all(seen):
            raise InvalidSpec("map is not connected")

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    def alpha(self, dart: int) -> int:
        return dart ^ 1

    def vertices(self) -> list[list[int]]:
        return sorted(
            (_rotate_min(c) for c in _cycles(self.sigma)), key=lambda c: c[0]
        )

    def vertex_of(self) -> dict[int, int]:
        owner: dict[int, int] = {}
        for v, cyc in enumerate(self.vertices()):
            for d in cyc:
                owner[d] = v
        return owner

    def edges(self) -> list[tuple[int, int]]:
        owner = self.vertex_of()
        return [(owner[2 * e], owner[2 * e + 1]) for e in range(self.n_edges)]

    def is_simple(self) -> bool:
        pairs = [tuple(sorted(uv)) for uv in self.edges()]
        return all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)

    def report(self) -> "EmbeddedGraphReport":
        V = len(self.vertices())
        E = self.n_edges
        F = _face_count(self.sigma)
        return EmbeddedGraphReport.from_counts(V, E, F, self.is_simple())

    def to_json_dict(self) -> dict:
        return {
            "darts": self.n_darts,
            "sigma": self.vertices(),
            "alpha_convention": "pairs",
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CombinatorialMap":
        if not isinstance(data, dict):
            raise InvalidSpec("map JSON must be an object")
        if data.get("alpha_convention") != "pairs":
            raise InvalidSpec("unsupported alpha convention %r" % data.get("alpha_convention"))
        n, cycles = data.get("darts"), data.get("sigma")
        # type() rather than isinstance: JSON true/false decode to bool, an int
        if type(n) is not int:
            raise InvalidSpec("map JSON needs an integer 'darts'")
        if not isinstance(cycles, list) or any(
            not isinstance(cyc, list) or any(type(d) is not int for d in cyc)
            for cyc in cycles
        ):
            raise InvalidSpec("map 'sigma' must be a list of integer lists")
        total = sum(map(len, cycles))
        if total != n:
            raise InvalidSpec("rotation cycles hold %d darts, expected %d" % (total, n))
        sigma = [-1] * n
        for cyc in cycles:
            for pos, d in enumerate(cyc):
                if not 0 <= d < n or sigma[d] != -1:
                    raise InvalidSpec("bad dart %r in rotation cycles" % (d,))
                sigma[d] = cyc[(pos + 1) % len(cyc)]
        return CombinatorialMap(tuple(sigma))


def _rotate_min(cycle: list[int]) -> list[int]:
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@dataclass(frozen=True)
class EmbeddedGraphReport:
    V: int
    E: int
    F: int
    genus: int
    simple: bool

    @staticmethod
    def from_counts(V: int, E: int, F: int, simple: bool) -> "EmbeddedGraphReport":
        euler = V - E + F
        if euler % 2 or euler > 2:
            raise InvalidSpec("Euler count %d is not 2 - 2g for g >= 0" % euler)
        return EmbeddedGraphReport(V, E, F, (2 - euler) // 2, simple)

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.V,
            "edges": self.E,
            "faces": self.F,
            "genus": self.genus,
            "simple": self.simple,
        }


def trace_faces(m: CombinatorialMap) -> list[list[int]]:
    """Face cycles of the map: orbits of sigma∘alpha, canonically rotated."""
    face_perm = tuple(m.sigma[d ^ 1] for d in range(m.n_darts))
    return sorted((_rotate_min(c) for c in _cycles(face_perm)), key=lambda c: c[0])


def build_map(
    n_vertices: int,
    edges: list[tuple[int, int]],
    rotations: list[list[int]] | None = None,
) -> CombinatorialMap:
    """Assemble a map from an edge list and per-vertex neighbor orders.

    ``rotations[v]`` lists the darts at v by their edge index in cyclic
    order; when omitted, darts sit in edge-index order.
    """
    darts_at: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise NotSimple("loops are not representable with distinct endpoints")
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    if rotations is not None:
        darts_at = rotations
    if not all(darts_at):
        raise InvalidSpec("isolated vertex in map construction")
    return CombinatorialMap(tuple(_sigma_of(darts_at, 2 * len(edges))))


def complete_graph_genus_range(n: int) -> tuple[int, int]:
    """Minimum and maximum genus formulas for the complete graph on n vertices."""
    if n < 3:
        raise OutOfRange("need n >= 3, got %d" % n)
    gamma = -(-((n - 3) * (n - 4)) // 12)
    gamma_max = -(-((n - 1) * (n - 2)) // 4)
    return gamma, gamma_max


def _kn_edges(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _kn_sigma(n: int, neighbor_orders: list[list[int]]) -> list[int]:
    edges = _kn_edges(n)
    dart_of: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(edges):
        dart_of[(u, v)] = 2 * e
        dart_of[(v, u)] = 2 * e + 1
    cycles = [[dart_of[(v, u)] for u in order] for v, order in enumerate(neighbor_orders)]
    return _sigma_of(cycles, n * (n - 1))


# minimum-genus rotations the incremental builder below does not reach for
# every seed, frozen for determinism and keyed by (n, g).  K_8 at genus 2
# (18 faces) was found once by annealing on the face count; K_7 at genus 1 is
# Heawood's cyclic torus triangulation (Ringel, Map Color Theorem, 1974)
_K8_GENUS2_ROTATION = (
    (3, 7, 5, 1, 4, 6, 2),
    (4, 7, 6, 3, 2, 0, 5),
    (5, 7, 4, 1, 3, 0, 6),
    (7, 0, 2, 1, 4, 5, 6),
    (6, 0, 2, 7, 1, 5, 3),
    (0, 7, 2, 6, 3, 4, 1),
    (2, 0, 4, 1, 7, 3, 5),
    (4, 2, 5, 0, 3, 6, 1),
)
_FROZEN_ROTATIONS = {
    (7, 1): tuple(tuple((v + d) % 7 for d in (1, 3, 2, 6, 4, 5)) for v in range(7)),
    (8, 2): _K8_GENUS2_ROTATION,
}


def _face_labels(rot: list[list[int]], n_darts: int) -> list[int]:
    # label[d] names the face holding dart d: the first dart met on its orbit
    sigma = _sigma_of(rot, n_darts)
    label = [-1] * n_darts
    for start in range(n_darts):
        cur = start
        while label[cur] < 0:
            label[cur] = start
            cur = sigma[cur ^ 1]
    return label


def _incremental_embed(
    n: int, g: int, seed: int, deadline: float
) -> CombinatorialMap | None:
    """Grow K_n edge by edge from a spanning star, steering the face count.

    Every insertion changes the face count by exactly one.  The corner after
    dart d lies on the face of sigma(d); an edge joining two corners of one
    face splits it (+1), an edge joining corners of two faces merges them
    through a fresh handle (-1, genus + 1).  Exactly g merges are scheduled,
    taken as early as the face structure allows; dead ends retry with a
    reshuffled edge order.
    """
    rest = [(u, v) for u, v in itertools.combinations(range(n), 2) if u != 0]
    if len(rest) < g:
        return None
    rng = random.Random(seed)

    for _ in range(300):
        if time.monotonic() > deadline:
            return None
        order = rest[:]
        rng.shuffle(order)
        # spanning star: vertex 0 carries one dart per edge, each leaf one
        rot = [[2 * k for k in range(n - 1)]] + [[2 * k + 1] for k in range(n - 1)]
        next_dart = 2 * (n - 1)
        splits, merges = len(rest) - g, g
        for u, v in order:
            label = _face_labels(rot, next_dart)
            faces_u = [label[rot[u][(ra + 1) % len(rot[u])]] for ra in range(len(rot[u]))]
            faces_v = [label[rot[v][(rb + 1) % len(rot[v])]] for rb in range(len(rot[v]))]
            # merges first while any remain, then splits
            wanted = [False] * (merges > 0) + [True] * (splits > 0)
            found = next(
                (
                    (split, ra, rb)
                    for split in wanted
                    for ra, fu in enumerate(faces_u)
                    for rb, fv in enumerate(faces_v)
                    if (fu == fv) == split
                ),
                None,
            )
            if found is None:
                break
            split, ra, rb = found
            if split:
                splits -= 1
            else:
                merges -= 1
            rot[u].insert(ra + 1, next_dart)
            rot[v].insert(rb + 1, next_dart + 1)
            next_dart += 2
        else:
            return CombinatorialMap(tuple(_sigma_of(rot, next_dart)))
    return None


def embed_complete(
    n: int, g: int, *, seed: int = 0, budget_ms: int = 60000
) -> CombinatorialMap:
    """A rotation system for the complete graph K_n with the requested genus.

    One path covers 3 <= n <= MAX_COMPLETE_VERTICES: the frozen minimum-genus
    rotations of K_7 (genus 1) and K_8 (genus 2) are returned as stored, and
    every other genus comes from the seeded incremental builder; BudgetExceeded
    is raised when its attempts or the budget run out.
    """
    if n < 3 or n > MAX_COMPLETE_VERTICES:
        raise OutOfRange("complete-graph embedding supports 3 <= n <= %d" % MAX_COMPLETE_VERTICES)
    gamma, gamma_max = complete_graph_genus_range(n)
    if not gamma <= g <= gamma_max:
        raise OutOfRange(
            "genus %d outside the embeddable range [%d, %d] for K_%d"
            % (g, gamma, gamma_max, n)
        )
    n_edges = n * (n - 1) // 2
    if n_edges - n + 2 - 2 * g < 1:
        # a 2-cell decomposition needs at least one face; the published upper
        # formula rounds up, so trim the unreachable top here
        raise OutOfRange("no 2-cell embedding of K_%d has genus %d" % (n, g))

    frozen = _FROZEN_ROTATIONS.get((n, g))
    if frozen is not None:
        return CombinatorialMap(tuple(_kn_sigma(n, frozen)))
    built = _incremental_embed(n, g, seed, time.monotonic() + budget_ms / 1000.0)
    if built is None:
        raise BudgetExceeded(
            "incremental embedding of K_%d at genus %d ran out of attempts or budget"
            % (n, g)
        )
    return built


def _rebuild_without_edge(m: CombinatorialMap, e: int) -> CombinatorialMap:
    drop = {2 * e, 2 * e + 1}

    def renumber(d: int) -> int:
        return d - 2 if d > 2 * e + 1 else d

    cycles = []
    for cyc in m.vertices():
        kept = [renumber(d) for d in cyc if d not in drop]
        if not kept:
            raise NoRemovableEdge("removing edge %d would isolate a vertex" % e)
        cycles.append(kept)
    return CombinatorialMap(tuple(_sigma_of(cycles, m.n_darts - 2)))


def delete_edge_preserving(m: CombinatorialMap) -> CombinatorialMap:
    """Remove the lowest-index edge bordering two distinct faces.

    Such an edge is never a bridge, so the two faces merge into one disk:
    the result is again 2-cell with one face fewer and the same genus.
    """
    faces = trace_faces(m)
    if len(faces) < 2:
        raise NoRemovableEdge("map has a single face; nothing can be removed")
    face_of: dict[int, int] = {}
    for idx, cyc in enumerate(faces):
        for d in cyc:
            face_of[d] = idx
    for e in range(m.n_edges):
        if face_of[2 * e] == face_of[2 * e + 1]:
            continue
        try:
            return _rebuild_without_edge(m, e)
        except (NoRemovableEdge, InvalidSpec):
            continue
    raise NoRemovableEdge("no edge borders two distinct faces")


def subdivide_edge(m: CombinatorialMap, e: int) -> CombinatorialMap:
    """Place a new degree-2 vertex in the middle of edge e.

    Vertex and edge counts grow by one; faces and genus are untouched.
    """
    if not 0 <= e < m.n_edges:
        raise IndexOutOfRange("edge index %d out of range" % e)
    E = m.n_edges
    # dart 2e+1 moves to the new vertex; the freed slot takes dart 2E+1
    cycles = []
    for cyc in m.vertices():
        cycles.append([2 * E + 1 if d == 2 * e + 1 else d for d in cyc])
    cycles.append([2 * e + 1, 2 * E])
    return CombinatorialMap(tuple(_sigma_of(cycles, m.n_darts + 2)))


def construct_graph(
    g: int, f: int, n: int, *, seed: int = 0, budget_ms: int = 60000
) -> CombinatorialMap:
    """A simple connected map with n vertices, f faces and the given genus.

    Starts from a complete-graph embedding on the fewest possible vertices,
    deletes edges down to the face target, and subdivides up to the vertex
    target.
    """
    if g < 2 or not 1 <= f <= 4 * g - 4:
        raise BoundViolation("face count %d outside 1..%d" % (f, max(4 * g - 4, 0)))
    n_base = point_bound(g, f)
    if n < n_base:
        raise BoundViolation(
            "need at least %d vertices for genus %d with %d faces, got %d"
            % (n_base, g, f, n)
        )
    m = embed_complete(n_base, g, seed=seed, budget_ms=budget_ms)
    while _face_count(m.sigma) > f:
        m = delete_edge_preserving(m)
    while len(m.vertices()) < n:
        m = subdivide_edge(m, 0)
    return m


def _face_edge_adjacency(m: CombinatorialMap) -> tuple[int, list[set[int]]]:
    faces = trace_faces(m)
    adj: list[set[int]] = [set() for _ in faces]
    for idx, cyc in enumerate(faces):
        for d in cyc:
            adj[idx].add(d // 2)
    return len(faces), adj


def _matching_fallback(n_faces: int, adj: list[set[int]]) -> dict[int, int]:
    # augmenting-path matching of faces into adjacent edges
    matched_edge_of: dict[int, int] = {}
    edge_owner: dict[int, int] = {}

    def augment(face: int, banned: set[int]) -> bool:
        for e in sorted(adj[face]):
            if e in banned:
                continue
            banned.add(e)
            if e not in edge_owner or augment(edge_owner[e], banned):
                edge_owner[e] = face
                matched_edge_of[face] = e
                return True
        return False

    for face in range(n_faces):
        if not augment(face, set()):
            raise TooManyFaces("no face-to-edge assignment exists")
    return matched_edge_of


def assign_face_pairs(m: CombinatorialMap) -> dict[int, tuple[int, int]]:
    """Assign each face a distinct adjacent edge, reported as a vertex pair.

    Walks face to face across the chosen edges, restarting when the walk
    closes; falls back to augmenting paths should the walk ever stall.
    """
    report = m.report()
    if report.genus != 0:
        raise PreconditionUnmet("face-pair assignment needs a planar map")
    if not report.simple:
        raise NotSimple("face-pair assignment needs a simple map")
    n_faces, adj = _face_edge_adjacency(m)
    if n_faces > 1 and n_faces > 2 * report.V - 4:
        raise TooManyFaces(
            "%d faces exceed the planar bound %d" % (n_faces, 2 * report.V - 4)
        )
    faces = trace_faces(m)
    face_of: dict[int, int] = {}
    for idx, cyc in enumerate(faces):
        for d in cyc:
            face_of[d] = idx

    assigned: dict[int, int] = {}
    used: set[int] = set()
    unassigned = set(range(n_faces))
    stalled = False
    while unassigned and not stalled:
        cur = min(unassigned)
        while True:
            avail = sorted(e for e in adj[cur] if e not in used)
            if not avail:
                stalled = True
                break
            e = avail[0]
            assigned[cur] = e
            used.add(e)
            unassigned.discard(cur)
            other = face_of[2 * e] if face_of[2 * e] != cur else face_of[2 * e + 1]
            if other in unassigned:
                cur = other
            else:
                break
    if stalled:
        assigned = _matching_fallback(n_faces, adj)

    owner = m.vertex_of()
    return {
        face: tuple(sorted((owner[2 * e], owner[2 * e + 1])))
        for face, e in assigned.items()
    }


def copeland_generators(m: CombinatorialMap) -> list[braids.BraidWord]:
    """One exchange generator per edge, vertices numbered as marked points.

    The vertices become equal-weight marked points on the punctured surface
    (one puncture per face); every returned single-letter word lies in the
    kernel of the weighted homology map.
    """
    if not m.is_simple():
        raise NotSimple("generator extraction needs a loopless simple map")
    report = m.report()
    surface = braids.MarkedSurface(
        genus=report.genus, weights=(1,) * report.V, punctures=report.F
    )
    words = []
    for u, v in sorted(tuple(sorted(uv)) for uv in m.edges()):
        words.append(braids.BraidWord(surface, (braids.sigma(u + 1, v + 1),)))
    return words
