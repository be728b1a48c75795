"""Rotation-system encodings of graphs embedded on oriented surfaces.

Darts are numbered 0..2E-1 with darts 2i and 2i+1 the two halves of edge i,
so the edge involution is "xor 1" and never stored.  A map is determined by
the vertex rotation alone; faces are the orbits of sigma∘alpha, and the genus
falls out of the Euler count.  Every view of a map is read from one orbit
walker, which returns a permutation's canonical cycles and, per dart, the
index of its cycle: vertex cycles and owners, the edge list, face cycles and
face labels.  A call that needs several views (the report, the face pairs,
the exchange generators) walks the vertex orbits once and the face orbits
once.  On top of the raw encoding the module builds complete-graph
embeddings of prescribed genus, walks them down to a target face count,
subdivides up to a target vertex count, and reads off the exchange
generators living on the edges.  Every such edit is an in-place
move on one rotation list (one dart cycle per vertex), and each public call
builds and validates one map, from its final rotation.  Faces are traced
once per build, into one label per dart; a move then merges the labels it
changes, since deleting or inserting an edge across two different faces
merges those two and leaves every other face as it was.

Complete-graph embeddings take one deterministic path: a minimum-genus
rotation of K_n from a table (Ringel, Map Color Theorem, 1974), then one
raise move per unit of genus above it.  A raise move deletes an edge whose
sides lie on two faces and re-inserts it between corners of its endpoints on
two different faces, so the face count drops by two and the genus rises by
one on the same graph (Duke's interpolation theorem made constructive, Canad.
J. Math. 18, 1966; the face rule is Gross & Tucker, Topological Graph Theory).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

from ._frozen import Frozen, set_field
from .criteria import point_bound
from .errors import (
    BoundViolation,
    IndexOutOfRange,
    InvalidSpec,
    NoRemovableEdge,
    NotSimple,
    OutOfRange,
    PreconditionUnmet,
)

if TYPE_CHECKING:
    from . import braids


def _orbits(perm: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The cycles of perm, each from its least element and in the order of
    those elements, and per element the index of its cycle: one walk."""
    owner = [-1] * len(perm)
    cycles: list[list[int]] = []
    for start in range(len(perm)):
        if owner[start] >= 0:
            continue
        k = len(cycles)
        cyc = [start]
        owner[start] = k
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            owner[cur] = k
            cur = perm[cur]
        cycles.append(cyc)
    return cycles, owner


def _faces(sigma: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    # the orbits of sigma∘alpha, alpha being "xor 1"
    return _orbits([sigma[d ^ 1] for d in range(len(sigma))])


def _edges(owner: list[int]) -> list[tuple[int, int]]:
    # the endpoints of each edge, from the vertex that holds each of its darts
    return list(zip(owner[::2], owner[1::2]))


def _is_simple(edges: list[tuple[int, int]]) -> bool:
    pairs = [tuple(sorted(uv)) for uv in edges]
    return all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)


def _sigma_of(cycles: list[list[int]], n_darts: int) -> list[int]:
    # vertex rotation from its cycles, each listing the darts at one vertex
    sigma = [0] * n_darts
    for cyc in cycles:
        for pos, d in enumerate(cyc):
            sigma[d] = cyc[(pos + 1) % len(cyc)]
    return sigma


class CombinatorialMap(Frozen):
    """Connected graph 2-cell embedded on an oriented surface."""

    __slots__ = ("sigma",)
    sigma: tuple[int, ...]

    def __init__(self, sigma: Sequence[int]):
        sigma = tuple(sigma)
        set_field(self, "sigma", sigma)
        n = len(sigma)
        if n == 0 or n % 2:
            raise InvalidSpec("a map needs a positive even number of darts")
        if sorted(sigma) != list(range(n)):
            raise InvalidSpec("vertex rotation is not a permutation of the darts")
        # connectivity: the group generated by sigma and alpha acts transitively
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            d = stack.pop()
            for nxt in (sigma[d], d ^ 1):
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

    def vertices(self) -> list[list[int]]:
        return _orbits(self.sigma)[0]

    def vertex_of(self) -> dict[int, int]:
        return dict(enumerate(_orbits(self.sigma)[1]))

    def edges(self) -> list[tuple[int, int]]:
        return _edges(_orbits(self.sigma)[1])

    def is_simple(self) -> bool:
        return _is_simple(self.edges())

    def report(self) -> "EmbeddedGraphReport":
        return _survey(self)[0]

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


class EmbeddedGraphReport(Frozen):
    __slots__ = ("V", "E", "F", "genus", "simple")
    V: int
    E: int
    F: int
    genus: int
    simple: bool

    def __init__(self, V: int, E: int, F: int, genus: int, simple: bool):
        set_field(self, "V", V)
        set_field(self, "E", E)
        set_field(self, "F", F)
        set_field(self, "genus", genus)
        set_field(self, "simple", simple)

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
    """Face cycles of the map: orbits of sigma∘alpha, each from its least dart."""
    return _faces(m.sigma)[0]


def _survey(
    m: CombinatorialMap,
) -> tuple[EmbeddedGraphReport, list[tuple[int, int]], list[list[int]], list[int]]:
    # the report, edge list, face cycles and face labels of m, from one walk
    # of the vertex orbits and one of the face orbits
    vertices, owner = _orbits(m.sigma)
    edges = _edges(owner)
    faces, face_of = _faces(m.sigma)
    simple = _is_simple(edges)
    report = EmbeddedGraphReport.from_counts(len(vertices), m.n_edges, len(faces), simple)
    return report, edges, faces, face_of


def build_map(
    n_vertices: int,
    edges: list[tuple[int, int]],
    rotations: list[list[int]] | None = None,
) -> CombinatorialMap:
    """Assemble a map from an edge list and per-vertex neighbor orders.

    Edge e = (u, v) has dart 2e at u and dart 2e + 1 at v.  ``rotations[v]``
    lists the darts at v in cyclic order, and must hold exactly the darts the
    edge list puts there; when omitted, darts sit in edge-index order.
    """
    darts_at: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise NotSimple("loops are not representable with distinct endpoints")
        darts_at[u].append(2 * e)
        darts_at[v].append(2 * e + 1)
    if rotations is not None:
        try:
            listed = [sorted(r) for r in rotations]
        except TypeError:  # a rotation that is not a list, or that mixes types
            listed = None
        # type() rather than isinstance: a bool is an int, and a float can equal one
        if listed != darts_at or any(type(d) is not int for r in rotations for d in r):
            raise InvalidSpec("rotations must list exactly the darts at each vertex")
        darts_at = rotations
    if not all(darts_at):
        raise InvalidSpec("isolated vertex in map construction")
    return CombinatorialMap(tuple(_sigma_of(darts_at, 2 * len(edges))))


def complete_graph_genus_range(n: int) -> tuple[int, int]:
    """Minimum and maximum genus of the complete graph on n vertices.

    The minimum is the Ringel-Youngs ceil((n-3)(n-4)/12); the maximum is
    floor((n-1)(n-2)/4), the largest genus that leaves at least one face.
    """
    if n < 3:
        raise OutOfRange("need n >= 3, got %d" % n)
    gamma = -(-((n - 3) * (n - 4)) // 12)
    gamma_max = (n - 1) * (n - 2) // 4
    return gamma, gamma_max


def _kn_edges(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _kn_rotation(n: int, neighbor_orders) -> list[list[int]]:
    # the dart cycle at each vertex, edges of K_n numbered as in _kn_edges
    dart_of: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(_kn_edges(n)):
        dart_of[(u, v)] = 2 * e
        dart_of[(v, u)] = 2 * e + 1
    return [[dart_of[(v, u)] for u in order] for v, order in enumerate(neighbor_orders)]


def _restrict(neighbor_orders, n: int) -> tuple[tuple[int, ...], ...]:
    # the rotation K_n inherits from a larger complete graph's
    return tuple(tuple(u for u in order if u < n) for order in neighbor_orders[:n])


# minimum-genus neighbor orders of K_n keyed by n.  K_4 is planar and K_3 its
# restriction; K_7 is Heawood's cyclic torus triangulation (Ringel, Map Color
# Theorem, 1974), and its restrictions to K_5 and K_6 stay 2-cell on the
# torus; K_8 at genus 2 (18 faces) was found once by annealing on the face
# count.  Each entry's genus is checked by tracing faces in the tests
_K4_PLANAR = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
_K7_HEAWOOD = tuple(tuple((v + d) % 7 for d in (1, 3, 2, 6, 4, 5)) for v in range(7))
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
_MIN_GENUS_ROTATIONS = {
    3: _restrict(_K4_PLANAR, 3),
    4: _K4_PLANAR,
    5: _restrict(_K7_HEAWOOD, 5),
    6: _restrict(_K7_HEAWOOD, 6),
    7: _K7_HEAWOOD,
    8: _K8_GENUS2_ROTATION,
}

# the table above is the cap; minimum-genus starts for K_9 and up (or a
# genus-lowering move in construct_graph) would raise it
MAX_COMPLETE_VERTICES = max(_MIN_GENUS_ROTATIONS)


def _face_labels(rot: list[list[int]], n_darts: int) -> list[int]:
    # label[d] names the face holding dart d: its index among the face cycles
    return _faces(_sigma_of(rot, n_darts))[1]


def _merged(label: list[int], a: int, b: int) -> list[int]:
    # the labels after faces a and b become one face, named a
    return [a if f == b else f for f in label]


def _raise_genus(rot: list[list[int]], label: list[int]) -> None:
    """One raise move on the rotation and its face labels: F - 2, genus + 1.

    Lifts out the lowest-index edge whose two darts lie on different faces,
    which merges those faces (F - 1, same genus), and re-inserts it at the
    first corner pair (ra, rb) of its endpoints whose faces differ, which
    merges two faces through a handle (F - 1, genus + 1).  No other face
    changes, so both steps merge labels.  The corner after dart d lies on
    the face of sigma(d).  Every dart keeps its edge and endpoints, so the
    graph, and its simplicity, are unchanged.  An edge with no such corner
    pair is skipped, and rot is edited only once the pair is found.
    """
    for e in range(len(label) // 2):
        du, dv = 2 * e, 2 * e + 1
        if label[du] == label[dv]:
            continue
        lifted = _merged(label, label[du], label[dv])
        cu = next(cyc for cyc in rot if du in cyc)
        cv = next(cyc for cyc in rot if dv in cyc)
        ru = [d for d in cu if d != du]
        rv = [d for d in cv if d != dv]
        faces_u = [lifted[d] for d in ru[1:] + ru[:1]]
        faces_v = [lifted[d] for d in rv[1:] + rv[:1]]
        for ra, fu in enumerate(faces_u):
            for rb, fv in enumerate(faces_v):
                if fu != fv:
                    cu[:] = ru[: ra + 1] + [du] + ru[ra + 1 :]
                    cv[:] = rv[: rb + 1] + [dv] + rv[rb + 1 :]
                    label[:] = _merged(lifted, fu, fv)
                    label[du] = label[dv] = fu
                    return
    raise OutOfRange("no edge admits a raise move on this map")


def _complete_rotation(n: int, g: int) -> tuple[list[list[int]], list[int]]:
    # the tabled minimum-genus rotation of K_n raised to genus g, and its face labels
    if n < 3 or n > MAX_COMPLETE_VERTICES:
        raise OutOfRange("complete-graph embedding supports 3 <= n <= %d" % MAX_COMPLETE_VERTICES)
    gamma, gamma_max = complete_graph_genus_range(n)
    if not gamma <= g <= gamma_max:
        raise OutOfRange(
            "genus %d outside the embeddable range [%d, %d] for K_%d"
            % (g, gamma, gamma_max, n)
        )
    rot = _kn_rotation(n, _MIN_GENUS_ROTATIONS[n])
    label = _face_labels(rot, n * (n - 1))
    for _ in range(g - gamma):
        _raise_genus(rot, label)
    return rot, label


def embed_complete(n: int, g: int, *, seed: int = 0) -> CombinatorialMap:
    """A rotation system for the complete graph K_n with the requested genus.

    Covers 3 <= n <= MAX_COMPLETE_VERTICES and every genus in
    complete_graph_genus_range(n): the tabled minimum-genus rotation of K_n,
    then one raise move per unit of genus above the minimum.  The result is
    deterministic; ``seed`` is accepted for compatibility and ignored.
    """
    rot, label = _complete_rotation(n, g)
    return CombinatorialMap(_sigma_of(rot, len(label)))


def _delete_edge(rot: list[list[int]], label: list[int]) -> None:
    """Delete one edge from the rotation and its face labels: F - 1, same genus.

    Drops the lowest-index edge whose two darts lie on different faces and
    renumbers the darts above it down by two.  Such an edge is never a
    bridge, so its two faces merge into one disk and no other face changes;
    deleting the edge's two labels renumbers the rest.
    """
    e = next((e for e in range(len(label) // 2) if label[2 * e] != label[2 * e + 1]), None)
    if e is None:
        raise NoRemovableEdge("map has a single face; nothing can be removed")
    label[:] = _merged(label, label[2 * e], label[2 * e + 1])
    del label[2 * e : 2 * e + 2]
    for cyc in rot:
        cyc[:] = [d - 2 if d > 2 * e + 1 else d for d in cyc if d // 2 != e]
        if not cyc:
            raise NoRemovableEdge("removing edge %d would isolate a vertex" % e)


def delete_edge_preserving(m: CombinatorialMap) -> CombinatorialMap:
    """Remove the lowest-index edge bordering two distinct faces.

    Such an edge is never a bridge, so the two faces merge into one disk:
    the result is again 2-cell with one face fewer and the same genus.
    """
    rot = m.vertices()
    label = _faces(m.sigma)[1]
    _delete_edge(rot, label)
    return CombinatorialMap(_sigma_of(rot, len(label)))


def _subdivide_edge(rot: list[list[int]], n_darts: int, e: int) -> None:
    """Subdivide edge e of the rotation, in place: V + 1, E + 1, same faces.

    Dart 2e+1 moves to a new degree-2 vertex beside the new dart n_darts,
    and its old slot takes the new edge's other dart n_darts + 1.  Vertices
    are searched newest first: after a subdivision of e, dart 2e+1 sits at
    the vertex that subdivision added.
    """
    d = 2 * e + 1
    cyc = next(cyc for cyc in reversed(rot) if d in cyc)
    cyc[cyc.index(d)] = n_darts + 1
    rot.append([d, n_darts])


def subdivide_edge(m: CombinatorialMap, e: int) -> CombinatorialMap:
    """Place a new degree-2 vertex in the middle of edge e.

    Vertex and edge counts grow by one; faces and genus are untouched.
    """
    if not 0 <= e < m.n_edges:
        raise IndexOutOfRange("edge index %d out of range" % e)
    rot = m.vertices()
    _subdivide_edge(rot, m.n_darts, e)
    return CombinatorialMap(_sigma_of(rot, m.n_darts + 2))


def construct_graph(g: int, f: int, n: int, *, seed: int = 0) -> CombinatorialMap:
    """A simple connected map with n vertices, f faces and the given genus.

    Every step edits one rotation in place: the minimum-genus rotation of
    K_n on the fewest possible vertices, raise moves up to genus g, edge
    deletions down to f faces, and subdivisions of edge 0 up to n vertices.
    The map is built once, from the final rotation.  The result is
    deterministic; ``seed`` is accepted for compatibility and ignored.
    """
    if g < 2 or not 1 <= f <= 4 * g - 4:
        raise BoundViolation("face count %d outside 1..%d" % (f, max(4 * g - 4, 0)))
    n_base = point_bound(g, f)
    if n < n_base:
        raise BoundViolation(
            "need at least %d vertices for genus %d with %d faces, got %d"
            % (n_base, g, f, n)
        )
    rot, label = _complete_rotation(n_base, g)
    # K_n at genus g has E - n + 2 - 2g faces (Euler); a deletion merges two faces
    for _ in range(len(label) // 2 - n_base + 2 - 2 * g - f):
        _delete_edge(rot, label)
    n_darts = len(label)
    for _ in range(n - n_base):
        _subdivide_edge(rot, n_darts, 0)
        n_darts += 2
    return CombinatorialMap(_sigma_of(rot, n_darts))


def assign_face_pairs(m: CombinatorialMap) -> dict[int, tuple[int, int]]:
    """Assign each face a distinct adjacent edge, reported as a vertex pair.

    Walks face to face across the chosen edges, restarting when the walk
    closes.
    """
    report, edges, faces, face_of = _survey(m)
    if report.genus != 0:
        raise PreconditionUnmet("face-pair assignment needs a planar map")
    if not report.simple:
        raise NotSimple("face-pair assignment needs a simple map")
    # no face-count check: a simple planar map has F <= 2V - 4 for V >= 3 (Euler)
    adj = [{d // 2 for d in cyc} for cyc in faces]

    # The walk never stalls.  An edge is used only by a face that then
    # crosses it, and the walk enters the face on its other side at once if
    # that face is unassigned; so a face is first current with at most one
    # used edge on its boundary.  In a simple map every face boundary has at
    # least two distinct edges unless the map is the single edge K_2, whose
    # one face is current with none used.
    assigned: dict[int, int] = {}
    used: set[int] = set()
    unassigned = set(range(len(faces)))
    while unassigned:
        cur = min(unassigned)
        while True:
            e = min(e for e in adj[cur] if e not in used)
            assigned[cur] = e
            used.add(e)
            unassigned.discard(cur)
            other = face_of[2 * e] if face_of[2 * e] != cur else face_of[2 * e + 1]
            if other in unassigned:
                cur = other
            else:
                break
    return {face: tuple(sorted(edges[e])) for face, e in assigned.items()}


def copeland_generators(m: CombinatorialMap) -> list[braids.BraidWord]:
    """One exchange generator per edge, vertices numbered as marked points.

    The vertices become equal-weight marked points on the punctured surface
    (one puncture per face); every returned single-letter word lies in the
    kernel of the weighted homology map.
    """
    from . import braids

    report, edges, _, _ = _survey(m)
    if not report.simple:
        raise NotSimple("generator extraction needs a loopless simple map")
    surface = braids.MarkedSurface(
        genus=report.genus, weights=(1,) * report.V, punctures=report.F
    )
    pairs = sorted(tuple(sorted(uv)) for uv in edges)
    return [braids.BraidWord(surface, (braids.sigma(u + 1, v + 1),)) for u, v in pairs]
