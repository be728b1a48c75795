"""graph-embed: complete-graph embeddings and graph construction.

Two kinds of work, grouped into three operations per seed so that every
operation does milliseconds of work rather than microseconds, and so that
the median and the tail each fall inside one group:

- sweep: ``embed_complete(n, g, seed)`` for every achievable genus g of K_n,
  once for n = 6 and 7 together (label ``K6-7``) and once for n = 8 (``K8``);
- ladder: for every g in 2..10 and each f in {1, 2g, 4g-4} whose point
  bound is at most 8, ``construct_graph(g, f, n, seed)`` and then
  ``copeland_generators``, with n a seeded 0-2 vertices above the bound.

``graphs`` does the work, split between the complete-graph search and the
path that deletes edges and subdivides; ``adjacency`` is not touched.  Every
map is checked from its rotation alone: faces are counted as orbits of
sigma after alpha, and the Euler count must give the requested genus.
"""

from __future__ import annotations

import random

import oracles
from harness import PYTHON_PROBE, Op

IN_PROCESS = True
CALIBRATION = PYTHON_PROBE
ROUND_SECONDS = 2.6
SEEDS_PER_ROUND = 14
SWEEPS = ((6, 7), (8,))
COMPLETE = (6, 7, 8)
MAX_VERTICES = 8  # the largest complete graph the package embeds
LADDER_GENERA = tuple(
    g for g in range(2, 64) if oracles.point_bound(g, 1) <= MAX_VERTICES
)


def achievable_genera(n: int) -> range:
    """Ringel-Youngs minimum to the maximum genus of K_n (one face at most)."""
    return range(-(-((n - 3) * (n - 4)) // 12), (n - 1) * (n - 2) // 4 + 1)


def ladder_faces(g: int) -> list[int]:
    return [f for f in sorted({1, 2 * g, 4 * g - 4}) if oracles.point_bound(g, f) <= MAX_VERTICES]


def _map_ok(m, V: int, F: int, genus: int) -> bool:
    c = oracles.map_counts(m.sigma)
    return c["V"] == V and c["F"] == F and c["genus"] == genus and c["simple"]


def _sweep_ok(n: int, maps) -> bool:
    E = n * (n - 1) // 2
    genera = achievable_genera(n)
    return len(maps) == len(genera) and all(
        len(m.sigma) == 2 * E and _map_ok(m, n, E - n + 2 - 2 * g, g)
        for g, m in zip(genera, maps)
    )


def _ladder_ok(steps) -> bool:
    for g, f, n, m, gens in steps:
        if not _map_ok(m, n, f, g):
            return False
        edges = oracles.map_counts(m.sigma)["edges"]
        letters = sorted(
            (lt.kind, lt.i, lt.second) for w in gens for lt in w.letters
        )
        if len(gens) != len(edges) or any(len(w.letters) != 1 for w in gens):
            return False
        if letters != [("sigma", u + 1, v + 1) for u, v in edges]:
            return False
    return True


def setup(lib, seed: int, rounds: int, workdir) -> list[Op]:
    rng = random.Random("graph-embed:%d" % seed)
    graphs = lib.graphs  # attribute looked up per call, so tracing wrappers apply

    def sweep(ns, s):
        return [[graphs.embed_complete(n, g, seed=s) for g in achievable_genera(n)] for n in ns]

    def ladder(plan, s):
        steps = []
        for g, f, n in plan:
            m = graphs.construct_graph(g, f, n, seed=s)
            steps.append((g, f, n, m, graphs.copeland_generators(m)))
        return steps

    ops = []
    for _ in range(rounds * SEEDS_PER_ROUND):
        s = rng.randrange(1 << 30)
        for ns in SWEEPS:
            ops.append(
                Op(
                    "K" + "-".join(map(str, ns)),
                    lambda ns=ns, s=s: sweep(ns, s),
                    lambda out, ns=ns: len(out) == len(ns) and all(map(_sweep_ok, ns, out)),
                )
            )
        plan = [
            (g, f, oracles.point_bound(g, f) + rng.randint(0, 2))
            for g in LADDER_GENERA
            for f in ladder_faces(g)
        ]
        ops.append(Op("ladder", lambda plan=plan, s=s: ladder(plan, s), _ladder_ok))
    rng.shuffle(ops)
    return ops


def trace(lib, rec) -> None:
    rec.wrap(lib.graphs, "embed_complete", "graphs.embed_complete", tag_of=lambda n, g, **kw: "K%d" % n)
    rec.wrap(lib.graphs, "construct_graph", "graphs.construct_graph")
    rec.wrap(lib.graphs, "delete_edge_preserving", "graphs.delete_edge_preserving")
    rec.wrap(lib.graphs, "copeland_generators", "graphs.copeland_generators")


def layer_metrics(rec) -> dict[str, float]:
    out = {}
    for n in COMPLETE:
        out["graphs.embed_complete.K%d_p50_ms" % n] = rec.p50_ms(
            "graphs.embed_complete", lambda tag: tag == "K%d" % n
        )
    out["graphs.embed_complete.max_ms"] = max(rec.durations_ms("graphs.embed_complete"), default=0.0)
    out["graphs.construct_graph.self_ms"] = rec.self_ms("graphs.construct_graph")
    out["graphs.delete_edge_preserving.calls"] = rec.calls("graphs.delete_edge_preserving")
    out["graphs.copeland_generators.self_ms"] = rec.self_ms("graphs.copeland_generators")
    return out
