"""cli-oneshot: one ``python -m strata.cli`` process at a time, in a closed loop.

Interpreter start, ``import strata.cli``, argument parsing and JSON output
dominate; the library does little.  It is the only workload where import-time
work shows.  Each round runs every subcommand five times on small seeded
inputs; the file inputs are written during set-up.  Every run must exit 0
and print exactly one JSON envelope with status ``ok``, and its payload must
match a computation made apart from the package.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
from harness import Op, random_signature
from workloads.kernel_factorize import SURFACES, kernel_word

IN_PROCESS = False
ROUND_SECONDS = 5.0
SUBCOMMANDS = ("info", "check", "cover", "dmin", "poset", "graph", "copeland", "aj", "factorize")
PER_ROUND = 5  # runs of each subcommand per round
PROBES = 9  # bare-interpreter and import runs in the traced run
TIMEOUT_S = 60

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + argv, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return _spawn(["-m", "strata.cli"] + args)


def bare_start() -> None:
    """The calibration probe: a bare interpreter start.  The start-up of a
    child process does not follow the in-process probe; this one does."""
    if _spawn(["-c", "pass"]).returncode != 0:
        raise RuntimeError("the bare interpreter failed")


CALIBRATION = (bare_start, 50.0, 0.5)  # reference ms: near its median where written


def _payload(proc):
    """The payload of a successful run, or None when the contract is broken."""
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 1:
        return None
    doc = json.loads(lines[0])
    if set(doc) != {"status", "payload", "diagnostics"} or doc["status"] != "ok":
        return None
    return doc["payload"]


def _run_ok(proc, ok) -> bool:
    payload = _payload(proc)
    return payload is not None and ok(payload)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _signature(rng, g: int, poles: int) -> tuple[int, ...]:
    return random_signature(rng, g, poles, poles + rng.randint(1, min(4 * g - 4 + poles, 5)))


# --- one generator and one check per subcommand ------------------------------


def _info(rng, workdir, k):
    g = rng.randint(2, 5)
    orders = _signature(rng, g, rng.randint(0, 2))

    def ok(p):
        empty = (g, orders) in oracles.EMPTY
        return (
            p["genus"] == g
            and tuple(p["orders"]) == orders
            and p["empty"] == empty
            and (p["components"] == 0 if empty else p["components"] in (1, 2))
            and (empty or p["dimension"] == 2 * g - 2 + len(orders))
        )

    return ["info", "--genus", str(g), "--orders=" + _csv(orders)], ok


def _check(rng, workdir, k):
    g, m, poles = rng.randint(2, 4), rng.randint(1, 2), rng.randint(0, 2)
    ones = 4 * g - 4 - 4 * m + poles  # simple zeros beside the even pair (2m, 2m)
    if ones < 1:
        m, ones = 0, 4 * g - 4 + poles
    orders = oracles.desc([1] * ones + [2 * m] * (2 if m else 0) + [-1] * poles)

    def ok(p):
        return (
            tuple(p["orders"]) == orders
            and p["criterion"] == "main"
            and p["satisfied"] == oracles.main_theorem(g, orders)
        )

    return ["check", "--genus", str(g), "--orders=" + _csv(orders), "--criterion", "main"], ok


def _cover(rng, workdir, k):
    g = rng.randint(1, 3)
    zeros = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
    base = oracles.desc(zeros + [-1] * (4 + sum(zeros)))
    while len(base) < 2 * g + 2:
        base = oracles.desc(list(base) + [1, -1])  # one more zero and pole, sum kept
    ramified = set(rng.sample(range(len(base)), 2 * g + 2))
    cover = oracles.cover_orders(base, ramified)

    def ok(p):
        return (
            p["stratum"] == {"genus": g, "orders": list(cover)}
            and p["maybe_abelian"] == all(x % 2 == 0 for x in cover)
        )

    return [
        "cover", "--base-orders=" + _csv(base), "--ramify", _csv(sorted(ramified)),
        "--target-genus", str(g),
    ], ok


def _dmin(rng, workdir, k):
    weights = [rng.randint(1, 12) for _ in range(rng.randint(2, 5))]
    index = rng.randrange(len(weights))
    d = oracles.dmin(weights, index)

    def ok(p):
        c = p["coeffs"]
        return (
            p["d"] == d
            and c[index] == d
            and len(c) == len(weights)
            and sum(x * w for x, w in zip(c, weights)) == 0
        )

    return ["dmin", "--weights", _csv(weights), "--index", str(index)], ok


def _poset(rng, workdir, k):
    g = rng.randint(2, 3)
    root = _signature(rng, g, rng.randint(0, 1))
    depth = rng.randint(1, 2)
    nodes, edges, frontier = {root}, [], [root]
    for _ in range(depth):
        fresh = []
        for s in frontier:
            for t in oracles.one_split_successors(s):
                edges.append((s, t))
                if t not in nodes:
                    nodes.add(t)
                    fresh.append(t)
        frontier = fresh

    def ok(p):
        got = sorted((tuple(e["from"]), tuple(e["to"])) for e in p["edges"])
        return sorted(tuple(x) for x in p["nodes"]) == sorted(nodes) and got == sorted(edges)

    return ["poset", "--genus", str(g), "--root=" + _csv(root), "--depth", str(depth)], ok


def _graph(rng, workdir, k):
    g = rng.randint(2, 3)
    f = rng.choice([f for f in (1, 2 * g, 4 * g - 4) if oracles.point_bound(g, f) <= 8])
    n = oracles.point_bound(g, f) + rng.randint(0, 2)
    seed = rng.randrange(1000)

    def ok(p):
        m = p["map"]
        c = oracles.map_counts(oracles.sigma_from_cycles(m["darts"], m["sigma"]))
        return (c["V"], c["F"], c["genus"], c["simple"]) == (n, f, g, True)

    return [
        "graph", "--genus", str(g), "--faces", str(f), "--vertices", str(n), "--seed", str(seed),
    ], ok


def _random_map(rng, V: int):
    """A connected simple graph on V vertices with a random rotation at each."""
    edges = [(rng.randrange(v), v) for v in range(1, V)]
    extra = [(u, v) for u in range(V) for v in range(u + 1, V) if (u, v) not in edges]
    edges += rng.sample(extra, rng.randint(0, len(extra) // 2))
    at = [[] for _ in range(V)]
    for e, (u, v) in enumerate(edges):
        at[u].append(2 * e)
        at[v].append(2 * e + 1)
    for darts in at:
        rng.shuffle(darts)
    return {"darts": 2 * len(edges), "sigma": at, "alpha_convention": "pairs"}


def _copeland(rng, workdir, k):
    doc = _random_map(rng, rng.randint(4, 7))
    path = workdir / ("map-%d.json" % k)
    path.write_text(json.dumps(doc))
    c = oracles.map_counts(oracles.sigma_from_cycles(doc["darts"], doc["sigma"]))
    want = [["sigma", u + 1, v + 1] for u, v in c["edges"]]
    surface = {"genus": c["genus"], "weights": [1] * c["V"], "punctures": c["F"], "stratum_mode": False}

    def ok(p):
        gens = p["generators"]
        got = sorted([lt["kind"], lt["i"], lt["j"]] for w in gens for lt in w["letters"])
        return (
            len(gens) == len(want)
            and got == want
            and all(w["surface"] == surface and len(w["letters"]) == 1 for w in gens)
        )

    return ["copeland", "--map", str(path)], ok


def _word_doc(genus, weights, letters) -> dict:
    second = {"rho": "r", "sigma": "j", "kappa": "j"}
    return {
        "surface": {"genus": genus, "weights": list(weights), "punctures": 0, "stratum_mode": True},
        "letters": [{"kind": t, "i": i, second[t]: s, "exp": e} for t, i, s, e in letters],
    }


def _aj(rng, workdir, k):
    genus, weights = rng.choice(SURFACES)
    letters = kernel_word(rng, genus, weights, rng.randint(20, 60))
    letters = letters[: rng.randint(1, len(letters))]  # a prefix, often outside the kernel
    path = workdir / ("aj-%d.json" % k)
    path.write_text(json.dumps(_word_doc(genus, weights, letters)))
    vector = oracles.homology(genus, weights, letters)
    perm = list(oracles.permutation(len(weights), letters))

    def ok(p):
        return p == {"vector": vector, "in_kernel": not any(vector), "permutation": perm}

    return ["aj", "--word", str(path)], ok


def _factorize(rng, workdir, k):
    genus, weights = rng.choice(SURFACES)
    letters = kernel_word(rng, genus, weights, rng.randint(20, 60))
    path = workdir / ("factorize-%d.json" % k)
    path.write_text(json.dumps(_word_doc(genus, weights, letters)))
    second = {"rho": "r", "sigma": "j", "kappa": "j", "kappa_puncture": "l"}

    def ok(p):
        factors = [
            (f["tag"], f["param"], [(lt["kind"], lt["i"], lt[second[lt["kind"]]], lt["exp"]) for lt in f["letters"]])
            for f in p["factors"]
        ]
        return (
            oracles.factors_ok(genus, weights, letters, factors)
            and p["counts"] == dict(Counter(f[0] for f in factors))
            and p["permutation_match"] is True
            and p["aj_zero"] is True
        )

    return ["factorize", "--word", str(path)], ok


MAKERS = {
    "info": _info, "check": _check, "cover": _cover, "dmin": _dmin, "poset": _poset,
    "graph": _graph, "copeland": _copeland, "aj": _aj, "factorize": _factorize,
}


def setup(lib, seed: int, rounds: int, workdir) -> list[Op]:
    rng = random.Random("cli-oneshot:%d" % seed)
    inputs = Path(workdir) / "cli-inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    specs = []
    for k in range(rounds * PER_ROUND):
        for sub in SUBCOMMANDS:
            specs.append((sub,) + MAKERS[sub](rng, inputs, k))
    rng.shuffle(specs)
    # one untimed run, so that bytecode caches exist before timing starts
    if _payload(_cli(["info", "--genus", "2", "--orders", "2,2"])) is None:
        raise RuntimeError("warm-up run of the CLI failed")
    return [
        Op(sub, lambda argv=argv: _cli(argv), lambda proc, ok=ok: _run_ok(proc, ok))
        for sub, argv, ok in specs
    ]


def trace(lib, rec) -> None:
    """The children are not traced inside; each run is one "op" span."""


def layer_metrics(rec) -> dict[str, float]:
    out = {"cli.%s_p50_ms" % sub: rec.p50_ms("op", lambda tag: tag == sub) for sub in SUBCOMMANDS}
    bare, imported = [], []
    for _ in range(PROBES):
        for argv, into in ((["-c", "pass"], bare), (["-c", "import strata.cli"], imported)):
            start = time.perf_counter()
            if _spawn(argv).returncode != 0:
                raise RuntimeError("probe %r failed" % (argv,))
            into.append((time.perf_counter() - start) * 1e3)
    out["cli.interpreter_ms"] = statistics.median(bare)
    out["cli.import_ms"] = statistics.median(imported) - statistics.median(bare)
    return out
