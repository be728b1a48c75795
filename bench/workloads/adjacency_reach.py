"""adjacency-reach: ``is_adjacent`` on seeded (higher, lower) signature pairs.

The breadth-first search in ``strata.adjacency`` does nearly all the work,
and no other workload calls ``is_adjacent``, so a faster reachability test
shows here and nowhere else.  The answer to every pair is known from how
the pair was built:

- chain: ``higher`` is ``lower`` after 1-3 legal splits, so it is reachable;
- pole: ``higher`` has no pole and ``lower`` = ``(4g-3, -1)`` has one;
  splits never remove a pole, so it is unreachable;
- gap: ``higher`` has one entry more than ``lower`` and is not a two-part
  split of one of its entries (listed by ``oracles.legal_splits``), so it
  is unreachable;
- rung: the fixed ladder ``(1)^(4g-4)`` against ``(4g-4)`` for g = 3-5
  (reachable) and ``(1)^12`` against ``(14,-1,-1)`` (fewer poles), once per
  run, about 3.5 s together.
"""

from __future__ import annotations

import random

import oracles
from harness import PYTHON_PROBE, Op, random_signature

IN_PROCESS = True
CALIBRATION = PYTHON_PROBE
ROUND_SECONDS = 0.95
GENERA = (3, 4, 5)
CHAIN, GAP = 40, 12  # seeded pairs per genus and round
# Pole pairs per round for g = 3, 4 and 5.  The g = 5 ones (about 75 ms) are
# the slowest family after the rungs, and all cost the same, so the top of
# that family only times the host's noise.  With one per round the tail
# percentile falls in its lower half, where identical searches time alike.
POLE = {3: 8, 4: 8, 5: 1}
MAX_POLES = 2
MAX_CHAIN_LENGTH = 7  # longer targets make a chain cost more than a pole pair
POLE_LENGTH = 5
UNREACHABLE = ("pole", "gap", "rung-pole")


def _chain_pair(rng, g):
    while True:
        poles = rng.choice((0, 0, 1))
        lower = random_signature(rng, g, poles, poles + rng.randint(1, 3))
        cur = list(lower)
        for _ in range(rng.randint(1, 3)):
            have = cur.count(-1)
            moves = [
                (idx, parts)
                for idx, k in enumerate(cur)
                for parts in oracles.legal_splits(k)
                if have + parts.count(-1) <= MAX_POLES
            ]
            if not moves:  # only simple zeros left and no poles to spare
                break
            idx, parts = rng.choice(moves)
            cur[idx : idx + 1] = parts
        if len(lower) < len(cur) <= MAX_CHAIN_LENGTH:
            return oracles.desc(cur), lower, True


def _pole_pair(rng, g):
    # The search from lower = (4g-3, -1) visits every signature of at most
    # POLE_LENGTH entries before it gives up, whatever higher is, so the cost
    # of a pole pair depends on g alone.
    higher = random_signature(rng, g, 0, POLE_LENGTH)
    return higher, (4 * g - 3, -1), False


def _gap_pair(rng, g):
    while True:
        poles = rng.randint(0, 1)
        lower = random_signature(rng, g, poles, poles + rng.randint(1, 3))
        higher_poles = rng.randint(poles, MAX_POLES)
        if higher_poles >= len(lower) + 1:
            continue
        higher = random_signature(rng, g, higher_poles, len(lower) + 1)
        if not oracles.is_two_part_split(higher, lower):
            return higher, lower, False


def _rungs():
    for g in GENERA:
        yield g, "rung", (1,) * (4 * g - 4), (4 * g - 4,), True
    yield 4, "rung-pole", (1,) * 12, (14, -1, -1), False


def setup(lib, seed: int, rounds: int, workdir) -> list[Op]:
    rng = random.Random("adjacency-reach:%d" % seed)
    S = lib.signatures.StratumSignature
    adjacency = lib.adjacency  # attribute looked up per call, so tracing wrappers apply
    # The rungs run once per run: repeated per round, their count would grow
    # past the ten slowest samples and the tail would only time the rungs.
    specs = list(_rungs())
    for _ in range(rounds):
        for g in GENERA:
            for kind, count, make in (
                ("chain", CHAIN, _chain_pair),
                ("pole", POLE[g], _pole_pair),
                ("gap", GAP, _gap_pair),
            ):
                for _ in range(count):
                    specs.append((g, kind) + make(rng, g))
    rng.shuffle(specs)
    ops = []
    for g, kind, higher, lower, expect in specs:
        h, l = S(g, higher), S(g, lower)
        ops.append(
            Op(
                "g%d/%s" % (g, kind),
                lambda h=h, l=l: adjacency.is_adjacent(h, l),
                lambda out, expect=expect: out is expect,
            )
        )
    return ops


def trace(lib, rec) -> None:
    rec.wrap(lib.adjacency, "is_adjacent", "adjacency.is_adjacent")
    rec.wrap(lib.adjacency, "poset_successors", "adjacency.poset_successors")
    rec.wrap_leaf(lib.signatures.StratumSignature, "__init__", "signatures.StratumSignature")


def layer_metrics(rec) -> dict[str, float]:
    out = {}
    for g in GENERA:
        prefix = "g%d/" % g
        out["adjacency.is_adjacent.g%d_p50_ms" % g] = rec.p50_ms(
            "adjacency.is_adjacent", lambda tag: tag.startswith(prefix)
        )
    out["adjacency.is_adjacent.unreachable_ms"] = sum(
        rec.durations_ms(
            "adjacency.is_adjacent", lambda tag: tag.split("/")[1] in UNREACHABLE
        )
    )
    out["adjacency.poset_successors.calls"] = rec.calls("adjacency.poset_successors")
    out["adjacency.poset_successors.self_ms"] = rec.self_ms("adjacency.poset_successors")
    out["signatures.StratumSignature.calls"] = rec.calls("signatures.StratumSignature")
    out["signatures.StratumSignature.self_ms"] = rec.self_ms("signatures.StratumSignature")
    return out
