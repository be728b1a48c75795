"""kernel-factorize: per word, what ``strata factorize`` computes.

Each operation runs ``factorize_kernel_word``, ``concatenate_factors``,
``permutation_image`` of the result and of the input, and ``in_kernel`` of
the result.  ``braids`` does all the work.  Most words are short (about 100
letters) and set the median; a fixed minority of about 1000 and 5000 letters
set the tail, where the concatenation's cost, quadratic in the word length,
shows.

Words are seeded random letters over stratum surfaces that meet ``a_min``,
with balancing rho letters of weight-1 points inserted at random places so
that the weighted homology image is zero.
"""

from __future__ import annotations

import random

import oracles
from harness import PYTHON_PROBE, Op

IN_PROCESS = True
CALIBRATION = PYTHON_PROBE
ROUND_SECONDS = 1.25
# (genus, weights): both leading classes meet a_min(g, b)
SURFACES = ((5, (1,) * 12 + (2, 2)), (3, (1,) * 8))
# Per round: (label, length, words on each surface).  The counts per surface
# are fixed, since a word on the g = 5 surface costs about twice as much.
MIX = (("L100", 100, (60, 20)), ("L1000", 1000, (12, 4)))
# Plus two 5000-letter words per surface once per run: a set per round would
# fill the ten slowest samples, and the tail would only time these.
LONG = ("L5000", 5000, (2, 2))


def kernel_word(rng: random.Random, genus: int, weights, length: int) -> list[tuple]:
    """About ``length`` letters (at most two more) with zero homology image."""
    n = len(weights)
    ones = [i for i in range(1, n + 1) if weights[i - 1] == 1]
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if weights[i - 1] == weights[j - 1]
    ]
    coords = [0] * (2 * genus)
    letters: list[tuple] = []
    draw = rng.random
    while len(letters) + sum(map(abs, coords)) < length:
        x = draw()
        exp = 1 if draw() < 0.5 else -1
        if x < 0.8:
            i, r = 1 + int(draw() * n), 1 + int(draw() * 2 * genus)
            letters.append(("rho", i, r, exp))
            coords[r - 1] += exp * weights[i - 1]
        elif x < 0.9:
            letters.append(("sigma",) + pairs[int(draw() * len(pairs))] + (exp,))
        else:
            i = 1 + int(draw() * (n - 1))
            letters.append(("kappa", i, i + 1 + int(draw() * (n - i)), exp))
    for r, v in enumerate(coords, 1):
        for _ in range(abs(v)):
            letter = ("rho", rng.choice(ones), r, -1 if v > 0 else 1)
            letters.insert(rng.randint(0, len(letters)), letter)
    return letters


def _letters(word) -> list[tuple]:
    return [(lt.kind, lt.i, lt.second, lt.exp) for lt in word.letters]


def _check(genus, weights, letters, out) -> bool:
    certs, combined, perm_out, perm_in, zero = out
    factors = [(c.tag, c.param, _letters(c.word)) for c in certs]
    joined = [lt for _tag, _param, lts in factors for lt in lts]
    n = len(weights)
    return (
        oracles.factors_ok(genus, weights, letters, factors)
        and _letters(combined) == joined
        and perm_out == oracles.permutation(n, joined)
        and perm_in == oracles.permutation(n, letters)
        and zero is True
    )


def setup(lib, seed: int, rounds: int, workdir) -> list[Op]:
    rng = random.Random("kernel-factorize:%d" % seed)
    braids = lib.braids  # attribute looked up per call, so tracing wrappers apply
    specs = []
    for label, length, counts in [LONG] + list(MIX) * rounds:
        for (genus, weights), count in zip(SURFACES, counts):
            for _ in range(count):
                specs.append((label, genus, weights, kernel_word(rng, genus, weights, length)))
    rng.shuffle(specs)

    def factorize(word):
        certs = braids.factorize_kernel_word(word)
        combined = braids.concatenate_factors(word.surface, certs)
        return (
            certs,
            combined,
            braids.permutation_image(combined),
            braids.permutation_image(word),
            braids.in_kernel(combined),
        )

    ops = []
    for label, genus, weights, letters in specs:
        surf = braids.MarkedSurface(genus, weights, stratum_mode=True)
        word = braids.BraidWord(surf, tuple(braids.Letter(*lt) for lt in letters))
        ops.append(
            Op(
                label,
                lambda word=word: factorize(word),
                # the input's letters are read back from the word, so that
                # the batch does not hold every word twice
                lambda out, g=genus, w=weights, word=word: _check(g, w, _letters(word), out),
            )
        )
    return ops


def trace(lib, rec) -> None:
    rec.wrap(lib.braids, "factorize_kernel_word", "braids.factorize_kernel_word", count_of=len)
    rec.wrap(lib.braids, "concatenate_factors", "braids.concatenate_factors")
    rec.wrap(lib.braids, "permutation_image", "braids.permutation_image")


def layer_metrics(rec) -> dict[str, float]:
    out = {}
    for name in ("factorize_kernel_word", "concatenate_factors"):
        for label, _length, _counts in MIX + (LONG,):
            out["braids.%s.%s_p50_ms" % (name, label)] = rec.p50_ms(
                "braids." + name, lambda tag: tag == label
            )
    out["braids.factors.count"] = rec.counts.get("braids.factorize_kernel_word", 0)
    out["braids.permutation_image.self_ms"] = rec.self_ms("braids.permutation_image")
    return out
