"""Braid words on weighted marked surfaces and their homology shadow.

A word is a finite sequence of generator letters over a marked surface:
``rho(i, r)`` moves point i around the r-th homology direction, ``sigma``
exchanges two points of equal weight, ``kappa`` loops one point around a
higher-indexed one, and ``puncture_loop`` circles an unweighted puncture.
The module computes the two tractable quotients of a word — its permutation
image and its weighted homology image — certifies the standard kernel factor
shapes, and factors kernel words into certified pieces by peeling points off
the surface one at a time.

Word equality in the full surface braid group is out of scope: factorization
output is asserted in the (permutation, homology) quotient, with each
rewriting step an identity of the underlying group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .criteria import a_min
from .errors import (
    IndexOutOfRange,
    InvalidLetter,
    InvalidSurface,
    NoOtherWeights,
    NotInKernel,
    PreconditionUnmet,
    ZeroWeight,
)

RHO = "rho"
SIGMA = "sigma"
KAPPA = "kappa"
PUNCTURE = "kappa_puncture"

TRANSPOSITION = "transposition"
SQUARE_TRANSPOSITION = "square_transposition"
NULL_RHO = "null_rho"
I_COMMUTATOR = "i_commutator"
UNCERTIFIED = "uncertified"

# JSON key used for the second index of each letter kind
_SECOND_KEY = {RHO: "r", SIGMA: "j", KAPPA: "j", PUNCTURE: "l"}


@dataclass(frozen=True)
class MarkedSurface:
    """Genus-g surface carrying weighted marked points and extra punctures.

    ``stratum_mode`` additionally pins the weights to a partition of 4g - 4,
    which the factorization algorithm requires.
    """

    genus: int
    weights: tuple[int, ...]
    punctures: int = 0
    stratum_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.genus < 0:
            raise InvalidSurface("genus must be non-negative")
        if self.punctures < 0:
            raise InvalidSurface("puncture count must be non-negative")
        if any(w == 0 or w < -1 for w in self.weights):
            raise InvalidSurface("weights must be -1 or positive")
        if self.stratum_mode and sum(self.weights) != 4 * self.genus - 4:
            raise InvalidSurface(
                "stratum mode requires weights summing to %d, got %d"
                % (4 * self.genus - 4, sum(self.weights))
            )

    @property
    def n(self) -> int:
        return len(self.weights)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "weights": list(self.weights),
            "punctures": self.punctures,
            "stratum_mode": self.stratum_mode,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MarkedSurface":
        if not isinstance(data, dict) or "genus" not in data or "weights" not in data:
            raise InvalidSurface("surface JSON needs 'genus' and 'weights'")
        genus, weights = data["genus"], data["weights"]
        punctures = data.get("punctures", 0)
        stratum_mode = data.get("stratum_mode", False)
        # type() rather than isinstance: JSON true/false decode to bool, an int
        if type(genus) is not int or type(punctures) is not int:
            raise InvalidSurface("surface 'genus' and 'punctures' must be integers")
        if not isinstance(weights, list) or any(type(w) is not int for w in weights):
            raise InvalidSurface("surface 'weights' must be a list of integers")
        if type(stratum_mode) is not bool:
            raise InvalidSurface("surface 'stratum_mode' must be true or false")
        return MarkedSurface(genus, tuple(weights), punctures, stratum_mode)


@dataclass(frozen=True)
class Letter:
    """One generator letter.  ``second`` is the homology direction for rho
    letters, the partner point for sigma/kappa, and the puncture index for
    puncture loops."""

    kind: str
    i: int
    second: int
    exp: int = 1

    def inverse(self) -> "Letter":
        return Letter(self.kind, self.i, self.second, -self.exp)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "i": self.i,
            _SECOND_KEY[self.kind]: self.second,
            "exp": self.exp,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Letter":
        if not isinstance(data, dict) or "kind" not in data:
            raise InvalidLetter("letter JSON needs 'kind'")
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in _SECOND_KEY:
            raise InvalidLetter("unknown letter kind %r" % (kind,))
        second = _SECOND_KEY[kind]
        if "i" not in data or second not in data:
            raise InvalidLetter("%s letter JSON needs 'i' and %r" % (kind, second))
        fields = (data["i"], data[second], data.get("exp", 1))
        if any(type(x) is not int for x in fields):
            raise InvalidLetter(
                "%s letter fields 'i', %r and 'exp' must be integers" % (kind, second)
            )
        return Letter(kind, *fields)


def rho(i: int, r: int, exp: int = 1) -> Letter:
    return Letter(RHO, i, r, exp)


def sigma(i: int, j: int, exp: int = 1) -> Letter:
    return Letter(SIGMA, i, j, exp)


def kappa(i: int, j: int, exp: int = 1) -> Letter:
    return Letter(KAPPA, i, j, exp)


def puncture_loop(i: int, l: int, exp: int = 1) -> Letter:
    return Letter(PUNCTURE, i, l, exp)


def _validate_letters(letters: Sequence[Letter], surf: MarkedSurface) -> None:
    """Raise InvalidLetter for the first letter, in word order, not valid on surf."""
    weights, m = surf.weights, surf.punctures
    n, dirs = len(weights), 2 * surf.genus
    for lt in letters:
        kind, i, second, exp = lt.kind, lt.i, lt.second, lt.exp
        if exp not in (1, -1):
            raise InvalidLetter("letter exponent must be +-1, got %r" % (exp,))
        if not 1 <= i <= n:
            raise InvalidLetter("point index %d out of range 1..%d" % (i, n))
        if kind == RHO:
            if not 1 <= second <= dirs:
                raise InvalidLetter(
                    "homology direction %d out of range 1..%d" % (second, dirs)
                )
        elif kind == SIGMA:
            if not i < second <= n:
                raise InvalidLetter("sigma needs i < j <= n, got (%d, %d)" % (i, second))
            if weights[i - 1] != weights[second - 1]:
                raise InvalidLetter(
                    "sigma exchanges equal weights only: %d vs %d"
                    % (weights[i - 1], weights[second - 1])
                )
        elif kind == KAPPA:
            if not i < second <= n:
                raise InvalidLetter("kappa needs i < j <= n, got (%d, %d)" % (i, second))
        elif kind == PUNCTURE:
            if not 1 <= second <= m:
                raise InvalidLetter("puncture index %d out of range 1..%d" % (second, m))
        else:
            raise InvalidLetter("unknown letter kind %r" % (kind,))


@dataclass(frozen=True)
class BraidWord:
    surface: MarkedSurface
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _validate_letters(self.letters, self.surface)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.surface != other.surface:
            raise InvalidSurface("cannot concatenate words over different surfaces")
        return BraidWord(self.surface, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.surface, tuple(lt.inverse() for lt in reversed(self.letters))
        )

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.to_json_dict(),
            "letters": [lt.to_json_dict() for lt in self.letters],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "BraidWord":
        if not isinstance(data, dict) or "surface" not in data:
            raise InvalidSurface("braid-word JSON needs 'surface'")
        surf = MarkedSurface.from_json_dict(data["surface"])
        letters = data.get("letters", [])
        if not isinstance(letters, list):
            raise InvalidLetter("braid-word 'letters' must be a list")
        return BraidWord(surf, tuple(Letter.from_json_dict(d) for d in letters))


def _reduce_letters(letters: Sequence[Letter]) -> list[Letter]:
    stack: list[Letter] = []
    for lt in letters:
        if stack:
            top = stack[-1]
            if (top.exp == -lt.exp and top.i == lt.i
                    and top.second == lt.second and top.kind == lt.kind):
                stack.pop()
                continue
        stack.append(lt)
    return stack


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    return BraidWord(w.surface, tuple(_reduce_letters(w.letters)))


def permutation_image(w: BraidWord) -> tuple[int, ...]:
    """Image in the symmetric group; entry k-1 is where point k ends up.

    Letters act left to right; only sigma letters move points.
    """
    n = w.surface.n
    perm = list(range(1, n + 1))
    # where[v] is the index k with perm[k] == v, so each sigma costs O(1)
    where = list(range(-1, n))
    for lt in w.letters:
        if lt.kind == SIGMA:
            a, b = lt.i, lt.second
            ka, kb = where[a], where[b]
            perm[ka], perm[kb] = b, a
            where[a], where[b] = kb, ka
    return tuple(perm)


def abel_jacobi(w: BraidWord) -> tuple[int, ...]:
    """Weighted homology image in Z^{2g}.

    Each rho letter adds its point's weight (signed by the exponent) to the
    coordinate of its direction; all other letters bound disks and vanish.
    """
    coords = [0] * (2 * w.surface.genus)
    weights, rho_kind = w.surface.weights, RHO
    for lt in w.letters:
        if lt.kind == rho_kind:
            coords[lt.second - 1] += lt.exp * weights[lt.i - 1]
    return tuple(coords)


def in_kernel(w: BraidWord) -> bool:
    return not any(abel_jacobi(w))


def certify_null_rho(w: BraidWord) -> tuple[bool, int | None]:
    """Whether every letter circles one fixed direction with balanced weight.

    Returns (True, r) on success; the empty word is vacuously balanced for
    any direction and reports r = None.
    """
    if not w.letters:
        return True, None
    directions = set()
    total = 0
    weights = w.surface.weights
    for lt in w.letters:
        if lt.kind != RHO:
            return False, None
        directions.add(lt.second)
        total += lt.exp * weights[lt.i - 1]
    if len(directions) != 1 or total != 0:
        return False, None
    return True, directions.pop()


def certify_i_commutator(w: BraidWord, i: int) -> bool:
    """Whether the word moves only point i along a homologically trivial path
    in the surface punctured at points i+1..n.

    The fundamental group of that punctured surface abelianizes with one
    relation identifying the sum of all puncture loops with a product of
    commutators, so the path is a commutator exactly when every direction
    count vanishes and the puncture-loop counts share one common value.
    """
    n = w.surface.n
    if not 1 <= i <= n:
        raise IndexOutOfRange("point index %d out of range 1..%d" % (i, n))
    rho_sums = [0] * (2 * w.surface.genus)
    kappa_sums = {l: 0 for l in range(i + 1, n + 1)}
    for lt in w.letters:
        if lt.kind == RHO and lt.i == i:
            rho_sums[lt.second - 1] += lt.exp
        elif lt.kind == KAPPA and lt.i == i:
            kappa_sums[lt.second] += lt.exp
        else:
            return False
    if any(rho_sums):
        return False
    return len(set(kappa_sums.values())) <= 1


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = ax + by >= 0
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


def minimal_d(weights: Sequence[int], l: int) -> tuple[int, tuple[int, ...]]:
    """Smallest d > 0 such that d copies of weight l balance the others.

    Returns (d, coeffs) where coeffs[l] = d and sum(coeffs[i] * weights[i])
    is 0: the witness of the integer relation.  d equals G / gcd(G, w_l)
    with G the gcd of the remaining weights.  Every weight must be non-zero.
    """
    weights = tuple(weights)
    if not 0 <= l < len(weights):
        raise IndexOutOfRange("weight index %d out of range" % l)
    if len(weights) < 2:
        raise NoOtherWeights("need at least one other weight to balance against")
    if 0 in weights:
        raise ZeroWeight("weights must be non-zero, got %r" % (weights,))
    others = [(idx, w) for idx, w in enumerate(weights) if idx != l]
    g = 0
    witness = [0] * len(weights)
    for idx, w in others:
        g, x, y = _egcd(g, w)
        for k in range(len(witness)):
            witness[k] *= x
        witness[idx] = y
    target = weights[l]
    d = g // _egcd(g, target)[0]
    scale = -(d * target) // g
    coeffs = [scale * c for c in witness]
    coeffs[l] = d
    assert sum(c * w for c, w in zip(coeffs, weights)) == 0
    return d, tuple(coeffs)


def factor_by_permutation(z: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Split z = y * x with y a product of exchanges realizing z's permutation
    and x the permutation-trivial remainder y^-1 z, freely reduced."""
    perm = permutation_image(z)
    letters: list[Letter] = []
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
        anchor = cycle[0]
        for other in cycle[1:]:
            letters.append(sigma(min(anchor, other), max(anchor, other)))
    y = BraidWord(z.surface, tuple(letters))
    assert permutation_image(y) == perm
    x = BraidWord(z.surface, tuple(_reduce_letters(y.inverse().letters + z.letters)))
    return y, x


@dataclass(frozen=True)
class FactorCertificate:
    """A factor together with the shape it was certified as.

    ``param`` is the direction r for null_rho factors and the moving point i
    for i_commutator factors.
    """

    tag: str
    word: BraidWord
    param: int | None = None

    def verify(self) -> bool:
        if self.tag == TRANSPOSITION:
            return len(self.word) == 1 and self.word.letters[0].kind == SIGMA
        if self.tag == SQUARE_TRANSPOSITION:
            return len(self.word) == 1 and self.word.letters[0].kind in (KAPPA, PUNCTURE)
        if self.tag == NULL_RHO:
            ok, r = certify_null_rho(self.word)
            return ok and (r is None or r == self.param)
        if self.tag == I_COMMUTATOR:
            return self.param is not None and certify_i_commutator(self.word, self.param)
        return False

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "param": self.param,
            "letters": [lt.to_json_dict() for lt in self.word.letters],
        }


def _weight_runs(weights: tuple[int, ...]) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    for w in weights:
        if runs and runs[-1][0] == w:
            runs[-1] = (w, runs[-1][1] + 1)
        else:
            runs.append((w, 1))
    return runs


def _peel_stage(
    surf: MarkedSurface, c: int, moving: list[Letter]
) -> tuple[list[FactorCertificate], list[Letter]]:
    """Certify the letters moving point c and return the balancing debt.

    The moving subword equals, in the free group on its letters, a commutator
    (the sorting discrepancy) followed by one run per direction and the
    puncture loops in their original order.  Each run is completed to a
    balanced block by borrowing lower points, and the inverse of what was
    borrowed is handed back to the remaining word.
    """
    rhos = [lt for lt in moving if lt.kind == RHO]
    kappas = [lt for lt in moving if lt.kind == KAPPA]
    sorted_word = sorted(rhos, key=lambda lt: lt.second) + kappas
    certs: list[FactorCertificate] = []
    h_inv = _reduce_letters(list(moving) + [lt.inverse() for lt in reversed(sorted_word)])
    if h_inv:
        certs.append(FactorCertificate(I_COMMUTATOR, BraidWord(surf, tuple(h_inv)), c))
    d, coeffs = minimal_d(surf.weights[:c], c - 1)
    balance_debt: list[Letter] = []
    windings = [0] * (2 * surf.genus)
    for lt in rhos:
        windings[lt.second - 1] += lt.exp
    for r, e in enumerate(windings, 1):
        if e == 0:
            continue
        # kernel membership of the whole word forces d | e
        assert e % d == 0, "net winding must be a multiple of the balance step"
        q = e // d
        block = [rho(c, r, 1 if e > 0 else -1)] * abs(e)
        for idx in range(c - 1):
            cnt = q * coeffs[idx]
            if cnt == 0:
                continue
            sign = 1 if cnt > 0 else -1
            block.extend([rho(idx + 1, r, sign)] * abs(cnt))
            balance_debt.extend([rho(idx + 1, r, -sign)] * abs(cnt))
        certs.append(FactorCertificate(NULL_RHO, BraidWord(surf, tuple(block)), r))
    for lt in kappas:
        certs.append(FactorCertificate(SQUARE_TRANSPOSITION, BraidWord(surf, (lt,))))
    return certs, balance_debt


def factorize_kernel_word(z: BraidWord) -> list[FactorCertificate]:
    """Write a kernel word as certified factors, peeling one point per stage.

    The concatenation of the returned factors matches the input in the
    (permutation, homology) quotient, and every factor carries a verified
    certificate.  Exchange letters are emitted in their original relative
    order, which pins the permutation image; all other factor shapes are
    permutation-trivial.  Requires a stratum-mode surface without ambient
    punctures whose leading weight class meets the size bound a_min(g, b).
    Cost: a few linear passes over the word, plus one per peeled point.
    """
    surf = z.surface
    if surf.punctures:
        raise PreconditionUnmet("factorization needs a surface without punctures")
    if not surf.stratum_mode:
        raise PreconditionUnmet("factorization needs a stratum-mode surface")
    if surf.genus < 2:
        raise PreconditionUnmet("factorization needs genus at least 2")
    runs = _weight_runs(surf.weights)
    if len({w for w, _ in runs}) != len(runs):
        raise PreconditionUnmet("weight classes must be contiguous")
    a = runs[0][1]
    b = surf.n - a
    need = a_min(surf.genus, b)
    if a < need:
        raise PreconditionUnmet(
            "leading class has %d points, bound requires %d" % (a, need)
        )
    if not in_kernel(z):
        raise NotInKernel("word has nonzero homology image %r" % (abel_jacobi(z),))

    y, x = factor_by_permutation(z)
    certs = [
        FactorCertificate(TRANSPOSITION, BraidWord(surf, (lt,))) for lt in y.letters
    ]
    current: list[Letter] = []
    for lt in x.letters:
        if lt.kind == SIGMA:
            # permutation-exact: these keep their relative order and multiply
            # to the identity, everything else emitted is permutation-trivial
            certs.append(FactorCertificate(TRANSPOSITION, BraidWord(surf, (lt,))))
        else:
            current.append(lt)

    for c in range(surf.n, a, -1):
        moving: list[Letter] = []
        staying: list[Letter] = []
        for lt in current:
            (moving if lt.i == c and lt.kind in (RHO, KAPPA) else staying).append(lt)
        if moving:
            stage_certs, balance_debt = _peel_stage(surf, c, moving)
            certs.extend(stage_certs)
            current = balance_debt + staying
        else:
            current = staying

    groups: list[list[Letter]] = [[] for _ in range(2 * surf.genus)]
    kappas: list[Letter] = []
    for lt in current:
        if lt.kind == RHO:
            groups[lt.second - 1].append(lt)
        elif lt.kind == KAPPA:
            kappas.append(lt)
    for r, group in enumerate(groups, 1):
        if group:
            certs.append(FactorCertificate(NULL_RHO, BraidWord(surf, tuple(group)), r))
    for lt in kappas:
        certs.append(FactorCertificate(SQUARE_TRANSPOSITION, BraidWord(surf, (lt,))))

    for cert in certs:
        assert cert.verify(), "internal error: emitted an uncertifiable factor"
    return certs


def concatenate_factors(
    surf: MarkedSurface, certs: Sequence[FactorCertificate]
) -> BraidWord:
    """The product of the factors' words, left to right, built in one pass."""
    for cert in certs:
        other = cert.word.surface
        if other is not surf and other != surf:
            raise InvalidSurface("cannot concatenate words over different surfaces")
    return BraidWord(surf, tuple(lt for cert in certs for lt in cert.word.letters))
