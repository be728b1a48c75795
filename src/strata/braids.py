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

from collections import deque
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

from ._frozen import Frozen, require
from .errors import (
    IndexOutOfRange,
    InvalidLetter,
    InvalidSurface,
    NotInKernel,
    OutOfRange,
    PreconditionUnmet,
)

RHO = "rho"
SIGMA = "sigma"
KAPPA = "kappa"
PUNCTURE = "kappa_puncture"

TRANSPOSITION = "transposition"
SQUARE_TRANSPOSITION = "square_transposition"
NULL_RHO = "null_rho"
I_COMMUTATOR = "i_commutator"

# JSON key used for the second index of each letter kind
_SECOND_KEY = {RHO: "r", SIGMA: "j", KAPPA: "j", PUNCTURE: "l"}

# the live letters with a str kind and int fields, by (class, kind, i,
# second, exp): the one object Letter(...) returns for those fields
_LETTERS: WeakValueDictionary[tuple, Letter] = WeakValueDictionary()


class MarkedSurface(Frozen):
    """Genus-g surface carrying weighted marked points and extra punctures.

    ``stratum_mode`` additionally pins the weights to a partition of 4g - 4,
    which the factorization algorithm requires.
    """

    __slots__ = ("genus", "weights", "punctures", "stratum_mode")
    _error = InvalidSurface
    genus: int
    weights: tuple[int, ...]
    punctures: int
    stratum_mode: bool

    def __new__(
        cls,
        genus: int,
        weights: Sequence[int],
        punctures: int = 0,
        stratum_mode: bool = False,
    ):
        # type() rather than isinstance: JSON true/false decode to bool, an int
        if type(genus) is not int or type(punctures) is not int:
            raise InvalidSurface("surface 'genus' and 'punctures' must be integers")
        try:
            weights = tuple(weights)
        except TypeError:  # not iterable
            weights = None
        if weights is None or any(type(w) is not int for w in weights):
            raise InvalidSurface("surface 'weights' must be a list of integers")
        if type(stratum_mode) is not bool:
            raise InvalidSurface("surface 'stratum_mode' must be true or false")
        if genus < 0:
            raise InvalidSurface("genus must be non-negative")
        if punctures < 0:
            raise InvalidSurface("puncture count must be non-negative")
        if any(w == 0 or w < -1 for w in weights):
            raise InvalidSurface("weights must be -1 or positive")
        if stratum_mode and sum(weights) != 4 * genus - 4:
            raise InvalidSurface(
                "stratum mode requires weights summing to %d, got %d"
                % (4 * genus - 4, sum(weights))
            )
        return cls._derived(genus, weights, punctures, stratum_mode)

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
        weights = data["weights"]
        # a JSON string or object iterates as weights: pass None for it, which
        # the constructor rejects after genus and punctures
        return MarkedSurface(
            data["genus"],
            weights if isinstance(weights, list) else None,
            data.get("punctures", 0),
            data.get("stratum_mode", False),
        )


class Letter(Frozen):
    """One generator letter.  ``second`` is the homology direction for rho
    letters, the partner point for sigma/kappa, and the puncture index for
    puncture loops.

    The public constructor checks nothing: a ``BraidWord`` checks each
    letter's fields against its surface when it is built.  A letter whose
    ``kind`` is a ``str`` and whose other fields are exact ``int``s is shared
    process-wide: while one lives, ``Letter(...)`` with the same class and
    fields returns it (``rho(1, 1) is rho(1, 1)``).  The table that finds it
    holds letters weakly, so it keeps none alive.  A letter with any other
    field types, a ``bool`` or a float among them, is a new object on each
    call and never merges with an int letter.
    """

    __slots__ = ("kind", "i", "second", "exp")
    kind: str
    i: int
    second: int
    exp: int

    def __new__(cls, kind: str, i: int, second: int, exp: int = 1):
        # type() rather than isinstance: a bool or a float hashes and compares
        # as the int it equals, and a str subclass may redefine both
        if type(kind) is str and type(i) is int and type(second) is int and type(exp) is int:
            key = (cls, kind, i, second, exp)
            lt = _LETTERS.get(key)
            if lt is None:
                lt = _LETTERS[key] = cls._derived(kind, i, second, exp)
            return lt
        return cls._derived(kind, i, second, exp)

    def to_json_dict(self) -> dict:
        try:
            second_key = _SECOND_KEY[self.kind]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise InvalidLetter("unknown letter kind %r" % (self.kind,)) from None
        return {"kind": self.kind, "i": self.i, second_key: self.second, "exp": self.exp}


def _letter_fields(data: dict) -> tuple:
    """The (kind, i, second, exp) of one letter object of a braid-word
    document, after checking its shape: a known ``kind`` and the keys that
    kind needs.  ``BraidWord.from_json_dict`` calls it on every letter; the
    field types are checked with the rest by the BraidWord constructor."""
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidLetter("letter JSON needs 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SECOND_KEY:
        raise InvalidLetter("unknown letter kind %r" % (kind,))
    second = _SECOND_KEY[kind]
    if "i" not in data or second not in data:
        raise InvalidLetter("%s letter JSON needs 'i' and %r" % (kind, second))
    return kind, data["i"], data[second], data.get("exp", 1)


def rho(i: int, r: int, exp: int = 1) -> Letter:
    return Letter(RHO, i, r, exp)


def sigma(i: int, j: int, exp: int = 1) -> Letter:
    return Letter(SIGMA, i, j, exp)


def kappa(i: int, j: int, exp: int = 1) -> Letter:
    return Letter(KAPPA, i, j, exp)


def puncture_loop(i: int, l: int, exp: int = 1) -> Letter:
    return Letter(PUNCTURE, i, l, exp)


def _validate_letters(letters: Iterable[Letter], surf: MarkedSurface) -> tuple[Letter, ...]:
    """The letters as a tuple; raise InvalidLetter for the first letter, in
    word order, not valid on surf, and TypeError for an element that is not a
    Letter.

    Each distinct object is checked once, at its first occurrence: a repeat
    of an object already checked passed.  Equal letters are one object when
    ``Letter(...)`` made them, so a word checks each distinct letter once.
    """
    letters = tuple(letters)
    weights, m = surf.weights, surf.punctures
    n, dirs = len(weights), 2 * surf.genus
    # keyed by id, which the tuple keeps valid: each object once, in order
    # of first occurrence
    for lt in dict(zip(map(id, letters), letters)).values():
        if not isinstance(lt, Letter):
            raise TypeError("expected a Letter, got %s" % type(lt).__name__)
        kind, i, second, exp = lt.kind, lt.i, lt.second, lt.exp
        # type() rather than isinstance: a bool is an int
        if type(i) is not int or type(second) is not int or type(exp) is not int:
            if kind not in (RHO, SIGMA, KAPPA, PUNCTURE):  # a tuple: kind may not hash
                raise InvalidLetter("unknown letter kind %r" % (kind,))
            raise InvalidLetter(
                "%s letter fields 'i', %r and 'exp' must be integers" % (kind, _SECOND_KEY[kind])
            )
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
    return letters


class BraidWord(Frozen):
    """A word of letters over one marked surface.

    Every word's letters are valid on its surface: the public constructor
    checks this, and the words ``braids`` derives with ``_derived`` keep it
    by construction: each of their letters comes from a valid word on an
    equal surface, is such a letter's inverse, or is valid by how it was made.

    Each element given to the constructor must be a ``Letter``.  The
    constructor keeps the elements as given and checks each distinct object's
    types and ranges once.  Since ``Letter(...)`` returns one shared object
    per class and integer fields, a word built from it, or read by
    ``from_json_dict``, holds one object per distinct letter.  Errors
    come in this order: from ``from_json_dict``, every letter's shape
    (``kind`` and its keys) first; then each letter's field types and ranges
    in word order, so the first invalid letter is the one reported.
    """

    __slots__ = ("surface", "letters")
    _error = InvalidSurface
    surface: MarkedSurface
    letters: tuple[Letter, ...]

    def __new__(cls, surface: MarkedSurface, letters: Sequence[Letter] = ()):
        require(surface, MarkedSurface)
        try:
            letters = _validate_letters(letters, surface)
        except (AttributeError, TypeError):  # not a sequence of letters
            raise InvalidLetter("word letters must be a sequence of Letter objects") from None
        return cls._derived(surface, letters)

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
        # every letter's shape is checked here, before the constructor checks
        # any field's type or range
        return BraidWord(surf, [Letter(*_letter_fields(d)) for d in letters])


def _reduce(u: Iterable[Letter], v: Sequence[Letter] = ()) -> list[Letter]:
    """The letters of u followed by the inverse of v, freely reduced: no two
    neighbours are mutually inverse.  Each comparison tests ``second`` first,
    the field that differs most often between neighbours.  A letter of v
    cancels a stack top that equals it (``is`` first, then field by field);
    its inverse is made only when it is kept."""
    stack: list[Letter] = []
    top = None  # stack[-1], or None when the stack is empty
    for lt in u:
        if (top is not None and top.second == lt.second and top.i == lt.i
                and top.exp == -lt.exp and top.kind == lt.kind):
            stack.pop()
            top = stack[-1] if stack else None
        else:
            stack.append(lt)
            top = lt
    for lt in reversed(v):
        if top is lt or (top is not None and top.second == lt.second
                         and top.exp == lt.exp and top.i == lt.i and top.kind == lt.kind):
            stack.pop()
            top = stack[-1] if stack else None
        else:
            top = Letter._derived(lt.kind, lt.i, lt.second, -lt.exp)
            stack.append(top)
    return stack


def permutation_image(w: BraidWord) -> tuple[int, ...]:
    """Image in the symmetric group; entry k-1 is where point k ends up.

    Letters act left to right; only sigma letters move points.
    """
    require(w, BraidWord)
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


def _direction_vector(genus: int) -> list[int]:
    """One zero per homology direction after a leading zero slot: a list of
    2g + 1 entries, so that direction r is entry r."""
    try:
        return [0] * (2 * genus + 1)
    except (OverflowError, MemoryError):  # past the index range or the address space
        raise OutOfRange("genus %d is too large for a vector of 2g coordinates" % genus)


def abel_jacobi(w: BraidWord) -> tuple[int, ...]:
    """Weighted homology image in Z^{2g}.

    Each rho letter adds its point's weight (signed by the exponent) to the
    coordinate of its direction; all other letters bound disks and vanish.
    """
    require(w, BraidWord)
    coords = _direction_vector(w.surface.genus)
    # a leading zero slot, so that point i's weight is entry i
    weights, rho_kind = (0,) + w.surface.weights, RHO
    for lt in w.letters:
        if lt.kind == rho_kind:
            coords[lt.second] += lt.exp * weights[lt.i]
    return tuple(coords[1:])


def in_kernel(w: BraidWord) -> bool:
    return not any(abel_jacobi(w))


def certify_null_rho(w: BraidWord) -> tuple[bool, int | None]:
    """Whether every letter circles one fixed direction with balanced weight.

    Returns (True, r) on success; the empty word is vacuously balanced for
    any direction and reports r = None.
    """
    require(w, BraidWord)
    if not w.letters:
        return True, None
    r = w.letters[0].second
    total = 0
    weights = (0,) + w.surface.weights  # point i's weight is entry i
    for lt in w.letters:
        if lt.kind != RHO or lt.second != r:
            return False, None
        total += lt.exp * weights[lt.i]
    if total != 0:
        return False, None
    return True, r


def certify_i_commutator(w: BraidWord, i: int) -> bool:
    """Whether the word moves only point i along a homologically trivial path
    in the surface punctured at points i+1..n.

    The fundamental group of that punctured surface abelianizes with one
    relation identifying the sum of all puncture loops with a product of
    commutators, so the path is a commutator exactly when every direction
    count vanishes and the puncture-loop counts share one common value.
    """
    require(w, BraidWord)
    n = w.surface.n
    # type() rather than isinstance: a bool is an int
    if type(i) is not int or not 1 <= i <= n:
        raise IndexOutOfRange("point index %r out of range 1..%d" % (i, n))
    rho_sums = _direction_vector(w.surface.genus)
    kappa_sums = {l: 0 for l in range(i + 1, n + 1)}
    for lt in w.letters:
        if lt.kind == RHO and lt.i == i:
            rho_sums[lt.second] += lt.exp
        elif lt.kind == KAPPA and lt.i == i:
            kappa_sums[lt.second] += lt.exp
        else:
            return False
    if any(rho_sums):
        return False
    return len(set(kappa_sums.values())) <= 1


def factor_by_permutation(z: BraidWord) -> tuple[BraidWord, BraidWord]:
    """Split z = y * x with y a product of exchanges realizing z's permutation
    and x the permutation-trivial remainder y^-1 z, freely reduced."""
    require(z, BraidWord)
    perm = permutation_image(z)
    y: list[Letter] = []
    seen: set[int] = set()
    for start in range(1, z.surface.n + 1):
        if start in seen:
            continue
        # points are read in ascending order, so start is the least point of
        # its cycle, which stays in one weight class
        cur = perm[start - 1]
        while cur != start:
            y.append(Letter._derived(SIGMA, start, cur, 1))
            seen.add(cur)
            cur = perm[cur - 1]
    y_word = BraidWord._derived(z.surface, tuple(y))
    y_perm = permutation_image(y_word)
    if y_perm != perm:
        raise AssertionError(
            "internal error: the exchange split's permutation image %r differs from "
            "the word's %r" % (y_perm, perm)
        )
    x = _reduce(chain(_reduce((), y), z.letters))
    return y_word, BraidWord._derived(z.surface, tuple(x))


class FactorCertificate(Frozen):
    """A factor together with the shape it was certified as.

    ``param`` is the direction r for null_rho factors and the moving point i
    for i_commutator factors.  Instances are immutable, so
    ``factorize_kernel_word`` returns one shared certificate for every
    occurrence of the same one-letter factor within one call.
    """

    __slots__ = ("tag", "word", "param")
    tag: str
    word: BraidWord
    param: int | None

    def __new__(cls, tag: str, word: BraidWord, param: int | None = None):
        require(word, BraidWord)
        return cls._derived(tag, word, param)

    def verify(self) -> bool:
        letters = self.word.letters
        if self.tag == TRANSPOSITION:
            return len(letters) == 1 and letters[0].kind == SIGMA
        if self.tag == SQUARE_TRANSPOSITION:
            return len(letters) == 1 and letters[0].kind in (KAPPA, PUNCTURE)
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


def _certified(tag: str, word: BraidWord, param: int | None) -> FactorCertificate:
    """The certificate of word as a tag factor, verified as it is made."""
    cert = FactorCertificate._derived(tag, word, param)
    if not cert.verify():
        raise AssertionError("internal error: emitted an uncertifiable factor")
    return cert


def _one_letter_factors(
    surf: MarkedSurface, entries: dict[tuple, FactorCertificate], letters, out: list
) -> None:
    """Append to out the transposition (sigma) or square transposition
    (kappa) factor of each letter, made and verified at its first occurrence
    and kept in entries under its fields' tuple, which hashes in C where a
    Letter would call Python code."""
    get, append = entries.get, out.append
    word, certificate = BraidWord._derived, FactorCertificate._derived
    for lt in letters:
        key = (lt.kind, lt.i, lt.second, lt.exp)
        cert = get(key)
        if cert is None:
            tag = TRANSPOSITION if lt.kind == SIGMA else SQUARE_TRANSPOSITION
            cert = certificate(tag, word(surf, (lt,)), None)
            if not cert.verify():
                raise AssertionError("internal error: emitted an uncertifiable factor")
            entries[key] = cert
        append(cert)


def _peel_stage(
    surf: MarkedSurface, c: int, moving: Sequence[Letter], balance: tuple[int, list[int]], a: int
) -> tuple[list[FactorCertificate], list[Letter], dict[int, list[Letter]]]:
    """Certify the letters moving point c; return the certificates, the kappa
    letters (each a square transposition factor, emitted after the
    certificates) and the balancing debt by bucket (0 for the points up to a).

    The moving subword equals, in the free group on its letters, a commutator
    (the sorting discrepancy) followed by one run per direction and the
    puncture loops in their original order.  Each run is completed to a
    balanced block by borrowing lower points, as many as ``balance``, the
    witness of minimal_d(weights[:c], c - 1), asks, and the inverse of what
    was borrowed is handed back to the remaining word.
    """
    rhos = [lt for lt in moving if lt.kind == RHO]
    kappas = [lt for lt in moving if lt.kind == KAPPA]
    sorted_word = sorted(rhos, key=attrgetter("second")) + kappas
    certs: list[FactorCertificate] = []
    h_inv = _reduce(moving, sorted_word)
    if h_inv:
        certs.append(_certified(I_COMMUTATOR, BraidWord._derived(surf, tuple(h_inv)), c))
    d, coeffs = balance
    lenders = [(p, cf) for p, cf in enumerate(coeffs[:-1], 1) if cf]
    debt: dict[int, list[Letter]] = {}
    windings = _direction_vector(surf.genus)
    for lt in rhos:
        windings[lt.second] += lt.exp
    for r, e in enumerate(windings):
        if e == 0:  # the leading slot among them
            continue
        # kernel membership of the whole word forces d | e
        if e % d:
            raise AssertionError(
                "internal error: point %d's net winding %d in direction %d is not a "
                "multiple of the balance step %d" % (c, e, r, d)
            )
        q = e // d
        block = [Letter._derived(RHO, c, r, 1 if e > 0 else -1)] * abs(e)
        for p, cf in lenders:
            cnt = q * cf
            sign = 1 if cnt > 0 else -1
            block.extend([Letter._derived(RHO, p, r, sign)] * abs(cnt))
            debt.setdefault(p if p > a else 0, []).extend(
                [Letter._derived(RHO, p, r, -sign)] * abs(cnt)
            )
        certs.append(_certified(NULL_RHO, BraidWord._derived(surf, tuple(block)), r))
    return certs, kappas, debt


def factorize_kernel_word(z: BraidWord) -> list[FactorCertificate]:
    """Write a kernel word as certified factors, peeling one point per stage.

    The concatenation of the returned factors matches the input in the
    (permutation, homology) quotient, and every factor carries a verified
    certificate.  Exchange letters are emitted in their original relative
    order, which pins the permutation image; all other factor shapes are
    permutation-trivial.  Requires a stratum-mode surface without ambient
    punctures whose leading weight class meets the size bound a_min(g, b).

    One-letter factors (transpositions and square transpositions) are
    shared within one call: each distinct letter's certificate is built and
    verified once, and the same immutable object is returned at every later
    occurrence in that call.  Every factor's word is on z's surface object.
    Every certificate is verified where it is made, so there is one
    verification per distinct one-letter factor and per multi-letter factor.
    Cost: a few linear passes over the word and one over the balancing debt.
    One placement pass puts each letter where it is used: a sigma letter in
    the exchange list, a letter of a point above the leading class in the
    bucket of the stage that peels it, and any other letter in its final
    group (rho letters by direction, kappa letters in one list).  Each
    stage's debt goes straight to the front of the bucket or group it is
    owed to, and a stage reads only its bucket.  A stage reduces its letters
    against its sorted word from the back in one ``_reduce`` call, which
    makes the inverse of a sorted letter only when it stays in the
    commutator.  One gcd chain over the weights gives every stage's
    balancing witness.  No factor's letters are validated again: they come
    from z, or are made valid.
    """
    # imported at the call, so that aj and copeland runs never load criteria
    from . import criteria

    require(z, BraidWord)
    surf = z.surface
    if surf.punctures:
        raise PreconditionUnmet("factorization needs a surface without punctures")
    if not surf.stratum_mode:
        raise PreconditionUnmet("factorization needs a stratum-mode surface")
    if surf.genus < 2:
        raise PreconditionUnmet("factorization needs genus at least 2")
    runs = [(w, len(list(run))) for w, run in groupby(surf.weights)]
    if len({w for w, _ in runs}) != len(runs):
        raise PreconditionUnmet("weight classes must be contiguous")
    a = runs[0][1]
    b = surf.n - a
    need = criteria.a_min(surf.genus, b)
    if a < need:
        raise PreconditionUnmet(
            "leading class has %d points, bound requires %d" % (a, need)
        )
    if not in_kernel(z):
        raise NotInKernel("word has nonzero homology image %r" % (abel_jacobi(z),))

    one_letter: dict[tuple, FactorCertificate] = {}
    y, x = factor_by_permutation(z)
    certs: list[FactorCertificate] = []
    sigmas = list(y.letters)
    # bucket c > a holds the letters stage c peels.  No stage peels the
    # points up to a: their rho letters go to the group of their direction r
    # (entry r; entry 0 is unused) and their kappa letters to low_kappas.  The
    # debt a stage owes a bucket or a group goes in front of it, ahead of the
    # debt of earlier stages.
    buckets = [None] * (a + 1) + [deque() for _ in range(b)]
    groups: list[deque[Letter]] = [deque() for _ in range(2 * surf.genus + 1)]
    low_kappas: list[Letter] = []
    # no puncture letter is valid without punctures, so only sigma, rho and
    # kappa letters occur
    for lt in x.letters:
        kind = lt.kind
        if kind == SIGMA:
            sigmas.append(lt)
        elif lt.i > a:
            buckets[lt.i].append(lt)
        elif kind == RHO:
            groups[lt.second].append(lt)
        else:
            low_kappas.append(lt)
    # permutation-exact: these keep their relative order and multiply to the
    # identity, everything else emitted is permutation-trivial
    _one_letter_factors(surf, one_letter, sigmas, certs)

    weights = surf.weights
    steps = criteria._gcd_chain(weights[: surf.n - 1]) if b else []
    for c in range(surf.n, a, -1):
        moving = buckets[c]
        if moving:
            stage_certs, stage_kappas, debt = _peel_stage(
                surf, c, moving, criteria._balance(weights, steps, c - 1), a
            )
            certs.extend(stage_certs)
            _one_letter_factors(surf, one_letter, stage_kappas, certs)
            for slot, letters in debt.items():
                if slot:
                    buckets[slot].extendleft(reversed(letters))
                else:  # debt is rho letters: each goes in front of its group
                    for lt in reversed(letters):
                        groups[lt.second].appendleft(lt)

    for r, group in enumerate(groups):
        if group:  # never entry 0
            certs.append(_certified(NULL_RHO, BraidWord._derived(surf, tuple(group)), r))
    _one_letter_factors(surf, one_letter, low_kappas, certs)
    return certs


def concatenate_factors(
    surf: MarkedSurface, certs: Iterable[FactorCertificate]
) -> BraidWord:
    """The product of the factors' words, left to right, built in one pass
    over ``certs``, which may be any iterable."""
    require(surf, MarkedSurface)
    letters: list[Letter] = []
    try:
        for cert in certs:
            word = cert.word
            other = word.surface
            if other is not surf and other != surf:
                raise InvalidSurface("cannot concatenate words over different surfaces")
            letters += word.letters
    except (AttributeError, TypeError):  # not an iterable of certificates
        raise InvalidSurface("factors must be a sequence of FactorCertificate objects") from None
    return BraidWord._derived(surf, tuple(letters))
