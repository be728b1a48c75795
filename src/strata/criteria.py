"""Integer bounds and hypothesis predicates for kernel generation.

All bounds are evaluated in exact integer arithmetic; the ceilinged square
root never goes through floating point, since an off-by-one here silently
changes which strata the generation results cover.  The module also holds
``minimal_d``, the balancing multiple of one weight against the others,
built on one gcd chain that also gives every peel stage of the kernel
factorization its balancing witness.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import IndexOutOfRange, NoOtherWeights, OutOfRange, ZeroWeight

if TYPE_CHECKING:
    from .signatures import StratumSignature


def _ceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def point_bound(g: int, extra: int) -> int:
    """Least n with n(n-3)/2 >= 2g + extra - 2.

    Equivalently ceil((3 + sqrt(9 + 8(2g + extra - 2))) / 2): the fewest
    vertices a loopless simple graph needs to reach genus g with ``extra``
    faces.
    """
    # type() rather than isinstance: a bool is an int
    if type(g) is not int or type(extra) is not int:
        raise OutOfRange("point bound needs integer genus and count, got %r, %r" % (g, extra))
    if g < 2:
        raise OutOfRange("point bound needs genus >= 2, got %d" % g)
    if extra < 0:
        raise OutOfRange("face/class count must be non-negative")
    s = _ceil_sqrt(9 + 8 * (2 * g + extra - 2))
    return (s + 4) // 2


def a_min(g: int, b: int) -> int:
    """Size the leading weight class must reach, given b remaining points.

    For b = 0 the bound is evaluated with one face, the minimum a 2-cell
    decomposition can have.
    """
    if type(b) is not int:
        raise OutOfRange("b must be an integer, got %r" % (b,))
    if b < 0:
        raise OutOfRange("b must be non-negative")
    return point_bound(g, max(b, 1))


def gen2_cascade_ok(g: int, b_list: list[int]) -> bool:
    """Whether every secondary class size meets its cascaded bound."""
    # type() rather than isinstance: a bool is an int
    if not isinstance(b_list, (list, tuple)) or any(type(b) is not int for b in b_list):
        raise OutOfRange("class sizes must be a list of integers, got %r" % (b_list,))
    for i, b_i in enumerate(b_list):
        tail = sum(b_list[i + 1 :])
        if b_i < point_bound(g, tail):
            return False
    return True


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


def _gcd_chain(weights: Sequence[int]) -> list[tuple[int, int, int]]:
    # step k is (g_k, x_k, y_k): g_k = gcd(weights[:k + 1]) = x_k g_{k-1} + y_k w_k
    steps = [(0, 0, 0)]
    for w in weights:
        steps.append(_egcd(steps[-1][0], w))
    return steps[1:]


def _balance(weights: Sequence[int], steps: list, m: int) -> tuple[int, list[int]]:
    """``minimal_d(weights[:m + 1], m)`` as a list, from any gcd chain whose
    first m steps are those of weights[:m]: one chain serves every prefix."""
    # w_k's witness coefficient is y_k times the x of every later step, filled
    # in one backward pass that stops once that product is 0
    coeffs = [0] * (m + 1)
    later = 1
    for k in range(m - 1, -1, -1):
        _, x, y = steps[k]
        coeffs[k] = y * later
        later *= x
        if not later:
            break
    g, target = steps[m - 1][0], weights[m]
    d = g // math.gcd(g, target)
    scale = -(d * target) // g
    coeffs = [scale * c for c in coeffs]
    coeffs[m] = d
    if sum(c * w for c, w in zip(coeffs, weights)) != 0:
        raise AssertionError
    return d, coeffs


def minimal_d(weights: Sequence[int], l: int) -> tuple[int, tuple[int, ...]]:
    """Smallest d > 0 such that d copies of weight l balance the others.

    Returns (d, coeffs) where coeffs[l] = d and sum(coeffs[i] * weights[i])
    is 0: the witness of the integer relation.  d equals G / gcd(G, w_l)
    with G the gcd of the remaining weights.  Every weight must be a non-zero
    int, and l an int index.
    """
    try:
        weights = tuple(weights)
    except TypeError:  # not iterable
        raise OutOfRange("weights must be integers, got %r" % (weights,))
    # type() rather than isinstance: a bool is an int
    if type(l) is not int or not 0 <= l < len(weights):
        raise IndexOutOfRange("weight index %r out of range" % (l,))
    if any(type(w) is not int for w in weights):
        raise OutOfRange("weights must be integers, got %r" % (weights,))
    if len(weights) < 2:
        raise NoOtherWeights("need at least one other weight to balance against")
    if 0 in weights:
        raise ZeroWeight("weights must be non-zero, got %r" % (weights,))
    others = weights[:l] + weights[l + 1 :]
    d, coeffs = _balance(others + weights[l : l + 1], _gcd_chain(others), len(others))
    return d, tuple(coeffs[:l]) + (d,) + tuple(coeffs[l:-1])


def _split_orders(s: StratumSignature) -> tuple[int, list[int]]:
    # the first call of every verdict, so that each checks its argument once;
    # imported at the call, so that dmin and graph runs never load signatures
    from ._frozen import require
    from .signatures import StratumSignature

    require(s, StratumSignature)
    ones = s.orders.count(1)
    rest = [k for k in s.orders if k != 1]
    return ones, rest


def _has_even_pair(rest: list[int]) -> tuple[bool, str]:
    if not rest:
        return False, "no higher-order zeros to pair"
    if any(k < 0 or k % 2 != 0 for k in rest):
        return False, "higher orders must all be positive and even"
    if len(rest) == len(set(rest)):
        return False, "no two higher orders are equal"
    return True, "even pair present"


def hy2_verdict(s: StratumSignature) -> tuple[bool, str]:
    ones, rest = _split_orders(s)
    if ones % 2 != 0:
        return False, "count of simple zeros is odd"
    if ones < s.genus + 5:
        return False, "need at least g+5 simple zeros, have %d" % ones
    return _has_even_pair(rest)


def _threshold_verdict(g: int, ones: int, rest: list[int], k: int) -> tuple[bool, str]:
    # an even pair, and more than max(g + k, every higher order) simple zeros
    ok, why = _has_even_pair(rest)
    if not ok:
        return False, why
    threshold = max([g + k] + rest)
    if ones <= threshold:
        return False, "need more than %d simple zeros, have %d" % (threshold, ones)
    return True, "all clauses hold"


def main_theorem_verdict(s: StratumSignature) -> tuple[bool, str]:
    ones, rest = _split_orders(s)
    return _threshold_verdict(s.genus, ones, rest, 5)


def null_prop_verdict(s: StratumSignature) -> tuple[bool, str]:
    ones, rest = _split_orders(s)
    if s.genus <= 2:
        return False, "needs genus greater than 2"
    return _threshold_verdict(s.genus, ones, rest, 4)
