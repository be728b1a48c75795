"""Splitting calculus on zero orders and the induced refinement order.

A split replaces one zero of order k by 2, 3 or 4 new points whose orders
sum to k.  Two-part splits of an even order must produce two even parts;
three- and four-part splits carry no parity constraint.  Simple poles
(order -1) may appear among the parts but can never themselves be split.
Iterating splits refines signatures and orders the partitions of 4g - 4.
``legal_splits`` tries no first of m parts above k // m, so no branch is empty,
and ``poset_successors`` builds each successor once, from a legal tuple.

Reachability is decided without a search over signatures.  A split acts on
one entry, so ``higher`` refines ``lower`` exactly when the entries of
``higher`` can be grouped one group per entry of ``lower``: each pole takes
a lone -1, and each zero k takes a group P summing to k that k reaches.  A
zero k reaches P (entries -1 or positive, sum k) exactly when

- |P| = 1, so P = (k);
- |P| = 2 and P is a legal two-part split: not two odd parts of an even k;
- |P| >= 3, always.

The last case goes by induction.  For |P| = 3 or 4, P is one direct split.
For |P| >= 5, split k into (k - a - b, a, b) with a <= b the two smallest
entries of P.  The rest has at least 3 entries, each at least b, and sums
to k - a - b >= 3 (if a = b = -1 it sums to k + 2; otherwise its entries
are positive), so k - a - b is a zero that reaches the rest.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import GenusMismatch, InvalidMove, InvalidSignature
from .signatures import StratumSignature


def _require_signature(s) -> None:
    # the boundary check of every entry point that takes a signature
    if not isinstance(s, StratumSignature):
        raise InvalidSignature("expected a StratumSignature, got %s" % type(s).__name__)


def _part_multisets(total: int, count: int, lo: int) -> Iterator[tuple[int, ...]]:
    # non-decreasing tuples of valid orders (no zeros, >= lo) with the given sum
    if count == 1:
        if total >= lo and total != 0:
            yield (total,)
        return
    for v in range(lo, total // count + 1):  # no later part is smaller than v
        if v == 0:
            continue
        for rest in _part_multisets(total - v, count - 1, v):
            yield (v,) + rest


def legal_splits(order: int, include_poles: bool = True) -> list[tuple[int, ...]]:
    """All part multisets a zero of the given order can split into."""
    # type() rather than isinstance: a bool is an int
    if type(order) is not int:
        raise InvalidMove("a zero's order must be an integer, got %r" % (order,))
    if order < 1:
        return []
    lo = -1 if include_poles else 1
    two = _part_multisets(order, 2, lo)
    out = [t for t in two if _reaches(2, order % 2 == 1, all(p % 2 == 0 for p in t))]
    out.extend(_part_multisets(order, 3, lo))
    out.extend(_part_multisets(order, 4, lo))
    return out


def poset_successors(
    s: StratumSignature, include_poles: bool = True
) -> set[StratumSignature]:
    """Signatures obtained from ``s`` by exactly one split, as a set.

    Each successor is built unchecked: a legal split keeps the sum and gives
    parts that are -1 or positive, so only the order needs sorting."""
    _require_signature(s)
    out: set[StratumSignature] = set()
    for idx, order in enumerate(s.orders):
        if idx and s.orders[idx - 1] == order:  # orders descend: tried already
            continue
        head, tail = s.orders[:idx], s.orders[idx + 1 :]
        for parts in legal_splits(order, include_poles):
            orders = tuple(sorted(head + parts + tail, reverse=True))
            out.add(StratumSignature._derived(s.genus, orders))
    return out


def splits_into(order: int, parts: Sequence[int]) -> bool:
    """Whether a zero of the given order becomes exactly ``parts`` after one
    or more splits.  See the module docstring for the rule and its proof."""
    try:
        parts = tuple(parts)
    except TypeError:  # not iterable
        raise InvalidMove("parts must be a sequence of integers, got %r" % (parts,)) from None
    # type() rather than isinstance: a bool is an int
    if type(order) is not int or any(type(p) is not int for p in parts):
        raise InvalidMove("an order and its parts must be integers, got %r, %r" % (order, parts))
    if order < 1 or any(p == 0 or p < -1 for p in parts) or sum(parts) != order:
        return False
    return _reaches(len(parts), order % 2 == 1, all(p % 2 == 0 for p in parts))


def _reaches(size: int, order_odd: bool, all_even: bool) -> bool:
    # a zero and a group of ``size`` entries that sum to it
    return size != 2 or order_odd or all_even


def _groupable(zeros: list[int], positives: list[int], spare: int) -> bool:
    """Whether ``positives`` plus ``spare`` poles split into one reachable
    group per zero.

    Entries go largest first, each to one group, by a depth-first search.  A group's future depends only on its state (zero minus positive
    sum, positive count capped at 3, whether a positive part is odd, whether
    the zero is odd; the last two matter below 3 parts only).  Its pole count
    is its positive sum minus its zero, and the excess over all groups is
    bounded by ``spare``.  Groups in equal states are tried once, and states
    that failed are kept for the length of the call.
    """
    last = len(positives)

    def children(i: int, groups: tuple, excess: int) -> Iterator[tuple]:
        if sum(1 for g in groups if g[1] == 0) > last - i:
            return
        p = positives[i]
        tried = set()
        for j, state in enumerate(groups):
            if state in tried:
                continue
            tried.add(state)
            left, count, odd, zero_odd = state
            grown = excess - max(0, -left) + max(0, p - left)
            if grown > spare:
                continue
            count = min(count + 1, 3)
            state = (left - p, count, count < 3 and (odd or p % 2 == 1), count < 3 and zero_odd)
            yield tuple(sorted(groups[:j] + (state,) + groups[j + 1 :])), grown

    def complete(groups: tuple) -> bool:
        # no group has left > 0 here: the excess bound forces it at the end
        return all(
            _reaches(count - left, zero_odd, left == 0 and not odd)
            for left, count, odd, zero_odd in groups
        )

    start = tuple(sorted((z, 0, False, z % 2 == 1) for z in zeros))
    failed: set[tuple[int, tuple]] = set()
    stack = [(0, start, children(0, start, 0))]
    while stack:
        i, groups, kids = stack[-1]
        nxt, excess = next(kids, (None, 0))
        if nxt is None:
            failed.add((i, groups))
            stack.pop()
        elif i + 1 == last:
            if complete(nxt):
                return True
        elif (i + 1, nxt) not in failed:
            stack.append((i + 1, nxt, children(i + 1, nxt, excess)))
    return False


def _cancel(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Both descending tuples without their common entries."""
    i = j = 0
    only_a: list[int] = []
    only_b: list[int] = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] > b[j]:
            only_a.append(a[i])
            i += 1
        else:
            only_b.append(b[j])
            j += 1
    only_a.extend(a[i:])
    only_b.extend(b[j:])
    return only_a, only_b


def is_adjacent(higher: StratumSignature, lower: StratumSignature) -> bool:
    """Whether ``higher`` refines ``lower`` through some sequence of splits.

    Decided by the grouping rule of the module docstring: every pole of
    ``lower`` keeps a lone -1 of ``higher``, and the positive entries of
    ``higher`` with the spare poles are grouped one group per zero of
    ``lower``, each group a set of parts that its zero reaches (any set of
    three or more, a legal two-part split, or the zero itself).  A zero
    reaches any three or more parts summing to it by induction: split off
    the two smallest parts in one three-part split, and the part left over
    is a zero that reaches the rest.  No intermediate signature is built;
    the grouping is a depth-first search over the entries of ``higher``.
    """
    _require_signature(higher)
    _require_signature(lower)
    if higher.genus != lower.genus:
        raise GenusMismatch(
            "genus %d vs %d" % (higher.genus, lower.genus)
        )
    if lower.orders == higher.orders:
        return True
    if lower.n >= higher.n:
        return False
    lower_poles = lower.orders.count(-1)
    higher_poles = higher.orders.count(-1)
    spare = higher_poles - lower_poles
    if spare < 0:
        return False
    # An entry h of ``higher`` equal to a zero z of ``lower`` may stand alone
    # as z's group while some other zero keeps its group.  If h sits in the
    # group G of another zero, that zero takes G - h plus z's group instead;
    # if h sits in z's own group P, the rest of P sums to 0, so it has two
    # entries or more and joins a kept zero's group.  Either way the group
    # that grew has three entries or more (or the swap just relabels).
    zeros, positives = _cancel(
        lower.orders[: lower.n - lower_poles], higher.orders[: higher.n - higher_poles]
    )
    if not zeros:
        # what is left sums to 0 with the spare poles and joins a lone zero
        return lower.n > lower_poles
    return _groupable(zeros, positives, spare)
