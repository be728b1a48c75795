"""Splitting calculus on zero orders and the induced refinement order.

A split replaces one zero of order k by 2, 3 or 4 new points whose orders
sum to k.  Two-part splits of an even order must produce two even parts;
three- and four-part splits carry no parity constraint.  Simple poles
(order -1) may appear among the parts but can never themselves be split.
Iterating splits refines signatures and orders the partitions of 4g - 4.
``legal_splits`` tries no first of m parts above k // m, so no branch is empty;
one generator splices each into the orders, and ``strata poset`` keeps tuples.

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

``is_adjacent`` decides the grouping in closed form wherever it is forced.
With one zero z left, every positive entry and spare pole joins z's group.
The sums make that group sum to z, so only its size and parity are checked.
Otherwise the positives above 1 go largest first to the groups by a
depth-first search, and the r ones left finish the groups in closed form.
Group j, with c_j positives and l_j left (its zero minus their sum), takes
x_j >= max(l_j, 0) ones and then x_j - l_j poles, and these pole counts sum
to the spare poles by the sums alone.  At x_j = max(l_j, 0) it has
c_j + |l_j| parts, and each further one adds a one and a pole, so only that
least fill can leave two parts.  If its zero cannot reach them, one more
one gives four parts.  So the ones finish the groups exactly when r is at
least the sum of the max(l_j, 0) plus one per group whose least fill is
such a pair.

Two cheap facts frame the search.  After equal entries cancel, no entry
left equals a zero left, so a one-entry group would be a lone -1 (sum -1)
or the zero itself (cancelled): each zero left takes at least two entries.
So fewer entries and spare poles than twice the zeros left is False at
once; as the entries left minus the zeros left is ``higher.n - lower.n``,
that decides every pair with fewer extra entries than zeros left.  Inside
the search each entry tries the groups with the most room first.  A False
answer visits every state reachable from the start, each once by the memo,
whatever the order, so the order changes no answer and no state a False
answer visits; it only changes which grouping a True answer finds first.
Putting large entries where there is room tends to find one early when the
parts are many and of middling size, but it is a heuristic and leaves the
worst case as it was.  The pole excess an entry adds never falls as the
room falls, so the first group that overdraws the spare poles ends the
walk.  What the search still decides is a real choice: 3-PARTITION
(Garey-Johnson 1979, SP15) with B a multiple of 4 and parts a_i in
(B/4, B/2) is the pair Q(a_1, ..., a_3m) over Q(B^m), since a group summing
to B has exactly three parts.  So it is NP-complete even in unary.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from .errors import GenusMismatch, InvalidMove
from ._frozen import require
from .signatures import StratumSignature


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


def _require_flag(include_poles: bool) -> None:
    # type() rather than truthiness: "no" and 1 are not a choice of poles
    if type(include_poles) is not bool:
        raise InvalidMove("include_poles must be true or false, got %r" % (include_poles,))


def legal_splits(order: int, include_poles: bool = True) -> list[tuple[int, ...]]:
    """All part multisets a zero of the given order can split into, with
    parts -1 allowed when ``include_poles`` is True (it must be a bool)."""
    # type() rather than isinstance: a bool is an int
    if type(order) is not int:
        raise InvalidMove("a zero's order must be an integer, got %r" % (order,))
    _require_flag(include_poles)
    if order < 1:
        return []
    lo = -1 if include_poles else 1
    two = _part_multisets(order, 2, lo)
    out = [t for t in two if _reaches(2, order % 2 == 1, all(p % 2 == 0 for p in t))]
    out.extend(_part_multisets(order, 3, lo))
    out.extend(_part_multisets(order, 4, lo))
    return out


def _successor_orders(orders: tuple[int, ...], include_poles: bool) -> Iterator[tuple[int, ...]]:
    # descending orders after each legal split; splits of two orders may meet
    for idx, order in enumerate(orders):
        if idx and orders[idx - 1] == order:  # orders descend: tried already
            continue
        head, tail = orders[:idx], orders[idx + 1 :]
        for parts in legal_splits(order, include_poles):
            yield tuple(sorted(head + parts + tail, reverse=True))


def poset_successors(
    s: StratumSignature, include_poles: bool = True
) -> set[StratumSignature]:
    """Signatures obtained from ``s`` by exactly one split, as a set.

    Each successor is built unchecked: a legal split keeps the sum and gives
    parts that are -1 or positive, so only the order needs sorting."""
    require(s, StratumSignature)
    _require_flag(include_poles)
    successors = _successor_orders(s.orders, include_poles)
    return {StratumSignature._derived(s.genus, o) for o in successors}


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


_ODD = (1).__and__  # p & 1: whether an order is odd, with no Python frame per entry


def _reaches(size: int, order_odd: bool, all_even: bool) -> bool:
    # a zero and a group of ``size`` entries that sum to it
    return size != 2 or order_odd or all_even


_COUNT = itemgetter(1)  # a group state's positive count


def _groupable(zeros: list[int], positives: list[int], spare: int) -> bool:
    """Whether ``positives`` plus ``spare`` poles split into one reachable
    group per zero.

    Entries above 1 go largest first, each to one group, by a depth-first
    search that tries the group with the most room left first; the ones and
    poles then finish the groups in closed form (``_fill``).  A group's
    future depends only on its state (zero minus positive sum, positive
    count capped at 3, whether a positive part is odd, whether the zero is
    odd; the last two matter below 3 parts only).  Its pole count is its
    positive sum minus its zero, and the excess over all groups is bounded
    by ``spare``.  Groups in equal states are tried once, and states that
    failed are kept for the length of the call.  The child order changes
    only which grouping a True answer finds (module docstring); the worst
    case stays exponential.

    A node step counts its empty groups with builtins and bounds each
    child with conditional expressions, with no Python loop per group; the
    states and the order the children are tried in are as above.
    """
    last = len(positives)
    cut = last - positives.count(1)  # positives descend: the ones are last

    def children(i: int, groups: tuple, excess: int) -> Iterator[tuple]:
        if list(map(_COUNT, groups)).count(0) > last - i:  # groups with no positive yet
            return
        p = positives[i]
        p_odd = p % 2 == 1
        prev = None
        for j in range(len(groups) - 1, -1, -1):  # the most room left first
            state = groups[j]
            if state == prev:  # groups are sorted: equal states are neighbours
                continue
            prev = state
            left, count, odd, zero_odd = state
            grown = excess + (left if left < 0 else 0) + (p - left if p > left else 0)
            if grown > spare:  # grown never falls as left falls
                break
            count = count + 1 if count < 3 else 3
            state = (left - p, count, count < 3 and (odd or p_odd), count < 3 and zero_odd)
            yield tuple(sorted(groups[:j] + (state,) + groups[j + 1 :])), grown

    start = tuple(sorted((z, 0, False, z % 2 == 1) for z in zeros))
    if cut == 0:
        return _fill(start, last)
    failed: set[tuple[int, tuple]] = set()
    stack = [(0, start, children(0, start, 0))]
    while stack:
        i, groups, kids = stack[-1]
        nxt, excess = next(kids, (None, 0))
        if nxt is None:
            failed.add((i, groups))
            stack.pop()
        elif i + 1 == cut:
            if _fill(nxt, last - cut):
                return True
        elif (i + 1, nxt) not in failed:
            stack.append((i + 1, nxt, children(i + 1, nxt, excess)))
    return False


def _fill(groups: tuple, ones: int) -> bool:
    # whether ``ones`` parts equal to 1, then the spare poles, finish the
    # groups; the rule and its proof are in the module docstring
    for left, count, odd, zero_odd in groups:
        ones -= max(left, 0)
        if not _reaches(count + abs(left), zero_odd, left == 0 and not odd):
            ones -= 1
    return ones >= 0


def _cancel(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Both descending tuples without their common entries.

    One pass over ``a`` with a pointer into ``b``: the entries of ``b`` above
    an entry of ``a`` are kept, then an equal one cancels it.  Each entry is
    looked at once, so the cost is linear in the entries however many of
    them are equal (``list.remove`` would make it quadratic)."""
    only_a: list[int] = []
    only_b: list[int] = []
    j = 0
    last = len(b)
    for x in a:
        while j < last and b[j] > x:
            only_b.append(b[j])
            j += 1
        if j < last and b[j] == x:
            j += 1
        else:
            only_a.append(x)
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
    is a zero that reaches the rest.  No intermediate signature is built.
    Equal entries cancel first, in one pass over the zeros of ``lower``
    with a pointer into the positives of ``higher``, linear in the entries.
    One zero left, and the ones and spare poles at the end, are decided in
    closed form.  Fewer entries left than twice the zeros left is False
    before any search, since each zero left needs two entries.  Only the
    entries above 1 among two or more zeros are grouped by a depth-first
    search, roomiest group first, which is exponential in the worst case;
    its states and child order are those of ``_groupable``.
    """
    require(higher, StratumSignature)
    require(lower, StratumSignature)
    if higher.genus != lower.genus:
        raise GenusMismatch(
            "genus %d vs %d" % (higher.genus, lower.genus)
        )
    low, high = lower.orders, higher.orders
    if low == high:
        return True
    n_low, n_high = len(low), len(high)
    if n_low >= n_high:
        return False
    lower_poles = low.count(-1)
    higher_poles = high.count(-1)
    spare = higher_poles - lower_poles
    if spare < 0:
        return False
    # An entry h of ``higher`` equal to a zero z of ``lower`` may stand alone
    # as z's group while some other zero keeps its group.  If h sits in the
    # group G of another zero, that zero takes G - h plus z's group instead;
    # if h sits in z's own group P, the rest of P sums to 0, so it has two
    # entries or more and joins a kept zero's group.  Either way the group
    # that grew has three entries or more (or the swap just relabels).
    zeros, positives = _cancel(low[: n_low - lower_poles], high[: n_high - higher_poles])
    if not zeros:
        # what is left sums to 0 with the spare poles and joins a lone zero
        return n_low > lower_poles
    if len(zeros) == 1:
        # One zero takes every entry left and every spare pole.  The sums
        # make the group sum to it, so only the group's size and parity
        # matter.
        all_even = spare == 0 and not any(map(_ODD, positives))
        return _reaches(len(positives) + spare, zeros[0] % 2 == 1, all_even)
    if len(positives) + spare < 2 * len(zeros):
        return False  # each zero left needs two entries (module docstring)
    return _groupable(zeros, positives, spare)
