"""Stratum signatures and their intrinsic classification data.

A signature is a genus together with the multiset of zero and pole orders of
a half-translation structure: every order is -1 (a simple pole) or a positive
integer, and the orders sum to 4g - 4.  On top of the raw data this module
computes the complex dimension, recognises the four exceptional empty
signatures, counts connected components, and performs the branched
double-cover construction that carries genus-0 signatures to hyperelliptic
ones.  Two components are reported for Lanneau's hyperelliptic families,
each a constant-time rule on the orders, and for two genus-2 strata; the
exceptional strata of genus 3 and 4 and counts of three are not yet known.
"""

from __future__ import annotations

from ._frozen import Frozen, require
from .errors import EmptyStratum, InvalidSignature, InvalidSpec

# The four exceptional signatures whose strata contain no half-translation
# structure at all.  Orders stored descending, matching the canonical form.
EMPTY_SIGNATURES = frozenset(
    {
        (1, ()),
        (1, (1, -1)),
        (2, (3, 1)),
        (2, (4,)),
    }
)

REASON_EMPTY = "MSV-exception"
REASON_FAMILY = ("Lanneau-family-1", "Lanneau-family-2", "Lanneau-family-3")
REASON_G2 = "Lanneau-g2-special"
REASON_LOW_GENUS = "genus-le-1"
REASON_C1 = "c1-theorem"
REASON_DEFAULT = "one-component-default"

_G2_TWO_COMPONENT = frozenset({(3, 3, -1, -1), (6, -1, -1)})


class StratumSignature(Frozen):
    """Genus plus the multiset of orders, stored descending.

    Every signature's orders are -1 or positive and sum to 4g - 4: the public
    constructor checks this, and the signatures ``adjacency`` derives with
    ``_derived`` keep it by construction: each comes from a valid signature
    by one legal split of one zero, with its orders sorted again.
    """

    __slots__ = ("genus", "orders")
    _error = InvalidSignature
    genus: int
    orders: tuple[int, ...]

    def __new__(cls, genus: int, orders: tuple[int, ...]):
        failed = []
        # type() rather than isinstance: a bool is an int
        if type(genus) is not int or genus < 0:
            failed.append("genus")
        try:
            orders = tuple(sorted(orders, reverse=True))
            total = sum(orders)
        except TypeError:  # not iterable, or entries that do not sort or add
            failed.append("entries")
        else:
            if any(type(k) is not int or k == 0 or k < -1 for k in orders):
                failed.append("entries")
            if "genus" not in failed and total != 4 * genus - 4:
                failed.append("sum")
        if failed:
            raise InvalidSignature(
                "invalid signature (genus=%r, orders=%r): failed %s"
                % (genus, orders, ", ".join(failed)),
                failed=tuple(failed),
            )
        return cls._derived(genus, orders)

    @property
    def n(self) -> int:
        return len(self.orders)

    def to_json_dict(self) -> dict:
        return {"genus": self.genus, "orders": list(self.orders)}


class ConnectivityReport(Frozen):
    __slots__ = ("component_count", "is_empty", "reason")
    component_count: int
    is_empty: bool
    reason: str

    def __new__(cls, component_count: int, is_empty: bool, reason: str):
        return cls._derived(component_count, is_empty, reason)


class DoubleCoverSpec(Frozen):
    """Branched double cover data: a genus-0 base and the ramified indices,
    each named once."""

    __slots__ = ("base", "ramified_indices", "target_genus")
    _error = InvalidSpec
    base: StratumSignature
    ramified_indices: frozenset[int]
    target_genus: int

    def __new__(cls, base: StratumSignature, ramified_indices, target_genus: int):
        require(base, StratumSignature)
        try:
            listed = list(ramified_indices)
        except TypeError:  # not iterable
            listed = None
        # type() rather than isinstance: a bool is an int
        if listed is None or any(type(i) is not int for i in listed + [target_genus]):
            raise InvalidSpec("ramified indices and target genus must be integers")
        ramified = frozenset(listed)
        if len(ramified) != len(listed):
            raise InvalidSpec("ramified indices name an index more than once: %r" % (listed,))
        return cls._derived(base, ramified, target_genus)


def is_empty(s: StratumSignature) -> bool:
    require(s, StratumSignature)
    return (s.genus, s.orders) in EMPTY_SIGNATURES


def dimension(s: StratumSignature) -> int:
    """Complex dimension 2g - 2 + n of a non-empty stratum."""
    require(s, StratumSignature)
    if (s.genus, s.orders) in EMPTY_SIGNATURES:
        raise EmptyStratum("stratum %r is empty" % (s,))
    return 2 * s.genus - 2 + s.n


def _two_component_reason(s: StratumSignature) -> str | None:
    g, o = s.genus, s.orders
    if g == 2:
        return REASON_G2 if o in _G2_TWO_COMPONENT else None
    if g < 3:
        return None
    # Lanneau's hyperelliptic families (Comment. Math. Helv. 79, 2004) as rules
    # on the descending orders, which sum to 4g - 4 and so fix k:
    # 1. Q(4(g-k)-6, 4k+2), k >= 0: two orders, both 2 mod 4;
    # 2. Q(2(g-k)-3, 2(g-k)-3, 4k+2), k >= 0: an equal pair and a third order
    #    2 mod 4 (the pair is then odd, and -1 at k = g - 1);
    # 3. Q(2(g-k)-3, 2(g-k)-3, 2k+1, 2k+1), k >= -1: two equal pairs of odd
    #    orders (k = -1 is the pole pair of Q(2g-1, 2g-1, -1, -1)).
    if len(o) == 2 and o[0] % 4 == o[1] % 4 == 2:
        return REASON_FAMILY[0]
    if len(o) == 3 and ((o[0] == o[1] and o[2] % 4 == 2) or (o[1] == o[2] and o[0] % 4 == 2)):
        return REASON_FAMILY[1]
    if len(o) == 4 and o[0] == o[1] and o[2] == o[3] and o[0] % 2 == 1:
        return REASON_FAMILY[2]
    return None


def classify_connectivity(s: StratumSignature) -> ConnectivityReport:
    """Total classification, reporting empty signatures instead of raising."""
    require(s, StratumSignature)
    if (s.genus, s.orders) in EMPTY_SIGNATURES:
        return ConnectivityReport(0, True, REASON_EMPTY)
    reason = _two_component_reason(s)
    if reason is not None:
        return ConnectivityReport(2, False, reason)
    if s.genus <= 1:
        return ConnectivityReport(1, False, REASON_LOW_GENUS)
    if s.orders.count(1) >= s.genus:
        return ConnectivityReport(1, False, REASON_C1)
    return ConnectivityReport(1, False, REASON_DEFAULT)


def double_cover(spec: DoubleCoverSpec) -> tuple[StratumSignature, bool]:
    """Orders of the double cover branched over the chosen points.

    A ramified point of order k lifts to a single point of order 2k + 2
    (dropped when that is 0, i.e. a ramified simple pole smooths out); an
    unramified point lifts to two copies of itself.  The second return value
    is True when every order upstairs is even, in which case the cover could
    be the square of an abelian differential rather than a genuine
    half-translation structure.
    """
    require(spec, DoubleCoverSpec)
    base, g = spec.base, spec.target_genus
    if base.genus != 0:
        raise InvalidSpec("double cover base must have genus 0, got %d" % base.genus)
    if sum(base.orders) != -4:
        raise InvalidSpec("double cover base orders must sum to -4")
    idx = spec.ramified_indices
    if any(i < 0 or i >= base.n for i in idx):
        raise InvalidSpec("ramified index out of range")
    if len(idx) != 2 * g + 2:
        raise InvalidSpec(
            "need exactly %d ramified indices for target genus %d, got %d"
            % (2 * g + 2, g, len(idx))
        )
    orders: list[int] = []
    for i, k in enumerate(base.orders):
        if i in idx:
            lifted = 2 * k + 2
            if lifted != 0:
                orders.append(lifted)
        else:
            orders.extend((k, k))
    cover = StratumSignature(g, tuple(orders))
    maybe_abelian = all(k % 2 == 0 for k in cover.orders)
    return cover, maybe_abelian
