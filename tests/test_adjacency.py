import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import strata as st
from strata import adjacency
from support import (
    bfs_refinements,
    enumerate_signatures,
    legal_splits_oracle,
    partition_oracle,
    positive_partitions,
)
from strata.errors import GenusMismatch, InvalidMove, InvalidSignature


def sig(g, orders):
    return st.StratumSignature(g, tuple(orders))


def brute_successors(s):
    """Independent enumeration: raw products filtered by the split rules."""
    out = set()
    for idx, k in enumerate(s.orders):
        if k < 1:
            continue
        for m in (2, 3, 4):
            for parts in itertools.product(range(-1, k + m), repeat=m):
                if any(p == 0 or p < -1 for p in parts):
                    continue
                if sum(parts) != k:
                    continue
                if m == 2 and k % 2 == 0 and parts[0] % 2 != 0:
                    continue
                rest = list(s.orders)
                rest[idx : idx + 1] = list(parts)
                out.add(st.StratumSignature(s.genus, tuple(rest)))
    return out


class TestSplitRules:
    # one split through legal_splits, any number of splits through splits_into
    def test_even_split(self):
        assert (2, 2) in st.legal_splits(4)
        assert st.splits_into(4, (2, 2))

    def test_parity_violation(self):
        assert (1, 3) not in st.legal_splits(4)
        assert not st.splits_into(4, (1, 3))

    def test_four_odd_parts(self):
        assert (1, 1, 1, 1) in st.legal_splits(4)
        assert st.splits_into(4, (1, 1, 1, 1))

    def test_bad_sum(self):
        assert not any(sum(parts) != 4 for parts in st.legal_splits(4))
        assert not st.splits_into(4, (1, 2))

    def test_zero_part_rejected(self):
        assert not any(0 in parts for parts in st.legal_splits(4))
        assert not st.splits_into(4, (4, 0))

    def test_deep_pole_rejected(self):
        assert min(min(parts) for parts in st.legal_splits(4)) == -1
        assert not st.splits_into(4, (6, -2))

    def test_pole_source_rejected(self):
        assert st.legal_splits(-1) == []
        assert not st.splits_into(-1, (-1, -1, 1))

    def test_five_parts_rejected(self):
        # one split makes at most four parts; two splits make five
        assert max(len(parts) for parts in st.legal_splits(8)) == 4
        assert st.splits_into(8, (2, 2, 2, 1, 1))

    def test_odd_two_part_split_is_free(self):
        assert (1, 2) in st.legal_splits(3)
        assert st.splits_into(3, (1, 2))


class TestLegalSplits:
    @pytest.mark.parametrize("order", ["a", 2.0, True])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(InvalidMove):
            st.legal_splits(order)

    @pytest.mark.parametrize("flag", ["no", "", 0, 1, None, [True]])
    def test_include_poles_must_be_a_bool(self, flag):
        # a truthy "no" used to list splits with poles
        for call in (
            lambda: st.legal_splits(4, include_poles=flag),
            lambda: st.legal_splits(-1, flag),
            lambda: st.poset_successors(sig(2, (4,)), include_poles=flag),
            lambda: st.poset_successors(sig(1, ()), flag),  # no zero to split
        ):
            with pytest.raises(InvalidMove, match="include_poles"):
                call()

    @pytest.mark.parametrize("include_poles", [True, False])
    def test_matches_loose_enumeration(self, include_poles):
        # same tuples in the same order as trying every first part
        for k in range(1, 61):
            assert st.legal_splits(k, include_poles) == legal_splits_oracle(k, include_poles), k


def partitions_into(parts, total):
    """The number of partitions of ``total`` into exactly ``parts`` positive
    parts, for 1 <= parts <= 4, in closed form."""
    if parts == 1:
        return 1
    if parts == 2:
        return total // 2
    if parts == 3:
        return (total * total + 6) // 12
    return (total**3 + 3 * total**2 - 9 * total * (total % 2) + 72) // 144


def split_count(order, include_poles):
    """How many splits ``legal_splits`` lists for one zero: m parts of which
    j are -1, the other m - j a partition of order + j, less the two-part
    splits of an even zero that are not both even."""
    count = sum(
        partitions_into(m - j, order + j)
        for m in (2, 3, 4)
        for j in (range(m) if include_poles else (0,))
    )
    if order % 2 == 0:
        count -= partitions_into(2, order) - partitions_into(2, order // 2)  # two odd parts
        count -= include_poles  # (-1, order + 1)
    return count


class TestSuccessorCounts:
    # closed forms for the successor counts, checked against the enumerations
    @pytest.mark.parametrize("include_poles", [True, False])
    def test_splits_per_zero(self, include_poles):
        for k in range(1, 81):
            assert len(st.legal_splits(k, include_poles)) == split_count(k, include_poles), k

    @pytest.mark.parametrize("include_poles", [True, False])
    def test_successors_per_signature(self, include_poles):
        # with poles, adding (1, -1) or (2, -1, -1) to the orders is a split
        # of any of the d distinct positive orders z, into (z, 1, -1) or
        # (z, 2, -1, -1), so each of those two successors is counted d times
        checked = 0
        for g in range(2, 5):
            for s in enumerate_signatures(g, max_poles=2):
                distinct = {k for k in s.orders if k > 0}
                total = sum(len(st.legal_splits(k, include_poles)) for k in distinct)
                want = total - 2 * (len(distinct) - 1) * include_poles
                assert len(st.poset_successors(s, include_poles)) == want, s.orders
                checked += 1
        assert checked > 100


class TestPosetSuccessors:
    # the twelve refinements of a single order-4 zero, checked two ways
    FROZEN_SUCCESSORS_OF_4 = {
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
        (6, -1, -1),
        (4, 1, -1),
        (3, 2, -1),
        (2, 2, 1, -1),
        (3, 1, 1, -1),
        (3, 3, -1, -1),
        (4, 2, -1, -1),
        (5, 1, -1, -1),
        (7, -1, -1, -1),
    }

    def test_order_four_frozen(self):
        got = {t.orders for t in st.poset_successors(sig(2, (4,)))}
        assert got == self.FROZEN_SUCCESSORS_OF_4

    def test_matches_brute_force(self):
        # every signature of genus <= 2 with at most four poles, and of genus 3
        # without poles; without poles, no successor gains one
        sigs = [s for g in range(3) for s in enumerate_signatures(g, max_poles=4)]
        for s in sigs + enumerate_signatures(3, max_poles=0):
            brute = brute_successors(s)
            assert st.poset_successors(s) == brute, s.orders
            poles = s.orders.count(-1)
            no_poles = {t for t in brute if t.orders.count(-1) == poles}
            assert st.poset_successors(s, include_poles=False) == no_poles, s.orders

    def test_all_poles_has_no_successors(self):
        assert st.poset_successors(sig(0, (-1, -1, -1, -1))) == set()

    def test_simple_zeros_split_through_poles(self):
        succ = {t.orders for t in st.poset_successors(sig(2, (1, 1, 1, 1)))}
        assert (2, 1, 1, 1, -1) in succ
        assert all(-1 in orders for orders in succ)

    def test_no_poles_restriction(self):
        succ = {t.orders for t in st.poset_successors(sig(2, (4,)), include_poles=False)}
        assert succ == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}

    def test_derived_successors_are_ordinary_signatures(self):
        # poset_successors builds these without the checking constructor
        for g in range(4):
            for s in enumerate_signatures(g, max_poles=2):
                for include_poles in (True, False):
                    for t in st.poset_successors(s, include_poles):
                        assert t == st.StratumSignature(t.genus, t.orders), t
                        assert list(t.orders) == sorted(t.orders, reverse=True), t

    def test_never_runs_the_checking_constructor(self, monkeypatch):
        s = sig(5, (8, 4, 2, 1, 1))
        want = st.poset_successors(s)
        checked = []
        new = st.StratumSignature.__new__

        def counting_new(cls, genus, orders):
            checked.append(orders)
            return new(cls, genus, orders)

        monkeypatch.setattr(st.StratumSignature, "__new__", counting_new)
        assert st.poset_successors(s) == want
        assert checked == []
        # the patch sees a pass through the checking constructor
        st.StratumSignature(2, (4,))
        assert checked == [(4,)]

    @pytest.mark.parametrize("s", ["x", None, (2, (4,))], ids=["str", "None", "tuple"])
    def test_non_signature_rejected(self, s):
        with pytest.raises(InvalidSignature):
            st.poset_successors(s)

    def test_successor_orders_are_the_successors(self):
        # the tuples strata poset sorts are the orders of the library's set
        for g in range(6):
            for s in enumerate_signatures(g, max_poles=3):
                for include_poles in (True, False):
                    got = sorted(set(adjacency._successor_orders(s.orders, include_poles)))
                    want = sorted(t.orders for t in st.poset_successors(s, include_poles))
                    assert got == want, (s.orders, include_poles)

    def test_length_growth_bounds(self):
        s = sig(3, (6, 2))
        for t in st.poset_successors(s):
            assert s.n + 1 <= t.n <= s.n + 3
            assert t.genus == s.genus
            assert sum(t.orders) == sum(s.orders)


class TestRoundTrip:
    def test_collapse_recovers_source(self):
        rng = random.Random(11)
        s = sig(3, (6, 2))
        successors = st.poset_successors(s)
        for _ in range(50):
            idx = rng.randrange(s.n)
            if s.orders[idx] < 1:
                continue
            splits = st.legal_splits(s.orders[idx])
            parts = rng.choice(splits)
            t = sig(s.genus, s.orders[:idx] + parts + s.orders[idx + 1 :])
            assert t in successors
            back = list(t.orders)
            for p in parts:
                back.remove(p)
            back.append(sum(parts))
            assert st.StratumSignature(t.genus, tuple(back)) == s


descending_orders = hst.lists(
    hst.one_of(hst.integers(1, 3), hst.integers(1, 12)), max_size=40
).map(lambda orders: tuple(sorted(orders, reverse=True)))


class TestCancel:
    @settings(max_examples=400, deadline=None)
    @given(descending_orders, descending_orders)
    @example((), ())
    @example((3, 1, 1), ())
    @example((), (2, 2))
    @example((2,) + (1,) * 50, (1,) * 52)
    def test_is_both_multiset_differences(self, a, b):
        only_a, only_b = adjacency._cancel(a, b)
        assert only_a == sorted((Counter(a) - Counter(b)).elements(), reverse=True)
        assert only_b == sorted((Counter(b) - Counter(a)).elements(), reverse=True)


class TestIsAdjacent:
    def test_three_part_reachability(self):
        assert st.is_adjacent(sig(2, (1, 1, 2)), sig(2, (4,)))

    def test_reflexive(self):
        assert st.is_adjacent(sig(2, (4,)), sig(2, (4,)))

    def test_empty_lower_is_still_split(self):
        assert st.is_adjacent(sig(2, (1, 1, 1, 1)), sig(2, (3, 1)))

    def test_parity_obstruction(self):
        assert not st.is_adjacent(sig(2, (3, 1)), sig(2, (4,)))

    def test_shorter_target_unreachable(self):
        assert not st.is_adjacent(sig(2, (4,)), sig(2, (1, 1, 1, 1)))

    @pytest.mark.parametrize("other", [None, "x", (2, (4,))], ids=["None", "str", "tuple"])
    def test_non_signature_rejected(self, other):
        with pytest.raises(InvalidSignature):
            st.is_adjacent(sig(2, (4,)), other)
        with pytest.raises(InvalidSignature):
            st.is_adjacent(other, sig(2, (4,)))

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            st.is_adjacent(sig(2, (4,)), sig(3, (8,)))

    def test_transitivity_sample(self):
        lower = sig(2, (4,))
        mid = sig(2, (2, 2))
        upper = sig(2, (2, 2, 1, -1))
        assert st.is_adjacent(mid, lower)
        assert st.is_adjacent(upper, mid)
        assert st.is_adjacent(upper, lower)

    def test_even_split_parity_blocks_refinement(self):
        # an order-2 zero cannot break into two simple zeros
        assert not st.is_adjacent(sig(2, (2, 1, 1)), sig(2, (2, 2)))

    def test_pole_lets_a_part_exceed_its_source(self):
        assert st.is_adjacent(sig(2, (6, -1, -1)), sig(2, (4,)))
        # but (7, -1) is two odd parts of an even zero
        assert not st.is_adjacent(sig(3, (7, 2, -1)), sig(3, (6, 2)))

    def test_equal_entries_need_a_zero_left_over(self):
        # every zero of lower has an equal entry in higher; the leftover
        # (4, 2) and six spare poles sum to 0 and must join one of them
        higher = sig(4, (6, 4, 4, 3, 2, 1) + (-1,) * 8)
        assert st.is_adjacent(higher, sig(4, (6, 4, 3, 1, -1, -1)))

    def test_many_poles_to_one_zero(self):
        # a breadth-first search over signatures took minutes on this pair
        higher = sig(5, (3,) + (2,) * 8 + (1,) * 11 + (-1,) * 14)
        assert st.is_adjacent(higher, sig(5, (16,)))

    def test_all_simple_zeros_genus_six(self):
        assert st.is_adjacent(sig(6, (1,) * 20), sig(6, (20,)))

    def test_fewer_poles_unreachable(self):
        assert not st.is_adjacent(sig(5, (1,) * 16), sig(5, (18, -1, -1)))

    def test_matches_oracle_exhaustively(self):
        # every pair at g <= 3 with at most 4 poles, one search per lower
        pairs = 0
        for g in range(4):
            sigs = enumerate_signatures(g, max_poles=4)
            for lower in sigs:
                reach = bfs_refinements(lower, max_poles=4)
                for higher in sigs:
                    assert st.is_adjacent(higher, lower) == (higher.orders in reach), (
                        higher.orders,
                        lower.orders,
                    )
                    pairs += 1
        assert pairs > 51000

    @pytest.mark.parametrize(
        "higher,answer",
        [((3, 1), False), ((2, 1, 1), True), ((5, -1), False), ((3, 2, -1), True)],
    )
    def test_one_zero_parity_edge(self, higher, answer):
        # two parts of an even zero must both be even; three are always reached
        assert st.is_adjacent(sig(2, higher), sig(2, (4,))) is answer

    @pytest.mark.parametrize("k,g", [(5, 6), (6, 8), (7, 10), (8, 12), (9, 15)])
    def test_principal_stratum_against_distinct_zeros(self, k, g):
        # the zero of order 2 cannot take two simple zeros without a pole;
        # a search over groupings took 216 s at k = 9
        zeros = list(range(2, k + 2))
        if sum(zeros) < 4 * g - 4:
            zeros.append(4 * g - 4 - sum(zeros))
        lower = sig(g, sorted(zeros, reverse=True))
        assert not st.is_adjacent(sig(g, (1,) * (4 * g - 4)), lower)

    @pytest.mark.parametrize("m,B", [(3, 20), (4, 24), (5, 28), (6, 32), (8, 40)])
    def test_three_partition_with_planted_solution(self, m, B):
        # parts strictly between B/4 and B/2, so a group summing to B has
        # exactly three of them: adjacent exactly when the triples exist
        rng = random.Random(m * B)
        parts = []
        while len(parts) < 3 * m:
            a, b = rng.randrange(B // 4 + 1, B // 2), rng.randrange(B // 4 + 1, B // 2)
            if B // 4 < B - a - b < B // 2:
                parts += [a, b, B - a - b]
        g = m * B // 4 + 1
        assert st.is_adjacent(sig(g, sorted(parts, reverse=True)), sig(g, (B,) * m))

    @pytest.mark.parametrize(
        "g,groups",
        [
            (
                38,
                (
                    (9, 7, 6, 4, 3),
                    (9, 7, 6, 4, 2),
                    (9, 7, 5, 4, 2),
                    (8, 6, 4, 3),
                    (7, 4, 3, 1),
                    (5, 3, 2),
                    (5, 3, 1),
                    (4, 2, 1),
                    (2,),
                ),
            ),
            (
                48,
                (
                    (10, 8, 5, 4, 3),
                    (9, 7, 6, 3, 2, 2),
                    (9, 7, 4, 3, 2, 2),
                    (9, 6, 4, 3, 2, 2),
                    (8, 6, 4, 3, 2, 2),
                    (8, 6, 4, 3, 3),
                    (7, 6, 3, 2, 2),
                    (3, 2, 2),
                ),
            ),
            (
                36,
                (
                    (9, 8, 5, 4, 2, 2),
                    (9, 6, 5, 4, 3, 2),
                    (7, 5, 4, 3, 2),
                    (6, 5, 3, 3, 2),
                    (6, 5, 3, 2),
                    (5, 5, 2, 2, 1),
                    (4, 2, 2, 2),
                ),
            ),
        ],
        ids=["roadmap-g38", "hunt-g48", "hunt-g36"],
    )
    def test_many_mid_size_parts(self, g, groups):
        # higher is every group's parts and lower their sums, so the groups
        # are a witness.  With the least roomy group tried first the search
        # took 5.1 s on the first pair and over 10 s on the other two.
        assert all(st.splits_into(sum(parts), parts) for parts in groups)
        higher = sig(g, sorted(itertools.chain(*groups), reverse=True))
        lower = sig(g, sorted(map(sum, groups), reverse=True))
        assert st.is_adjacent(higher, lower)

    @pytest.mark.parametrize(
        "g,higher,lower",
        [
            (4, (7, 4, 1), (6, 6)),
            (3, (5, 2, 1), (4, 4)),
            (5, (8, 5, 2, 1), (8, 4, 4)),
            (5, (8, 5, 3, 1, -1), (6, 6, 4)),
        ],
    )
    def test_too_few_entries_skip_the_search(self, monkeypatch, g, higher, lower):
        # each zero left after cancelling needs two entries of its own
        def search(*args):
            raise AssertionError("the grouping search ran")

        higher, lower = sig(g, higher), sig(g, lower)
        assert not partition_oracle(higher, lower)
        monkeypatch.setattr(adjacency, "_groupable", search)
        assert not st.is_adjacent(higher, lower)

    @pytest.mark.parametrize(
        "g,higher,lower,answer",
        [
            pytest.param(g, (1,) * (4 * g - 4), (4 * g - 4,), True, id="ladder-g%d" % g)
            for g in (10, 100, 1000)
        ]
        + [
            pytest.param(g, (1,) * (4 * g - 4), (2,) + (1,) * (4 * g - 6), False, id="two-g%d" % g)
            for g in (10, 100, 1000)
        ]
        + [
            pytest.param(2, (3, 1), (4,), False, id="odd-pair"),
            pytest.param(2, (3, 2, -1), (4,), True, id="pole-triple"),
            pytest.param(2, (6, -1, -1), (4,), True, id="pole-overshoot"),
            pytest.param(3, (7, 2, -1), (6, 2), False, id="pole-odd-pair"),
            pytest.param(
                5, (3,) + (2,) * 8 + (1,) * 11 + (-1,) * 14, (16,), True, id="many-poles"
            ),
            pytest.param(100, (2,) * 198, (4,) + (2,) * 196, True, id="twos-g100"),
        ],
    )
    def test_one_zero_left_never_searches(self, monkeypatch, g, higher, lower, answer):
        # the one zero left takes every entry left, so its size and parity decide
        def search(*args):
            raise AssertionError("the grouping search ran")

        higher, lower = sig(g, higher), sig(g, lower)
        left = Counter(k for k in lower.orders if k > 0) - Counter(higher.orders)
        assert sum(left.values()) == 1
        monkeypatch.setattr(adjacency, "_groupable", search)
        assert st.is_adjacent(higher, lower) is answer

    def test_entry_count_bound_against_partition_oracle(self, monkeypatch):
        # pairs one or two entries apart at g <= 8 with at most 12 entries:
        # the bound decides some of them, the search others
        searches = []
        groupable = adjacency._groupable
        monkeypatch.setattr(
            adjacency, "_groupable", lambda *args: searches.append(args) or groupable(*args)
        )
        rng = random.Random(35)
        decided = Counter()
        while sum(decided.values()) < 1500:
            g = rng.randint(2, 8)
            with_poles = sum(decided.values()) % 2
            lower_poles = rng.randint(0, 2) * with_poles
            higher_poles = lower_poles + rng.randint(0, 2) * with_poles
            lower = random_signature(rng, g, lower_poles, rng.randint(2, 6))
            if lower is None:
                continue
            zeros = lower.n + rng.randint(1, 2) - higher_poles
            higher = random_signature(rng, g, higher_poles, zeros) if zeros > 0 else None
            if higher is None or higher.n > 12:
                continue
            left = Counter(p for p in lower.orders if p > 0)
            entries = Counter(p for p in higher.orders if p > 0)
            zeros_left = sum((left - entries).values())
            entries_left = sum((entries - left).values()) + higher_poles - lower_poles
            ran = len(searches)
            answer = st.is_adjacent(higher, lower)
            assert answer == partition_oracle(higher, lower), (higher.orders, lower.orders)
            if zeros_left >= 2 and entries_left < 2 * zeros_left:
                assert not answer and len(searches) == ran, (higher.orders, lower.orders)
                decided["bound"] += 1
            else:
                decided["search" if len(searches) > ran else "closed form"] += 1
        assert decided["bound"] > 100 and decided["search"] > 100, decided

    def test_matches_partition_oracle(self):
        # seeded random pairs at g <= 8 with at most 12 entries, half of them
        # without poles, against a brute-force grouping through splits_into
        rng = random.Random(27)
        answers = []
        while len(answers) < 4000:
            g = rng.randint(1, 8)
            with_poles = len(answers) % 2
            lower_poles = rng.randint(0, 2) * with_poles
            higher_poles = lower_poles + rng.choice((0, 1, 2, 4)) * with_poles
            lower = random_signature(rng, g, lower_poles, rng.randint(1, 6))
            higher = random_signature(rng, g, higher_poles, rng.randint(2, 12 - higher_poles))
            if lower is None or higher is None or higher.n <= lower.n:
                continue
            answer = st.is_adjacent(higher, lower)
            assert answer == partition_oracle(higher, lower), (higher.orders, lower.orders)
            answers.append(answer)
        assert 1000 < sum(answers) < 3000


def random_signature(rng, g, poles, zeros):
    """A random signature of genus g with the given numbers of poles and
    zeros, or None when no positive orders sum as they must."""
    total = 4 * g - 4 + poles
    if zeros > total:
        return None
    cuts = sorted(rng.sample(range(1, total), zeros - 1))
    orders = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return sig(g, sorted(orders, reverse=True) + [-1] * poles)


def multiset_refinements(order, max_len):
    """Every parts multiset a zero reaches with at most ``max_len`` parts,
    by breadth-first search over raw sorted tuples."""
    seen = {(order,)}
    frontier = [(order,)]
    while frontier:
        fresh = []
        for state in frontier:
            for idx, k in enumerate(state):
                if k < 1:
                    continue
                for m in (2, 3, 4):
                    if len(state) - 1 + m > max_len:
                        continue
                    for parts in itertools.combinations_with_replacement(
                        range(-1, k + m), m
                    ):
                        if 0 in parts or sum(parts) != k:
                            continue
                        if m == 2 and k % 2 == 0 and parts[0] % 2 != 0:
                            continue
                        nxt = tuple(sorted(state[:idx] + state[idx + 1 :] + parts))
                        if nxt not in seen:
                            seen.add(nxt)
                            fresh.append(nxt)
        frontier = fresh
    return seen


class TestSplitsInto:
    def test_matches_multiset_search(self):
        max_len = 7
        for k in range(1, 11):
            reach = multiset_refinements(k, max_len)
            checked = set()
            for poles in range(max_len):
                for positive in positive_partitions(k + poles):
                    parts = tuple(sorted(positive + (-1,) * poles))
                    if len(parts) > max_len:
                        continue
                    assert st.splits_into(k, parts) == (parts in reach), (k, parts)
                    checked.add(parts)
            assert reach <= checked

    def test_rule_cases(self):
        assert st.splits_into(4, (4,))
        assert st.splits_into(4, (2, 2))
        assert not st.splits_into(4, (3, 1))
        assert not st.splits_into(4, (5, -1))
        assert st.splits_into(3, (4, -1))
        assert st.splits_into(4, (1, 1, 1, 1, 1, -1))

    @pytest.mark.parametrize(
        "order,parts",
        [(4.0, (2.0, 2.0)), ("a", (1,)), (4, (2, 2.0)), (True, (1,)), (2, (True, 1)), (4, ("a",)),
         (4, None)],
        ids=["float", "str", "float-part", "bool", "bool-part", "str-part", "not-iterable"],
    )
    def test_orders_must_be_integers(self, order, parts):
        with pytest.raises(InvalidMove):
            st.splits_into(order, parts)

    def test_malformed_parts(self):
        assert not st.splits_into(4, (2, 1))
        assert not st.splits_into(4, (4, 0))
        assert not st.splits_into(4, (6, -2))
        assert not st.splits_into(-1, (-1,))
        assert not st.splits_into(4, ())
