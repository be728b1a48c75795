import itertools
import random

import pytest

import strata as st
from support import (
    bfs_refinements,
    enumerate_signatures,
    legal_splits_oracle,
    positive_partitions,
)
from strata.errors import (
    BadSum,
    GenusMismatch,
    IndexOutOfRange,
    InvalidMove,
    ParityViolation,
)


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


class TestApplySplit:
    def test_even_split(self):
        assert st.apply_split(sig(2, (4,)), st.SplitMove(0, (2, 2))) == sig(2, (2, 2))

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            st.apply_split(sig(2, (4,)), st.SplitMove(0, (1, 3)))

    def test_four_odd_parts(self):
        assert st.apply_split(sig(2, (4,)), st.SplitMove(0, (1, 1, 1, 1))) == sig(
            2, (1, 1, 1, 1)
        )

    def test_bad_sum(self):
        with pytest.raises(BadSum):
            st.apply_split(sig(2, (4,)), st.SplitMove(0, (1, 2)))

    def test_zero_part_rejected(self):
        with pytest.raises(InvalidMove):
            st.apply_split(sig(2, (4,)), st.SplitMove(0, (4, 0)))

    def test_deep_pole_rejected(self):
        with pytest.raises(InvalidMove):
            st.apply_split(sig(2, (4,)), st.SplitMove(0, (6, -2)))

    def test_pole_source_rejected(self):
        with pytest.raises(InvalidMove):
            st.apply_split(sig(2, (4, 1, -1)), st.SplitMove(2, (-1, -1, 1)))

    def test_five_parts_rejected(self):
        with pytest.raises(InvalidMove):
            st.apply_split(sig(3, (8,)), st.SplitMove(0, (2, 2, 2, 1, 1)))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            st.apply_split(sig(2, (4,)), st.SplitMove(3, (2, 2)))

    @pytest.mark.parametrize("idx", [0.0, True])
    def test_index_must_be_an_integer(self, idx):
        # read as 1, True would name the order 2, where (2, -1, 1) is legal
        with pytest.raises(IndexOutOfRange):
            st.apply_split(sig(2, (4, 2, -1, -1)), st.SplitMove(idx, (2, -1, 1)))

    def test_odd_two_part_split_is_free(self):
        assert st.apply_split(sig(2, (3, 1)), st.SplitMove(0, (1, 2))) == sig(
            2, (1, 2, 1)
        )


class TestLegalSplits:
    @pytest.mark.parametrize("order", ["a", 2.0, True])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(InvalidMove):
            st.legal_splits(order)

    @pytest.mark.parametrize("include_poles", [True, False])
    def test_matches_loose_enumeration(self, include_poles):
        # same tuples in the same order as trying every first part
        for k in range(1, 61):
            assert st.legal_splits(k, include_poles) == legal_splits_oracle(k, include_poles), k


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
        for _ in range(50):
            idx = rng.randrange(s.n)
            if s.orders[idx] < 1:
                continue
            splits = st.legal_splits(s.orders[idx])
            parts = rng.choice(splits)
            t = st.apply_split(s, st.SplitMove(idx, parts))
            back = list(t.orders)
            for p in parts:
                back.remove(p)
            back.append(sum(parts))
            assert st.StratumSignature(t.genus, tuple(back)) == s


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

    def test_malformed_parts(self):
        assert not st.splits_into(4, (2, 1))
        assert not st.splits_into(4, (4, 0))
        assert not st.splits_into(4, (6, -2))
        assert not st.splits_into(-1, (-1,))
        assert not st.splits_into(4, ())


class TestGrouping:
    def test_two_ones_balance_a_two(self):
        s = sig(5, (1,) * 12 + (2, 2))
        # canonical descending order puts the twos first
        assert s.orders[:2] == (2, 2)
        assert st.check_grouping(s, st.GroupingSpec((2, 3), (0,)))

    def test_unbalanced(self):
        s = sig(5, (1,) * 12 + (2, 2))
        assert not st.check_grouping(s, st.GroupingSpec((2,), (0,)))

    def test_equal_weights(self):
        s = sig(2, (1, 1, 1, 1))
        assert st.check_grouping(s, st.GroupingSpec((0,), (1,)))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            st.check_grouping(sig(2, (4,)), st.GroupingSpec((0,), (5,)))

    @pytest.mark.parametrize("index", [1.0, True])
    def test_index_must_be_an_integer(self, index):
        # read as 1, True would name an order that balances index 0
        with pytest.raises(IndexOutOfRange):
            st.check_grouping(sig(2, (2, 2)), st.GroupingSpec((0,), (index,)))

    def test_overlap_rejected(self):
        with pytest.raises(IndexOutOfRange):
            st.check_grouping(sig(2, (2, 2)), st.GroupingSpec((0,), (0,)))

    def test_empty_groups_rejected(self):
        assert not st.check_grouping(sig(2, (2, 2)), st.GroupingSpec((), ()))
