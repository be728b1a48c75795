import itertools
import random

import pytest

import strata as st
from strata.errors import InvalidSignature, OutOfRange
from support import enumerate_signatures, minimal_d_oracle


def sig(g, orders):
    return st.StratumSignature(g, tuple(orders))


def least_class_size(g, extra):
    # independent form of the bound: least n with n(n-3)/2 >= 2g + extra - 2
    target = 2 * g + extra - 2
    n = 1
    while n * (n - 3) < 2 * target:
        n += 1
    return n


class TestAMin:
    def test_genus_two_no_secondary(self):
        assert st.a_min(2, 0) == 5

    def test_genus_five_two_secondary(self):
        assert st.a_min(5, 2) == 7

    def test_genus_three_two_secondary(self):
        assert st.a_min(3, 2) == 6

    def test_matches_quadratic_characterization(self):
        for g in range(2, 20):
            for b in range(0, 20):
                assert st.a_min(g, b) == least_class_size(g, max(b, 1))

    def test_zero_secondary_uses_one_face(self):
        for g in range(2, 30):
            assert st.a_min(g, 0) == st.point_bound(g, 1)

    def test_genus_below_two_rejected(self):
        with pytest.raises(OutOfRange):
            st.a_min(1, 0)
        with pytest.raises(OutOfRange):
            st.a_min(2, -1)
        with pytest.raises(OutOfRange):
            st.point_bound(2, -1)


class TestCascade:
    def test_vacuous(self):
        assert st.gen2_cascade_ok(2, [])

    def test_single_class_passes(self):
        assert st.gen2_cascade_ok(2, [5])

    def test_single_class_fails(self):
        assert not st.gen2_cascade_ok(5, [2])

    def test_tail_sums_matter(self):
        # the same class size can pass late in the cascade and fail early
        assert st.gen2_cascade_ok(2, [4])
        assert not st.gen2_cascade_ok(2, [4, 4])


class TestWrongKindRejected:
    @pytest.mark.parametrize("s", ["x", None, 3, (2, (4,))], ids=["str", "None", "int", "tuple"])
    @pytest.mark.parametrize(
        "verdict", [st.hy2_verdict, st.main_theorem_verdict, st.null_prop_verdict]
    )
    def test_verdicts_need_a_signature(self, verdict, s):
        with pytest.raises(InvalidSignature):
            verdict(s)

    @pytest.mark.parametrize("weights", [None, 3])
    def test_minimal_d_needs_a_sequence(self, weights):
        with pytest.raises(OutOfRange):
            st.minimal_d(weights, 0)

    @pytest.mark.parametrize("b_list", [None, 3, ["a", "b"], [None], [True]])
    def test_cascade_needs_integer_sizes(self, b_list):
        with pytest.raises(OutOfRange):
            st.gen2_cascade_ok(2, b_list)


class TestMinimalDOracle:
    # `strata dmin` prints coeffs, so the whole witness is pinned, not just d
    def test_acceptance_range(self):
        for size in (2, 3, 4):
            for weights in itertools.combinations_with_replacement(range(1, 13), size):
                for l in range(size):
                    assert st.minimal_d(weights, l) == minimal_d_oracle(weights, l)

    def test_seeded_tuples_with_poles(self):
        rng = random.Random(47)
        for _ in range(3000):
            weights = tuple(rng.choice((-1, rng.randint(1, 30))) for _ in range(rng.randint(2, 12)))
            l = rng.randrange(len(weights))
            assert st.minimal_d(weights, l) == minimal_d_oracle(weights, l), (weights, l)


class TestHy2:
    def test_flagship_stratum(self):
        assert st.hy2_verdict(sig(5, (1,) * 12 + (2, 2)))[0]

    def test_no_equal_pair(self):
        assert not st.hy2_verdict(sig(4, (1,) * 10 + (2,)))[0]

    def test_principal_stratum(self):
        assert not st.hy2_verdict(sig(2, (1, 1, 1, 1)))[0]

    def test_exactly_g_plus_5_simple_zeros(self):
        # at least g+5 simple zeros: ten are enough at g = 5, not at g = 6
        assert st.hy2_verdict(sig(5, (2, 2, 2) + (1,) * 10)) == (True, "even pair present")
        assert st.hy2_verdict(sig(6, (2,) * 5 + (1,) * 10)) == (
            False,
            "need at least g+5 simple zeros, have 10",
        )

    def test_odd_simple_zero_count(self):
        # 2n must be even: nine simple zeros cannot satisfy the shape
        assert not st.hy2_verdict(sig(4, (1,) * 9 + (2, 2) + (-1,)))[0]


class TestMainTheorem:
    def test_flagship_stratum(self):
        assert st.main_theorem_verdict(sig(5, (1,) * 12 + (2, 2)))[0]

    def test_large_single_order_blocks(self):
        assert not st.main_theorem_verdict(sig(10, (1,) * 16 + (20,)))[0]

    def test_no_higher_orders(self):
        assert not st.main_theorem_verdict(sig(3, (1,) * 8))[0]

    def test_odd_higher_order_blocks(self):
        assert not st.main_theorem_verdict(sig(5, (1,) * 11 + (2, 3)))[0]


class TestNullProp:
    def test_flagship_stratum(self):
        assert st.null_prop_verdict(sig(5, (1,) * 12 + (2, 2)))[0]

    def test_genus_two_excluded(self):
        assert not st.null_prop_verdict(sig(2, (1, 1, 1, 1)))[0]

    @pytest.mark.parametrize(
        "genus, orders, clause",
        [
            (2, (2, 2), "needs genus greater than 2"),
            (3, (2, 2) + (1,) * 4, "need more than 7 simple zeros, have 4"),
        ],
    )
    def test_genus_clause_ends_at_two(self, genus, orders, clause):
        assert st.null_prop_verdict(sig(genus, orders)) == (False, clause)

    def test_bound_is_weaker_than_main(self):
        # ten simple zeros: above g+4=9 but not above g+5=10
        s = sig(5, (1,) * 10 + (2, 2, 2))
        assert st.null_prop_verdict(s)[0]
        assert not st.main_theorem_verdict(s)[0]


class TestHypothesisChain:
    def test_monotone_chain_and_connectivity(self):
        for g in range(2, 7):
            for s in enumerate_signatures(g, max_poles=2):
                if st.classify_connectivity(s).is_empty:
                    continue
                if st.main_theorem_verdict(s)[0]:
                    assert st.null_prop_verdict(s)[0]
                    report = st.classify_connectivity(s)
                    assert report.component_count == 1
                    assert report.reason == "c1-theorem"
                if st.null_prop_verdict(s)[0]:
                    rest = [k for k in s.orders if k != 1]
                    assert rest and all(k > 0 and k % 2 == 0 for k in rest)
                    assert len(rest) != len(set(rest))
