import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import strata as st
from strata.errors import EmptyStratum, InvalidJson, InvalidSignature, InvalidSpec
from strata import signatures
from support import enumerate_signatures, positive_partitions, two_component_reason_oracle


def sig(g, orders):
    return st.StratumSignature(g, tuple(orders))


class TestValidation:
    def test_orders_stored_descending(self):
        assert sig(2, (-1, 6, -1)).orders == (6, -1, -1)

    def test_bad_sum_reported(self):
        with pytest.raises(InvalidSignature) as exc:
            sig(2, (5,))
        assert "sum" in exc.value.failed

    def test_bad_entries_reported(self):
        with pytest.raises(InvalidSignature) as exc:
            sig(2, (4, 0))
        assert "entries" in exc.value.failed
        with pytest.raises(InvalidSignature):
            sig(2, (6, -2))

    def test_bad_genus(self):
        with pytest.raises(InvalidSignature) as exc:
            sig(-1, (4,))
        assert "genus" in exc.value.failed

    def test_bools_are_not_integers(self):
        with pytest.raises(InvalidSignature) as exc:
            sig(True, ())
        assert exc.value.failed == ("genus",)
        with pytest.raises(InvalidSignature) as exc:
            sig(2, (3, True))
        assert exc.value.failed == ("entries",)

    @pytest.mark.parametrize("orders", [None, (4, "a")])
    def test_orders_that_do_not_sort_are_bad_entries(self, orders):
        with pytest.raises(InvalidSignature) as exc:
            st.StratumSignature(2, orders)
        assert exc.value.failed == ("entries",)

    def test_both_failures_reported(self):
        with pytest.raises(InvalidSignature) as exc:
            sig(2, (3, 0))
        assert set(exc.value.failed) == {"entries", "sum"}


class TestDimension:
    def test_principal_stratum(self):
        assert st.dimension(sig(2, (1, 1, 1, 1))) == 6

    def test_four_poles_sphere(self):
        assert st.dimension(sig(0, (-1, -1, -1, -1))) == 2

    def test_two_zeros(self):
        assert st.dimension(sig(3, (6, 2))) == 6

    def test_empty_raises(self):
        with pytest.raises(EmptyStratum):
            st.dimension(sig(2, (4,)))

    def test_positive_on_positive_genus(self):
        for g in (1, 2, 3):
            for s in enumerate_signatures(g, max_poles=3):
                if not st.is_empty(s):
                    assert st.dimension(s) >= 1


class TestEmptiness:
    @pytest.mark.parametrize(
        "g,orders", [(1, ()), (1, (-1, 1)), (2, (3, 1)), (2, (4,))]
    )
    def test_the_four_exceptions(self, g, orders):
        assert st.is_empty(sig(g, orders))

    @pytest.mark.parametrize(
        "g,orders", [(2, (1, 1, 1, 1)), (2, (2, 2)), (1, (1, -1, 1, -1)), (3, (8,))]
    )
    def test_non_exceptions(self, g, orders):
        assert not st.is_empty(sig(g, orders))


class TestConnectivity:
    def test_family_one(self):
        report = st.classify_connectivity(sig(3, (6, 2)))
        assert report.component_count == 2
        assert report.reason == "Lanneau-family-1"

    def test_genus_two_special(self):
        report = st.classify_connectivity(sig(2, (6, -1, -1)))
        assert report.component_count == 2
        assert report.reason == "Lanneau-g2-special"
        assert st.classify_connectivity(sig(2, (3, 3, -1, -1))).component_count == 2

    def test_many_simple_zeros(self):
        report = st.classify_connectivity(sig(2, (1, 1, 1, 1)))
        assert report.component_count == 1
        assert report.reason == "c1-theorem"

    def test_sphere_always_connected(self):
        report = st.classify_connectivity(sig(0, (-1, -1, -1, -1)))
        assert report.component_count == 1
        assert report.reason == "genus-le-1"

    def test_default_tag(self):
        report = st.classify_connectivity(sig(2, (2, 2)))
        assert report.component_count == 1
        assert report.reason == "one-component-default"

    def test_classify_is_total(self):
        report = st.classify_connectivity(sig(1, ()))
        assert report.is_empty and report.component_count == 0

    def test_low_genus_never_two_components(self):
        for g in (0, 1):
            for s in enumerate_signatures(g, max_poles=4):
                if st.is_empty(s):
                    continue
                assert st.classify_connectivity(s).component_count == 1

    def test_family_matching_is_multiset_based(self):
        assert st.classify_connectivity(sig(3, (2, 6))).component_count == 2

    def test_pole_pair_family(self):
        # Lanneau's third family at k = -1: Q(2g-1, 2g-1, -1, -1)
        for g in (3, 4, 5):
            report = st.classify_connectivity(sig(g, (2 * g - 1, 2 * g - 1, -1, -1)))
            assert report.component_count == 2
            assert report.reason == "Lanneau-family-3"

    def test_equal_dimension_double_covers_have_two_components(self):
        # A double cover of a genus-0 stratum whose dimension equals the
        # cover's fills a whole component, and that component is
        # hyperelliptic; at g >= 3 a stratum with one has at least two.
        # Equal dimension forces the base to have at most 2g + 4 points, two
        # more than the ramified poles.  Covers that may be squares of
        # abelian differentials are skipped.
        for g in (3, 4, 5):
            r = 2 * g + 2
            lifts = set()
            for poles in range(4, r + 3):
                for zeros in positive_partitions(poles - 4):
                    base = sig(0, zeros + (-1,) * poles)
                    if base.n > r + 2:
                        continue
                    for idx in itertools.combinations(range(base.n), r):
                        spec = st.DoubleCoverSpec(base, frozenset(idx), g)
                        cover, maybe_abelian = st.double_cover(spec)
                        if not maybe_abelian and st.dimension(cover) == st.dimension(base):
                            lifts.add(cover)
            assert sig(g, (2 * g - 1, 2 * g - 1, -1, -1)) in lifts
            for cover in lifts:
                assert st.classify_connectivity(cover).component_count >= 2, cover


def family_members(g):
    """Every member of Lanneau's three hyperelliptic families in genus g,
    built from its parameter k, with the reason it should be reported under."""
    for k in range(0, g - 1):
        yield (4 * (g - k) - 6, 4 * k + 2), "Lanneau-family-1"
    for k in range(0, g):
        yield (2 * (g - k) - 3,) * 2 + (4 * k + 2,), "Lanneau-family-2"
    for k in range(-1, g - 1):
        yield (2 * (g - k) - 3,) * 2 + (2 * k + 1,) * 2, "Lanneau-family-3"


class TestFamilyRules:
    def test_rules_match_the_scan_over_k(self, monkeypatch):
        # the classification with the family rules against the same
        # classification with each family scanned member by member
        sigs = [s for g in range(2, 9) for s in enumerate_signatures(g, max_poles=4)]
        got = [st.classify_connectivity(s) for s in sigs]
        monkeypatch.setattr(signatures, "_two_component_reason", two_component_reason_oracle)
        for s, report in zip(sigs, got):
            assert report == st.classify_connectivity(s), s

    def test_every_family_member(self):
        for g in range(3, 61):
            for orders, reason in family_members(g):
                report = st.classify_connectivity(sig(g, orders))
                assert (report.component_count, report.reason) == (2, reason), (g, orders)

    def test_huge_genus(self):
        # a scan over k never finishes here; the rules take constant time
        g = 10**12
        cases = {
            (4 * g - 4,): (1, "one-component-default"),
            (4 * g - 10, 6): (2, "Lanneau-family-1"),
            (4 * g - 2, -1, -1): (2, "Lanneau-family-2"),
            (2 * g - 1, 2 * g - 1, -1, -1): (2, "Lanneau-family-3"),
        }
        for orders, expected in cases.items():
            report = st.classify_connectivity(sig(g, orders))
            assert (report.component_count, report.reason) == expected, orders


class TestDoubleCover:
    def test_pole_heavy_base(self):
        base = sig(0, (2, -1, -1, -1, -1, -1, -1))
        cover, flag = st.double_cover(st.DoubleCoverSpec(base, frozenset(range(6)), 2))
        assert cover == sig(2, (6, -1, -1))
        assert flag is False

    def test_all_poles_ramified(self):
        base = sig(0, (-1, -1, -1, -1))
        cover, flag = st.double_cover(st.DoubleCoverSpec(base, frozenset(range(4)), 1))
        assert cover == sig(1, ())
        assert flag is True

    def test_two_simple_zeros(self):
        base = sig(0, (1, 1, -1, -1, -1, -1, -1, -1))
        cover, flag = st.double_cover(st.DoubleCoverSpec(base, frozenset(range(8)), 3))
        assert cover == sig(3, (4, 4))
        assert flag is True

    def test_wrong_ramification_count(self):
        base = sig(0, (-1, -1, -1, -1))
        with pytest.raises(InvalidSpec):
            st.double_cover(st.DoubleCoverSpec(base, frozenset({0, 1}), 1))

    def test_base_must_be_genus_zero(self):
        base = sig(2, (4,))
        with pytest.raises(InvalidSpec):
            st.double_cover(st.DoubleCoverSpec(base, frozenset(range(1)), 0))

    def test_index_out_of_range(self):
        base = sig(0, (-1, -1, -1, -1))
        with pytest.raises(InvalidSpec):
            st.double_cover(st.DoubleCoverSpec(base, frozenset({0, 1, 2, 9}), 1))

    def test_repeated_index_rejected(self):
        # seven indices, six of them distinct: as a set they would pass for
        # the six that genus 2 needs
        base = sig(0, (2, -1, -1, -1, -1, -1, -1))
        with pytest.raises(InvalidSpec, match=r"more than once: \[0, 0, 1, 2, 3, 4, 5\]$"):
            st.DoubleCoverSpec(base, [0, 0, 1, 2, 3, 4, 5], 2)

    @given(data=hst.data())
    @settings(max_examples=200, deadline=None)
    def test_degree_conservation(self, data):
        zeros = data.draw(hst.lists(hst.integers(1, 5), max_size=4))
        poles = sum(zeros) + 4
        base = sig(0, tuple(zeros) + (-1,) * poles)
        g = data.draw(hst.integers(0, (base.n - 2) // 2))
        idx = data.draw(
            hst.sets(hst.sampled_from(range(base.n)), min_size=2 * g + 2, max_size=2 * g + 2)
        )
        cover, flag = st.double_cover(st.DoubleCoverSpec(base, frozenset(idx), g))
        assert cover.genus == g
        assert sum(cover.orders) == 4 * g - 4
        assert flag == all(k % 2 == 0 for k in cover.orders)


class TestJson:
    def test_round_trip(self):
        s = sig(2, (6, -1, -1))
        assert st.StratumSignature.from_json(s.to_json()) == s

    def test_json_shape(self):
        assert json.loads(sig(2, (6, -1, -1)).to_json()) == {
            "genus": 2,
            "orders": [6, -1, -1],
        }

    def test_deserialize_reports_failures(self):
        with pytest.raises(InvalidSignature) as exc:
            st.StratumSignature.from_json('{"genus": 2, "orders": [5]}')
        assert exc.value.failed == ("sum",)

    def test_deserialize_missing_fields(self):
        with pytest.raises(InvalidSignature):
            st.StratumSignature.from_json('{"genus": 2}')

    @pytest.mark.parametrize(
        "data",
        [
            {"genus": True, "orders": []},
            {"genus": 1, "orders": [True, -1]},
            {"genus": 2.0, "orders": [4]},
            {"genus": 2, "orders": 4},
            {"genus": 2, "orders": "4"},
            {"genus": 2, "orders": ["a", 1]},
            {"genus": 2, "orders": [4.0]},
            {"genus": 2, "orders": None},
        ],
    )
    def test_deserialize_wrong_types(self, data):
        # JSON true decodes to a bool, which is an int to isinstance
        with pytest.raises(InvalidSignature) as exc:
            st.StratumSignature.from_json_dict(data)
        assert exc.value.failed == ("fields",)
        with pytest.raises(InvalidSignature) as exc:
            st.StratumSignature.from_json(json.dumps(data))
        assert exc.value.failed == ("fields",)

    @pytest.mark.parametrize("text", ["", "{", '{"genus": 2,}', "[" * 3000])
    def test_undecodable_text_is_invalid_json(self, text):
        with pytest.raises(InvalidJson):
            st.StratumSignature.from_json(text)
