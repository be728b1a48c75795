import functools
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import types
import weakref
from collections import Counter, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import strata as st
from strata import braids, criteria
from strata.braids import I_COMMUTATOR, NULL_RHO, SQUARE_TRANSPOSITION, TRANSPOSITION
from strata.errors import (
    IndexOutOfRange,
    InvalidLetter,
    InvalidSurface,
    NoOtherWeights,
    NotInKernel,
    OutOfRange,
    PreconditionUnmet,
    ZeroWeight,
)
from support import (
    factor_by_permutation_oracle,
    factorize_oracle,
    free_reduce_oracle,
    inverse_word,
    minimal_d_oracle,
    permutation_image_oracle,
    random_kernel_word,
    random_word,
    validate_letters_oracle,
)

SURF112 = st.MarkedSurface(2, (1, 1, 2))
FLAGSHIP = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
EQUAL8 = st.MarkedSurface(3, (1,) * 8, stratum_mode=True)


def word(surf, *letters):
    return st.BraidWord(surf, tuple(letters))


def _parsed(surf, letters):
    """The word read back from the JSON of its surface and letters."""
    data = {"surface": surf.to_json_dict(), "letters": [lt.to_json_dict() for lt in letters]}
    return st.BraidWord.from_json_dict(json.loads(json.dumps(data)))


class _Marked(st.Letter):
    """A Letter subclass that declares no __slots__, so it has a __dict__."""


class _SlottedMarked(st.Letter):
    """A Letter subclass that adds no slots."""

    __slots__ = ()


class TestSurfaceAndLetters:
    def test_stratum_mode_checks_sum(self):
        with pytest.raises(InvalidSurface):
            st.MarkedSurface(2, (1, 1, 1), stratum_mode=True)

    def test_weights_validated(self):
        with pytest.raises(InvalidSurface):
            st.MarkedSurface(2, (1, 0, 3))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, (1.5,)), "'weights' must be a list of integers"),
            ((2, (True, 1)), "'weights' must be a list of integers"),
            ((True, ()), "'genus' and 'punctures' must be integers"),
            ((2.0, (4,)), "'genus' and 'punctures' must be integers"),
            ((2, (4,), 1.0), "'genus' and 'punctures' must be integers"),
            ((2, (4,), 0, 1), "'stratum_mode' must be true or false"),
            ((-1, ()), "genus must be non-negative"),
            ((2, (4,), -1), "puncture count must be non-negative"),
            ((2, None), "'weights' must be a list of integers"),
            ((2.0, None), "'genus' and 'punctures' must be integers"),
        ],
        ids=[
            "float-weight",
            "bool-weight",
            "bool-genus",
            "float-genus",
            "float-punctures",
            "int-mode",
            "negative-genus",
            "negative-punctures",
            "non-iterable-weights",
            "genus-before-weights",
        ],
    )
    def test_field_types_checked_by_constructor(self, args, message):
        with pytest.raises(InvalidSurface, match=message):
            st.MarkedSurface(*args)

    def test_rho_direction_range(self):
        with pytest.raises(InvalidLetter):
            word(SURF112, st.rho(1, 5))

    def test_sigma_needs_equal_weights(self):
        with pytest.raises(InvalidLetter):
            word(SURF112, st.sigma(1, 3))

    def test_sigma_needs_increasing_indices(self):
        with pytest.raises(InvalidLetter):
            word(SURF112, st.sigma(2, 1))

    def test_kappa_any_weights(self):
        assert len(word(SURF112, st.kappa(1, 3)).letters) == 1

    @pytest.mark.parametrize("i, j", [(2, 2), (3, 2), (1, 5)])
    def test_kappa_needs_increasing_indices_in_range(self, i, j):
        surf = st.MarkedSurface(2, (1, 1, 1, 1))
        with pytest.raises(InvalidLetter, match=r"^kappa needs i < j <= n, got \(%d, %d\)$" % (i, j)):
            word(surf, st.kappa(i, j))

    def test_puncture_loop_range(self):
        surf = st.MarkedSurface(2, (1, 1), punctures=1)
        assert len(word(surf, st.puncture_loop(1, 1)).letters) == 1
        with pytest.raises(InvalidLetter):
            word(surf, st.puncture_loop(1, 2))

    def test_exponent_restricted(self):
        with pytest.raises(InvalidLetter):
            word(SURF112, st.rho(1, 1, 2))

    def test_first_invalid_letter_is_reported(self):
        bad_direction, bad_weights = st.rho(1, 5), st.sigma(1, 3)
        with pytest.raises(InvalidLetter, match=r"^homology direction 5 out of range 1\.\.4$"):
            word(SURF112, st.rho(1, 1), bad_direction, bad_weights)
        with pytest.raises(InvalidLetter, match=r"^sigma exchanges equal weights only: 1 vs 2$"):
            word(SURF112, bad_weights, bad_direction)
        # repeats of a valid letter, and of both bad ones, around the first fault
        with pytest.raises(InvalidLetter, match=r"^sigma exchanges equal weights only: 1 vs 2$"):
            word(
                SURF112, st.rho(1, 1), st.rho(1, 1), st.sigma(1, 3), st.rho(1, 1),
                st.rho(1, 5), bad_weights, st.rho(1, 5),
            )

    @pytest.mark.parametrize(
        "letters, message",
        [
            ([st.rho(1.0, 1)], "^rho letter fields 'i', 'r' and 'exp' must be integers$"),
            ([st.rho(1, 1, 1.0)], "^rho letter fields 'i', 'r' and 'exp' must be integers$"),
            ([st.rho(1, 1, True)], "^rho letter fields 'i', 'r' and 'exp' must be integers$"),
            ([st.kappa(True, 2)], "^kappa letter fields 'i', 'j' and 'exp' must be integers$"),
            ([st.Letter([], 1.0, 1)], r"^unknown letter kind \[\]$"),
            # equal, and of equal hash, to the valid letter before them
            (
                [st.rho(1, 1), st.rho(1, 1, True)],
                "^rho letter fields 'i', 'r' and 'exp' must be integers$",
            ),
            (
                [st.kappa(1, 2), st.kappa(1.0, 2)],
                "^kappa letter fields 'i', 'j' and 'exp' must be integers$",
            ),
        ],
        ids=[
            "float-index",
            "float-exp",
            "bool-exp",
            "bool-index",
            "unhashable-kind",
            "bool-exp-after-int",
            "float-index-after-int",
        ],
    )
    def test_letter_field_types_checked(self, letters, message):
        # each faulty letter is in range when read as numbers: only the type is wrong
        with pytest.raises(InvalidLetter, match=message):
            word(SURF112, *letters)

    def test_product_needs_one_surface(self):
        # a product is built on one surface, which checks the other word's letters
        other = word(st.MarkedSurface(2, (1, 1, 1, 1)), st.sigma(1, 3))
        with pytest.raises(InvalidLetter, match=r"^sigma exchanges equal weights only: 1 vs 2$"):
            st.BraidWord(SURF112, word(SURF112, st.rho(1, 1)).letters + other.letters)

    def test_exponent_checked_before_index(self):
        with pytest.raises(InvalidLetter, match=r"^letter exponent must be \+-1, got 2$"):
            word(SURF112, st.rho(9, 1, 2))

    def test_unknown_kind_built_directly(self):
        with pytest.raises(InvalidLetter, match=r"^unknown letter kind 'tau'$"):
            word(SURF112, st.rho(1, 1), st.Letter("tau", 1, 1))

    def test_word_needs_a_surface(self):
        with pytest.raises(InvalidSurface, match=r"^expected a MarkedSurface, got NoneType$"):
            st.BraidWord(None)

    @pytest.mark.parametrize(
        "letters",
        [
            (1, 2),
            5,
            # duck-typed letters: each has the four fields, none is a Letter
            [types.SimpleNamespace(kind="rho", i=1, second=1, exp=1)],
            [st.rho(1, 1), namedtuple("Fields", "kind i second exp")("rho", 1, 1, 1)],
        ],
        ids=["ints", "int", "namespace", "namedtuple"],
    )
    def test_word_needs_a_sequence_of_letters(self, letters):
        with pytest.raises(InvalidLetter, match=r"^word letters must be a sequence of Letter"):
            st.BraidWord(SURF112, letters)

    @pytest.mark.parametrize("build", [st.BraidWord, _parsed], ids=["constructor", "json"])
    def test_equal_letters_are_one_object(self, build):
        letters = [st.rho(1, 1), st.sigma(1, 2), st.rho(1, 1), st.rho(1, 1, -1), st.sigma(1, 2)]
        w = build(SURF112, letters)
        assert w.letters == tuple(letters)
        assert len({id(lt) for lt in w.letters}) == len(set(letters)) == 3
        assert letters[0] is letters[2]  # each Letter call returns the shared object

    def test_letter_subclass_is_kept(self):
        plain, marked = st.rho(1, 1), _Marked("rho", 1, 1)
        assert marked != plain  # equal fields, another class
        w = word(SURF112, plain, marked, st.rho(1, 1), _Marked("rho", 1, 1))
        assert [type(lt) for lt in w.letters] == [st.Letter, _Marked, st.Letter, _Marked]
        assert w.letters[0] is w.letters[2] is plain and w.letters[1] is w.letters[3] is marked

    @pytest.mark.parametrize("cls", [_Marked, _SlottedMarked], ids=["dict", "no-slots"])
    def test_letter_subclass_is_a_value(self, cls):
        # the Letter constructor builds the subclass, with or without a __dict__
        lt = cls("rho", 1, 1)
        assert type(lt) is cls and cls._derived("rho", 1, 1, 1) == lt
        assert lt != st.rho(1, 1)
        assert repr(lt) == cls.__qualname__ + "(kind='rho', i=1, second=1, exp=1)"
        with pytest.raises(AttributeError, match="cannot assign to field 'exp'"):
            lt.exp = -1
        with pytest.raises(AttributeError, match="cannot delete field 'kind'"):
            del lt.kind
        with pytest.raises(AttributeError):
            lt.not_a_field = 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(lt, protocol))
            assert type(back) is cls and back == lt and hash(back) == hash(lt)

    def test_dropped_letter_leaves_the_table(self):
        # fields no other test uses, so that only this name holds the letter
        lt = st.Letter("rho", 97, 89, -1)
        key, ref = (st.Letter, "rho", 97, 89, -1), weakref.ref(lt)
        assert braids._LETTERS[key] is lt
        del lt
        gc.collect()
        assert ref() is None and key not in braids._LETTERS

    @pytest.mark.parametrize("field", [True, 1.0], ids=["bool", "float"])
    def test_letter_with_a_non_int_field_is_not_shared(self, field):
        for fields in [(field, 1, 1), (1, field, 1), (1, 1, field)]:
            lt = st.Letter("rho", *fields)
            assert lt == st.Letter("rho", 1, 1) and lt is not st.Letter("rho", 1, 1)
            assert lt is not st.Letter("rho", *fields)

    def test_subclass_letter_is_shared_apart(self):
        marked, plain = _Marked("rho", 1, 1), st.rho(1, 1)
        assert marked is not plain and marked is _Marked("rho", 1, 1) and plain is st.rho(1, 1)
        assert _SlottedMarked("rho", 1, 1) is not marked

    @pytest.mark.parametrize("cls", [st.Letter, _Marked], ids=["Letter", "subclass"])
    def test_pickle_returns_the_shared_letter(self, cls):
        lt = cls("sigma", 1, 2, -1)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(lt, protocol)) is lt

    def test_certificate_needs_a_word(self):
        with pytest.raises(InvalidSurface, match=r"^expected a BraidWord, got NoneType$"):
            st.FactorCertificate(NULL_RHO, None).verify()


# The letters of the property below, all made through a public constructor:
# letters valid on PUNCTURED of every kind and class, letters with
# out-of-range, bool or float fields or an unknown kind, and elements that
# are not letters.
PUNCTURED = st.MarkedSurface(2, (1, 1, 2), 1)
_CLASSES = hst.sampled_from([st.Letter, st.Letter, _Marked, _SlottedMarked])
_VALID = hst.builds(
    lambda cls, fields, exp: cls(*fields, exp),
    _CLASSES,
    hst.sampled_from(
        [("rho", i, r) for i in (1, 2, 3) for r in (1, 2, 3, 4)]
        + [("sigma", 1, 2), ("kappa", 1, 2), ("kappa", 2, 3), ("kappa_puncture", 3, 1)]
    ),
    hst.sampled_from([1, -1]),
)
_FIELDS = hst.one_of(hst.integers(-1, 5), hst.sampled_from([True, False, 1.0, 2.0]))
_FAULTY = hst.builds(
    lambda cls, kind, i, second, exp: cls(kind, i, second, exp),
    _CLASSES,
    hst.sampled_from(["rho", "sigma", "kappa", "kappa_puncture", "tau", []]),
    _FIELDS,
    _FIELDS,
    _FIELDS,
)
_NOT_LETTERS = hst.sampled_from(
    [None, ("rho", 1, 1, 1), types.SimpleNamespace(kind="rho", i=1, second=1, exp=1)]
)


class TestLettersAgainstOracle:
    @given(data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_word_matches_the_per_letter_loop(self, data):
        # each element repeats an earlier one, as the same object or rebuilt
        # through its constructor, or is new: most often a valid letter
        letters = []
        for _ in range(data.draw(hst.integers(0, 12))):
            if letters and data.draw(hst.booleans()):
                lt = data.draw(hst.sampled_from(letters))
                if isinstance(lt, st.Letter) and data.draw(hst.booleans()):
                    lt = type(lt)(lt.kind, lt.i, lt.second, lt.exp)
            else:
                pick = data.draw(hst.integers(0, 9))
                lt = data.draw(_VALID if pick < 8 else _FAULTY if pick == 8 else _NOT_LETTERS)
            letters.append(lt)
        try:
            expected = validate_letters_oracle(letters, PUNCTURED)
        except InvalidLetter as exc:
            with pytest.raises(InvalidLetter) as info:
                st.BraidWord(PUNCTURED, letters)
            assert str(info.value) == str(exc)
            return
        except TypeError:
            with pytest.raises(InvalidLetter, match="^word letters must be a sequence of Letter"):
                st.BraidWord(PUNCTURED, letters)
            return
        got = st.BraidWord(PUNCTURED, letters).letters
        assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))
        # one object per distinct (class, fields)
        distinct = {(type(lt), lt.kind, lt.i, lt.second, lt.exp) for lt in got}
        assert len({id(lt) for lt in got}) == len(distinct)


class TestFreeReduce:
    def test_adjacent_cancellation(self):
        w = word(SURF112, st.rho(1, 1), st.rho(1, 1, -1))
        assert braids._reduce(w.letters) == []

    def test_already_reduced(self):
        w = word(SURF112, st.sigma(1, 2))
        assert braids._reduce(w.letters) == list(w.letters)

    def test_nested_cancellation(self):
        w = word(
            SURF112,
            st.rho(1, 1),
            st.rho(2, 1),
            st.rho(2, 1, -1),
            st.rho(1, 1, -1),
        )
        assert braids._reduce(w.letters) == []


# four letters on SURF112, each with both exponents, each as the shared
# object and as a second object equal to it
_LAZY_ALPHABET = [
    (kind, i, second, exp)
    for kind, i, second in (("rho", 1, 1), ("rho", 2, 1), ("kappa", 1, 2), ("rho", 1, 2))
    for exp in (1, -1)
]


def _lazy_letters(data, size):
    fields = _LAZY_ALPHABET[: 2 * size]
    pool = [st.Letter(*f) for f in fields] + [st.Letter._derived(*f) for f in fields]
    return data.draw(hst.lists(hst.sampled_from(pool), max_size=12))


class TestReduceTimesInverse:
    """``_reduce(u, v)``, which makes the inverse of a letter of v only when
    it stays, against the step-back oracle on u followed by the inverse of v
    built through the public constructor."""

    @staticmethod
    def expected(u, v):
        inverse = inverse_word(st.BraidWord(SURF112, tuple(v))).letters
        return list(free_reduce_oracle(st.BraidWord(SURF112, tuple(u) + inverse)).letters)

    @given(data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_stable_reordering_of_own_letters(self, data):
        # as in the peel: v holds u's own objects, sorted stably by some key
        u = _lazy_letters(data, data.draw(hst.integers(3, 4)))
        ranks = data.draw(hst.lists(hst.integers(0, 2), min_size=len(u), max_size=len(u)))
        v = [lt for _, lt in sorted(zip(ranks, u), key=lambda pair: pair[0])]
        assert braids._reduce(u, v) == self.expected(u, v)
        peel_order = sorted((lt for lt in u if lt.kind == "rho"), key=lambda lt: lt.second)
        peel_order += [lt for lt in u if lt.kind == "kappa"]
        assert braids._reduce(u, peel_order) == self.expected(u, peel_order)

    @given(data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_second_word(self, data):
        size = data.draw(hst.integers(3, 4))
        u, v = _lazy_letters(data, size), _lazy_letters(data, size)
        assert braids._reduce(u, v) == self.expected(u, v)
        # v defaults to empty: the first loop alone
        assert braids._reduce(u) == self.expected(u, ())

    def test_equal_distinct_letter_cancels(self):
        lt = st.rho(1, 1)
        twin = st.Letter._derived("rho", 1, 1, 1)
        assert twin is not lt and braids._reduce([lt], [twin]) == []
        kept = braids._reduce([lt], [st.rho(1, 1, -1)])
        assert kept == [lt, lt] and kept[1] is not lt  # the inverse, made when kept


class TestPermutationImage:
    def test_single_swap(self):
        assert st.permutation_image(word(SURF112, st.sigma(1, 2))) == (2, 1, 3)

    def test_pure_letters_are_trivial(self):
        w = word(SURF112, st.rho(1, 1), st.kappa(1, 3))
        assert st.permutation_image(w) == (1, 2, 3)

    def test_three_cycle(self):
        surf = st.MarkedSurface(2, (1, 1, 1))
        w = word(surf, st.sigma(1, 2), st.sigma(2, 3))
        perm = st.permutation_image(w)
        assert sorted(perm) == [1, 2, 3] and perm != (1, 2, 3)
        assert Counter(perm)[1] == 1 and perm == (3, 1, 2)


class TestAbelJacobi:
    def test_weight_scales_contribution(self):
        assert st.abel_jacobi(word(SURF112, st.rho(3, 1))) == (2, 0, 0, 0)

    def test_exchanges_vanish(self):
        assert st.abel_jacobi(word(SURF112, st.sigma(1, 2))) == (0, 0, 0, 0)

    def test_balanced_loop(self):
        w = word(SURF112, st.rho(1, 1), st.rho(2, 1), st.rho(3, 1, -1))
        assert st.abel_jacobi(w) == (0, 0, 0, 0)
        assert st.in_kernel(w)

    def test_nonkernel(self):
        assert not st.in_kernel(word(SURF112, st.rho(3, 1)))

    def test_empty_word_in_kernel(self):
        assert st.in_kernel(word(SURF112))


class TestCertifyNullRho:
    def test_accepts_balanced_fixed_direction(self):
        w = word(SURF112, st.rho(1, 1), st.rho(2, 1), st.rho(3, 1, -1))
        assert st.certify_null_rho(w) == (True, 1)

    def test_rejects_mixed_directions(self):
        surf = st.MarkedSurface(2, (1, 1))
        w = word(surf, st.rho(1, 1), st.rho(2, 2, -1))
        assert st.certify_null_rho(w) == (False, None)

    def test_empty_word_vacuous(self):
        assert st.certify_null_rho(word(SURF112)) == (True, None)

    def test_rejects_unbalanced(self):
        w = word(SURF112, st.rho(1, 1), st.rho(3, 1, -1))
        assert st.certify_null_rho(w) == (False, None)


class TestCertifyICommutator:
    def test_commutator_of_directions(self):
        w = word(
            SURF112,
            st.rho(1, 1),
            st.rho(1, 2),
            st.rho(1, 1, -1),
            st.rho(1, 2, -1),
        )
        assert st.certify_i_commutator(w, 1)

    def test_single_loop_with_two_punctures_fails(self):
        # loop counts 1 and 0 differ
        assert not st.certify_i_commutator(word(SURF112, st.kappa(1, 2)), 1)

    def test_single_loop_with_one_puncture_passes(self):
        surf = st.MarkedSurface(1, (1, 1))
        assert st.certify_i_commutator(word(surf, st.kappa(1, 2)), 1)

    def test_other_point_letters_rejected(self):
        w = word(SURF112, st.rho(2, 1), st.rho(2, 1, -1))
        assert not st.certify_i_commutator(w, 1)

    def test_index_validated(self):
        with pytest.raises(IndexOutOfRange):
            st.certify_i_commutator(word(SURF112), 4)

    @pytest.mark.parametrize("i", [1.0, True])
    def test_index_must_be_an_integer(self, i):
        with pytest.raises(IndexOutOfRange):
            st.certify_i_commutator(word(SURF112), i)

    def test_unbalanced_direction_fails(self):
        assert not st.certify_i_commutator(word(SURF112, st.rho(1, 1)), 1)

    # 10**19 does not fit an index and 3 * 10**18 coordinates do not fit the
    # address space, so both fail at once without allocating
    @pytest.mark.parametrize("genus", [10**19, 3 * 10**18])
    def test_genus_too_large_for_a_vector(self, genus):
        w = word(st.MarkedSurface(genus, (1,)))
        with pytest.raises(OutOfRange):
            st.certify_i_commutator(w, 1)
        with pytest.raises(OutOfRange):
            st.abel_jacobi(w)

    def test_implies_kernel(self):
        w = word(SURF112, st.kappa(1, 2), st.kappa(1, 3), st.kappa(1, 2, -1), st.kappa(1, 3, -1))
        if st.certify_i_commutator(w, 1):
            assert st.in_kernel(w)


class TestWordEntryPointsRejectANonWord:
    @pytest.mark.parametrize("arg", [None, "x", []], ids=["None", "str", "list"])
    @pytest.mark.parametrize(
        "call",
        [
            st.abel_jacobi,
            st.permutation_image,
            st.in_kernel,
            st.factor_by_permutation,
            st.factorize_kernel_word,
            st.certify_null_rho,
            lambda w: st.certify_i_commutator(w, 1),
        ],
        ids=[
            "abel_jacobi",
            "permutation_image",
            "in_kernel",
            "factor_by_permutation",
            "factorize_kernel_word",
            "certify_null_rho",
            "certify_i_commutator",
        ],
    )
    def test_rejected(self, call, arg):
        with pytest.raises(InvalidSurface, match=r"^expected a BraidWord, got "):
            call(arg)


class TestMinimalD:
    def test_coprime_pair(self):
        d, coeffs = st.minimal_d((2, 3), 1)
        assert d == 2
        assert coeffs[1] == 2
        assert coeffs[0] * 2 + coeffs[1] * 3 == 0

    def test_shared_factor(self):
        d, coeffs = st.minimal_d((4, 6), 0)
        assert d == 3
        assert coeffs == (3, -2)

    def test_equal_weights(self):
        assert st.minimal_d((7, 7), 0)[0] == 1
        assert st.minimal_d((7, 7), 1)[0] == 1

    def test_witness_always_balances(self):
        weights = (4, 6, 9, 9)
        for l in range(4):
            d, coeffs = st.minimal_d(weights, l)
            assert coeffs[l] == d > 0
            assert sum(c * w for c, w in zip(coeffs, weights)) == 0

    def test_single_weight_rejected(self):
        with pytest.raises(NoOtherWeights):
            st.minimal_d((4,), 0)

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            st.minimal_d((4, 6), 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            st.minimal_d((0, 5), 1)
        with pytest.raises(ZeroWeight):
            st.minimal_d((4, 0), 0)

    @pytest.mark.parametrize("weights", [(1.5, 2), (True, 2), (2, 4.0)])
    def test_weights_must_be_integers(self, weights):
        with pytest.raises(OutOfRange):
            st.minimal_d(weights, 0)

    @pytest.mark.parametrize("l", [0.0, True, "0"])
    def test_index_must_be_an_integer(self, l):
        with pytest.raises(IndexOutOfRange):
            st.minimal_d((1, 2), l)


class TestFactorByPermutation:
    def test_pure_exchange(self):
        z = word(SURF112, st.sigma(1, 2))
        y, x = st.factor_by_permutation(z)
        assert y.letters == z.letters
        assert x.letters == ()

    def test_pure_input(self):
        z = word(SURF112, st.rho(1, 1))
        y, x = st.factor_by_permutation(z)
        assert y.letters == ()
        assert x == z

    def test_mixed_word(self):
        z = word(SURF112, st.sigma(1, 2), st.rho(1, 1))
        y, x = st.factor_by_permutation(z)
        assert [lt.kind for lt in y.letters] == ["sigma"]
        assert x.letters == (st.rho(1, 1),)

    def test_quotient_contract(self):
        rng = random.Random(5)
        for _ in range(40):
            z = random_word(FLAGSHIP, rng, 12)
            y, x = st.factor_by_permutation(z)
            assert st.permutation_image(y) == st.permutation_image(z)
            assert st.permutation_image(x) == tuple(range(1, FLAGSHIP.n + 1))
            assert all(lt.kind == "sigma" for lt in y.letters)


class TestFactorize:
    def test_null_rho_word(self):
        z = word(FLAGSHIP, st.rho(1, 1), st.rho(2, 1, -1))
        certs = st.factorize_kernel_word(z)
        assert [c.tag for c in certs] == [NULL_RHO]
        assert certs[0].param == 1

    def test_sigma_squared(self):
        z = word(FLAGSHIP, st.sigma(1, 2), st.sigma(1, 2))
        certs = st.factorize_kernel_word(z)
        assert [c.tag for c in certs] == [TRANSPOSITION, TRANSPOSITION]

    def test_commutator_of_peeled_point(self):
        z = word(
            FLAGSHIP,
            st.rho(14, 2),
            st.rho(14, 1),
            st.rho(14, 2, -1),
            st.rho(14, 1, -1),
        )
        certs = st.factorize_kernel_word(z)
        assert [c.tag for c in certs] == [I_COMMUTATOR]
        assert certs[0].param == 14

    def test_rejects_nonkernel(self):
        with pytest.raises(NotInKernel):
            st.factorize_kernel_word(word(FLAGSHIP, st.rho(1, 1)))

    def test_rejects_small_leading_class(self):
        surf = st.MarkedSurface(2, (1, 1, 1, 1), stratum_mode=True)
        with pytest.raises(PreconditionUnmet):
            st.factorize_kernel_word(st.BraidWord(surf))

    def test_rejects_punctured_surface(self):
        surf = st.MarkedSurface(2, (1, 1, 1, 1), 1, True)
        with pytest.raises(PreconditionUnmet, match="^factorization needs a surface without punctures$"):
            st.factorize_kernel_word(st.BraidWord(surf))

    def test_rejects_non_stratum_surface(self):
        with pytest.raises(PreconditionUnmet):
            st.factorize_kernel_word(word(SURF112))

    def test_rejects_genus_one(self):
        surf = st.MarkedSurface(1, (1, -1), stratum_mode=True)
        with pytest.raises(PreconditionUnmet):
            st.factorize_kernel_word(st.BraidWord(surf))

    def test_unknown_tag_does_not_verify(self):
        assert not st.FactorCertificate("bogus", word(FLAGSHIP)).verify()

    def test_rejects_scrambled_classes(self):
        surf = st.MarkedSurface(2, (1, 2, 1), stratum_mode=True)
        with pytest.raises(PreconditionUnmet):
            st.factorize_kernel_word(st.BraidWord(surf))

    def test_random_words_fully_certified(self):
        rng = random.Random(23)
        for _ in range(60):
            z = random_kernel_word(FLAGSHIP, rng)
            certs = st.factorize_kernel_word(z)
            assert all(c.verify() for c in certs)
            assert all(c.tag != "uncertified" for c in certs)
            combined = st.concatenate_factors(FLAGSHIP, certs)
            assert st.permutation_image(combined) == st.permutation_image(z)
            assert st.in_kernel(combined)
            peeled = {c.param for c in certs if c.tag == I_COMMUTATOR}
            assert peeled <= {13, 14}

    def test_equal_weights_never_need_commutators(self):
        rng = random.Random(29)
        for _ in range(60):
            z = random_kernel_word(EQUAL8, rng)
            certs = st.factorize_kernel_word(z)
            assert all(c.tag != I_COMMUTATOR for c in certs)

    def test_concatenation_matches_left_fold(self):
        rng = random.Random(31)
        for length in (0, 8, 200):
            z = random_kernel_word(FLAGSHIP, rng, length)
            certs = st.factorize_kernel_word(z)
            folded = functools.reduce(
                lambda u, v: st.BraidWord(FLAGSHIP, u.letters + v.letters),
                (c.word for c in certs),
                st.BraidWord(FLAGSHIP),
            )
            assert st.concatenate_factors(FLAGSHIP, certs) == folded

    @pytest.mark.parametrize("once", [iter, lambda certs: (c for c in certs)], ids=["iter", "gen"])
    def test_concatenation_reads_an_iterable_once(self, once):
        # an iterator can be read once, so the surface check and the letters
        # must share one pass
        certs = st.factorize_kernel_word(random_kernel_word(FLAGSHIP, random.Random(37), 40))
        expected = st.concatenate_factors(FLAGSHIP, certs)
        assert expected.letters
        assert st.concatenate_factors(FLAGSHIP, once(certs)) == expected

    def test_concatenation_rejects_other_surface(self):
        certs = st.factorize_kernel_word(word(FLAGSHIP, st.rho(1, 1), st.rho(2, 1, -1)))
        other = st.MarkedSurface(5, (1,) * 12 + (2, 2))
        with pytest.raises(InvalidSurface):
            st.concatenate_factors(other, certs)

    @pytest.mark.parametrize("surf", [None, "x", (5, (1,) * 12 + (2, 2))])
    def test_concatenation_needs_a_surface(self, surf):
        with pytest.raises(InvalidSurface):
            st.concatenate_factors(surf, [])

    @pytest.mark.parametrize("certs", [[None], None], ids=["None-factor", "None"])
    def test_concatenation_needs_certificates(self, certs):
        with pytest.raises(InvalidSurface, match=r"^factors must be a sequence of FactorCert"):
            st.concatenate_factors(FLAGSHIP, certs)

    def test_kappa_on_peeled_point_becomes_square_transposition(self):
        z = word(FLAGSHIP, st.kappa(13, 14), st.kappa(1, 2, -1))
        certs = st.factorize_kernel_word(z)
        assert Counter(c.tag for c in certs) == {SQUARE_TRANSPOSITION: 2}


def _same_surface_copy(surf):
    return st.MarkedSurface(surf.genus, surf.weights, surf.punctures, surf.stratum_mode)


class TestSharedFactors:
    """One-letter factors are shared within one call, on the input's surface."""

    @pytest.mark.parametrize("surf", [FLAGSHIP, EQUAL8], ids=["flagship", "equal8"])
    def test_every_certificate_matches_a_fresh_one(self, surf):
        rng = random.Random(53)
        for length in (0, 8, 40, 200) * 5:
            for c in st.factorize_kernel_word(random_kernel_word(surf, rng, length)):
                assert c.verify()
                assert c == st.FactorCertificate(c.tag, st.BraidWord(surf, c.word.letters), c.param)
                assert c.word.surface == surf

    def test_output_independent_of_earlier_calls_and_surface_object(self):
        rng = random.Random(59)
        z = random_kernel_word(FLAGSHIP, rng, 200)
        first = st.factorize_kernel_word(z)
        assert any(len(c.word.letters) == 1 for c in first)

        for _ in range(5):
            st.factorize_kernel_word(random_kernel_word(EQUAL8, rng, 40))
        for g in range(3, 6):
            surf = st.MarkedSurface(g, (1,) * (4 * g - 4), stratum_mode=True)
            st.factorize_kernel_word(st.BraidWord(surf))
        again = st.factorize_kernel_word(z)
        assert again == first
        assert [c.to_json_dict() for c in again] == [c.to_json_dict() for c in first]

        copy = _same_surface_copy(FLAGSHIP)
        assert copy is not FLAGSHIP
        on_copy = st.factorize_kernel_word(st.BraidWord(copy, z.letters))
        assert on_copy == first
        assert all(c.word.surface is copy for c in on_copy)

    def test_equal_one_letter_factors_share_one_object(self):
        rng = random.Random(67)
        certs = st.factorize_kernel_word(random_kernel_word(FLAGSHIP, rng, 400))
        one_letter = [c for c in certs if len(c.word.letters) == 1]
        by_letter = {}
        for c in one_letter:
            assert by_letter.setdefault(c.word.letters[0], c) is c
        assert len(by_letter) < len(one_letter)  # some letter recurs

    def test_concatenation_accepts_equal_copy_rejects_other_surface(self):
        rng = random.Random(61)
        copy = _same_surface_copy(FLAGSHIP)
        z = random_kernel_word(FLAGSHIP, rng, 40)
        mixed = st.factorize_kernel_word(z) + st.factorize_kernel_word(st.BraidWord(copy, z.letters))
        assert {id(c.word.surface) for c in mixed} == {id(copy), id(FLAGSHIP)}
        assert st.concatenate_factors(FLAGSHIP, mixed) == st.concatenate_factors(copy, mixed)
        # equal weights, but not a stratum-mode surface
        other = st.MarkedSurface(FLAGSHIP.genus, FLAGSHIP.weights)
        stray = st.FactorCertificate(TRANSPOSITION, word(other, st.sigma(1, 2)))
        for surf in (FLAGSHIP, copy):
            for certs in (mixed + [stray], [stray] + mixed):
                with pytest.raises(InvalidSurface):
                    st.concatenate_factors(surf, certs)


# n = 2..14 points, one weight class and two
ORACLE_SURFACES = [
    surf
    for n in range(2, 15)
    for surf in (
        st.MarkedSurface(2, (1,) * n),
        st.MarkedSurface(3, (1,) * (n - n // 2) + (2,) * (n // 2)),
    )
]

# sha256 of the JSON that test_factorization_output_frozen builds, taken from
# the list-rebuild permutation image and the product-then-reduce remainder
FACTORIZATION_DIGEST = "6ac3217abd5bd384e16db0924b3c3ce8c4294f2f8d221a3839460bb6cbb04483"


# stratum surfaces the factorization accepts: the two of the digest, where no
# debt reaches a later stage, then surfaces with b >= 3 or whose debt does,
# the last two with a point that owes debt to two stages
PEEL_SURFACES = [
    FLAGSHIP,
    EQUAL8,
    st.MarkedSurface(3, (1,) * 6 + (-1, 3), stratum_mode=True),
    st.MarkedSurface(6, (2,) * 7 + (1, 5), stratum_mode=True),
    st.MarkedSurface(4, (1,) * 6 + (2, 2, 2), stratum_mode=True),
    st.MarkedSurface(3, (1,) * 6 + (-1, -1, 4), stratum_mode=True),
    st.MarkedSurface(5, (2,) * 7 + (-1, -1, 4), stratum_mode=True),
    st.MarkedSurface(4, (1,) * 6 + (-1, 2, 5), stratum_mode=True),
    st.MarkedSurface(3, (1,) * 6 + (-1, -1, 2, 2), stratum_mode=True),
]


def _unit_kernel_word(surf, rng, length):
    """A random word made a kernel word by loops of a point of weight +-1,
    each put in at a random place."""
    w = random_word(surf, rng, length)
    unit = next(i for i, weight in enumerate(surf.weights, 1) if abs(weight) == 1)
    letters = list(w.letters)
    for r, val in enumerate(st.abel_jacobi(w), 1):
        exp = -1 if val * surf.weights[unit - 1] > 0 else 1
        for _ in range(abs(val)):
            letters.insert(rng.randint(0, len(letters)), st.rho(unit, r, exp))
    return st.BraidWord(surf, letters)


class TestAgainstOracles:
    @pytest.mark.parametrize("sigma_share", [None, 0.8])
    def test_permutation_image(self, sigma_share):
        rng = random.Random(37)
        for surf in ORACLE_SURFACES:
            for length in (0, 1, 30, 300):
                w = random_word(surf, rng, length, sigma_share)
                assert st.permutation_image(w) == permutation_image_oracle(w)

    @pytest.mark.parametrize("sigma_share", [None, 0.8])
    def test_factor_by_permutation(self, sigma_share):
        rng = random.Random(43)
        for surf in ORACLE_SURFACES:
            for length in (0, 1, 30, 300):
                z = random_word(surf, rng, length, sigma_share)
                assert st.factor_by_permutation(z) == factor_by_permutation_oracle(z)

    @pytest.mark.parametrize("surf", PEEL_SURFACES, ids=lambda s: "g%d-%s" % (s.genus, s.weights))
    def test_factorize_matches_plain_peel(self, surf):
        rng = random.Random(53)
        for length in (0, 1, 8, 40, 300) * 6:
            z = _unit_kernel_word(surf, rng, length)
            certs = st.factorize_kernel_word(z)
            assert [(c.tag, c.param, c.word.letters) for c in certs] == factorize_oracle(z)

    def test_peel_surfaces_lend_to_later_stages(self):
        # per surface, how many stages leave debt on each point a later stage
        # peels: some debt crosses stages, and some point owes two stages
        owed = []
        for surf in PEEL_SURFACES:
            a = surf.weights.count(surf.weights[0])
            steps = criteria._gcd_chain(surf.weights[:-1])
            owed.append(Counter(
                p
                for c in range(a + 1, surf.n + 1)
                for p, cf in enumerate(criteria._balance(surf.weights, steps, c - 1)[1][:-1], 1)
                if cf and p > a
            ))
        assert [sorted(counts.values()) for counts in owed] == [
            [], [], [1], [1], [], [1, 1], [1, 1], [2], [1, 2]
        ]

    def test_flagship_debt_meets_low_letters(self):
        # on the words of test_factorize_matches_plain_peel: how many of the
        # stages' blocks owe debt to the points of the leading class in a
        # direction whose final group already holds letters, from the word or
        # from earlier stages.  That debt must go in front of them, and the
        # plain-peel comparison pins that order only if this happens.
        surf = FLAGSHIP
        a = surf.weights.count(surf.weights[0])
        rng = random.Random(53)
        meets = 0
        for length in (0, 1, 8, 40, 300) * 6:
            z = _unit_kernel_word(surf, rng, length)
            held = {lt.second for lt in st.factor_by_permutation(z)[1].letters
                    if lt.kind == "rho" and lt.i <= a}
            for cert in st.factorize_kernel_word(z):
                points = {lt.i for lt in cert.word.letters}
                # a peeled stage's block: its own point above a, lenders up to a
                if cert.tag == NULL_RHO and max(points) > a and min(points) <= a:
                    meets += cert.param in held
                    held.add(cert.param)
        assert meets > 0

    def test_one_gcd_chain_serves_every_prefix(self):
        # as the peel uses it: one chain, then minimal_d(weights[:c], c - 1)
        # for every stage c, on the peel surfaces and on random weights
        rng = random.Random(59)
        cases = [surf.weights for surf in PEEL_SURFACES] + [
            tuple(rng.choice((-1, 1)) * rng.randint(1, 30) for _ in range(rng.randint(2, 9)))
            for _ in range(300)
        ]
        for weights in cases:
            steps = criteria._gcd_chain(weights[:-1])
            for c in range(2, len(weights) + 1):
                d, coeffs = criteria._balance(weights, steps, c - 1)
                expected = minimal_d_oracle(weights[:c], c - 1)
                assert (d, tuple(coeffs)) == st.minimal_d(weights[:c], c - 1) == expected

    def test_factorization_output_frozen(self):
        docs = []
        for surf in (FLAGSHIP, EQUAL8):
            rng = random.Random(41)
            for length in (0, 8, 40, 200, 1000) * 4:
                z = random_kernel_word(surf, rng, length)
                certs = st.factorize_kernel_word(z)
                combined = st.concatenate_factors(surf, certs)
                docs.append(
                    {
                        "certs": [c.to_json_dict() for c in certs],
                        "combined": combined.to_json_dict(),
                        "permutation": st.permutation_image(combined),
                        "aj": st.abel_jacobi(combined),
                    }
                )
        blob = json.dumps(docs, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == FACTORIZATION_DIGEST

    def test_derived_words_have_valid_letters(self):
        # braids builds these words without checking their letters again
        rng = random.Random(47)
        for surf in [FLAGSHIP, EQUAL8] + ORACLE_SURFACES:
            for length in (0, 1, 30, 300):
                u = random_word(surf, rng, length, 0.5)
                v = random_word(surf, rng, length)
                derived = [
                    *st.factor_by_permutation(u),
                    st.BraidWord._derived(surf, tuple(braids._reduce(u.letters + v.letters))),
                ]
                if surf.stratum_mode:
                    z = random_kernel_word(surf, rng, length)
                    certs = st.factorize_kernel_word(z)
                    derived += [c.word for c in certs]
                    derived.append(st.concatenate_factors(surf, certs))
                for w in derived:
                    braids._validate_letters(w.letters, w.surface)


class TestHomomorphismProperties:
    @given(data=hst.data())
    @settings(max_examples=150, deadline=None)
    def test_additive_under_concatenation(self, data):
        rng = random.Random(data.draw(hst.integers(0, 10**6)))
        u = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 10)))
        v = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 10)))
        lhs = st.abel_jacobi(st.BraidWord(FLAGSHIP, u.letters + v.letters))
        rhs = tuple(
            a + b for a, b in zip(st.abel_jacobi(u), st.abel_jacobi(v))
        )
        assert lhs == rhs

    @given(data=hst.data())
    @settings(max_examples=150, deadline=None)
    def test_negates_under_inversion(self, data):
        rng = random.Random(data.draw(hst.integers(0, 10**6)))
        u = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 10)))
        u_inv = inverse_word(u)
        assert st.abel_jacobi(u_inv) == tuple(-a for a in st.abel_jacobi(u))
        assert braids._reduce(u.letters + u_inv.letters) == []

    @given(data=hst.data())
    @settings(max_examples=150, deadline=None)
    def test_permutation_is_homomorphism(self, data):
        rng = random.Random(data.draw(hst.integers(0, 10**6)))
        u = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 8)))
        v = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 8)))
        pu, pv = st.permutation_image(u), st.permutation_image(v)
        composed = tuple(pv[pu[k - 1] - 1] for k in range(1, FLAGSHIP.n + 1))
        assert st.permutation_image(st.BraidWord(FLAGSHIP, u.letters + v.letters)) == composed

    def test_every_exchange_letter_in_kernel(self):
        for i in range(1, FLAGSHIP.n + 1):
            for j in range(i + 1, FLAGSHIP.n + 1):
                assert st.in_kernel(word(FLAGSHIP, st.kappa(i, j)))
                if FLAGSHIP.weights[i - 1] == FLAGSHIP.weights[j - 1]:
                    assert st.in_kernel(word(FLAGSHIP, st.sigma(i, j)))

    @given(data=hst.data())
    @settings(max_examples=100, deadline=None)
    def test_certificates_imply_kernel(self, data):
        rng = random.Random(data.draw(hst.integers(0, 10**6)))
        w = random_word(FLAGSHIP, rng, data.draw(hst.integers(0, 10)))
        ok, _ = st.certify_null_rho(w)
        if ok:
            assert st.in_kernel(w)
        for i in (1, 13, 14):
            if st.certify_i_commutator(w, i):
                assert st.in_kernel(w)


class TestJson:
    def test_word_round_trip(self):
        z = word(FLAGSHIP, st.sigma(1, 2), st.rho(14, 3, -1), st.kappa(2, 13))
        back = st.BraidWord.from_json_dict(z.to_json_dict())
        assert back == z

    @pytest.mark.parametrize(
        "letter, message",
        [
            (st.sigma(1, 3), "^sigma exchanges equal weights only: 1 vs 2$"),
            (st.rho(4, 1), r"^point index 4 out of range 1\.\.3$"),
        ],
        ids=["unequal-weights", "index-out-of-range"],
    )
    def test_letters_checked_against_surface(self, letter, message):
        data = {"surface": SURF112.to_json_dict(), "letters": [letter.to_json_dict()]}
        with pytest.raises(InvalidLetter, match=message):
            st.BraidWord.from_json_dict(data)

    @pytest.mark.parametrize("kind", ["tau", []], ids=["unknown", "unhashable"])
    def test_unknown_kind_has_no_json(self, kind):
        with pytest.raises(InvalidLetter, match=r"^unknown letter kind "):
            st.Letter(kind, 1, 1).to_json_dict()

    def test_letter_keys_by_kind(self):
        assert st.rho(1, 3).to_json_dict() == {"kind": "rho", "i": 1, "r": 3, "exp": 1}
        assert st.sigma(1, 2, -1).to_json_dict() == {
            "kind": "sigma",
            "i": 1,
            "j": 2,
            "exp": -1,
        }
        assert st.puncture_loop(2, 1).to_json_dict() == {
            "kind": "kappa_puncture",
            "i": 2,
            "l": 1,
            "exp": 1,
        }

    @pytest.mark.parametrize(
        "data, error",
        [
            ([], InvalidSurface),
            ({"letters": []}, InvalidSurface),
            ({"surface": {"genus": 2}}, InvalidSurface),
            ({"surface": {"genus": 2, "weights": [4]}, "letters": [{"i": 1}]}, InvalidLetter),
            ({"surface": {"genus": 2, "weights": [4]}, "letters": [{"kind": []}]}, InvalidLetter),
            (
                {"surface": {"genus": 2, "weights": [4]}, "letters": [{"kind": "sigma", "i": 1}]},
                InvalidLetter,
            ),
        ],
    )
    def test_missing_keys_rejected(self, data, error):
        with pytest.raises(error):
            st.BraidWord.from_json_dict(data)

    @pytest.mark.parametrize(
        "faulty",
        [
            {"kind": "rho", "i": 9, "r": 1},
            {"kind": "rho", "i": 1.0, "r": 1},
            {"kind": "rho", "i": [1], "r": 1},
        ],
        ids=["range", "float", "list"],
    )
    def test_shape_fault_reported_before_an_earlier_field_fault(self, faulty):
        valid = st.rho(1, 1).to_json_dict()
        data = {
            "surface": SURF112.to_json_dict(),
            "letters": [valid, faulty, valid, {"kind": "sigma", "i": 1}, faulty],
        }
        with pytest.raises(InvalidLetter, match=r"^sigma letter JSON needs 'i' and 'j'$"):
            st.BraidWord.from_json_dict(data)
        del data["letters"][3]  # then the field fault is the one reported
        with pytest.raises(InvalidLetter, match=r"^(point index|rho letter fields)"):
            st.BraidWord.from_json_dict(data)


# Each certificate check, with the thing it checks made to fail.  Run under
# ``python -O``, which strips every ``assert`` statement: each line of output
# says whether the check still raised, with a message that starts with
# "internal error".
OPTIMIZED_CHECKS = """
import strata as st
from strata import braids, criteria

FLAGSHIP = st.MarkedSurface(5, (1,) * 12 + (2, 2), stratum_mode=True)
EQUAL8 = st.MarkedSurface(3, (1,) * 8, stratum_mode=True)
real_image = braids.permutation_image
first_call = iter((True,))


def image_then_identity(w):
    # the true image once, for the split to aim at; the identity after that
    return real_image(w) if next(first_call, False) else tuple(range(1, w.surface.n + 1))


def raises_assertion(obj, name, value, call):
    saved = getattr(obj, name)
    setattr(obj, name, value)
    try:
        call()
    except AssertionError as exc:
        return str(exc).startswith("internal error: ")
    finally:
        setattr(obj, name, saved)
    return False


def factorize(surf, *letters):
    return lambda: braids.factorize_kernel_word(st.BraidWord(surf, letters))


def refusing(tag, point=None):
    # refuse the factors of one tag, only those moving point if it is given
    return lambda self: self.tag != tag or (
        point is not None and all(lt.i != point for lt in self.word.letters)
    )


never = lambda self: False
print(__debug__)
print(raises_assertion(braids.FactorCertificate, "verify", never, factorize(EQUAL8, st.sigma(1, 2))))
print(raises_assertion(
    braids.FactorCertificate, "verify", never, factorize(FLAGSHIP, st.rho(1, 1), st.rho(2, 1, -1))
))
# a peeled stage's block: the final groups are null_rho too, but never move point 14
print(raises_assertion(
    braids.FactorCertificate,
    "verify",
    refusing(braids.NULL_RHO, 14),
    factorize(FLAGSHIP, st.rho(14, 1), st.rho(1, 1, -1), st.rho(2, 1, -1)),
))
print(raises_assertion(
    braids.FactorCertificate,
    "verify",
    refusing(braids.I_COMMUTATOR),
    factorize(FLAGSHIP, st.rho(14, 1), st.rho(14, 2), st.rho(14, 1, -1), st.rho(14, 2, -1)),
))
print(raises_assertion(braids, "permutation_image", image_then_identity, factorize(EQUAL8, st.sigma(1, 2))))
print(raises_assertion(
    criteria,
    "_balance",
    lambda weights, steps, m: (3, [0] * (m + 1)),
    factorize(FLAGSHIP, st.rho(14, 1), st.rho(1, 1, -1), st.rho(2, 1, -1)),
))
print(raises_assertion(criteria, "_egcd", lambda a, b: (1, 0, 0), lambda: criteria.minimal_d((1, 2), 0)))
"""


def test_certificate_checks_survive_optimize():
    # one-letter factor, final null_rho group, peeled null_rho block,
    # commutator, permutation split, winding step, balancing witness: none
    # may vanish with the asserts under -O
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["False"] + ["True"] * 7
