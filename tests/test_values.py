"""Value semantics of the package's immutable classes.

Each class compares, hashes and prints by its fields in declaration order,
refuses assignment and deletion, and survives ``copy`` and ``pickle``.  The
repr strings are pinned because error messages embed them: an
``EmptyStratum`` envelope carries ``repr(StratumSignature)``.
"""

import copy
import pickle

import pytest

import strata as st
from strata._frozen import Frozen

SURF = st.MarkedSurface(2, (1, 1, 1, 1), 0, True)
WORD = st.BraidWord(SURF, (st.sigma(1, 2), st.rho(1, 1)))
WORD_REPR = (
    "BraidWord(surface=MarkedSurface(genus=2, weights=(1, 1, 1, 1), punctures=0, "
    "stratum_mode=True), letters=(Letter(kind='sigma', i=1, second=2, exp=1), "
    "Letter(kind='rho', i=1, second=1, exp=1)))"
)

# name: (build, another value of the class, its exact repr, its fields in order)
CASES = {
    "StratumSignature": (
        lambda: st.StratumSignature(2, [1, 3]),
        lambda: st.StratumSignature(2, (2, 2)),
        "StratumSignature(genus=2, orders=(3, 1))",
        {"genus": 2, "orders": (3, 1)},
    ),
    "ConnectivityReport": (
        lambda: st.ConnectivityReport(1, False, "c1-theorem"),
        lambda: st.ConnectivityReport(2, False, "c1-theorem"),
        "ConnectivityReport(component_count=1, is_empty=False, reason='c1-theorem')",
        {"component_count": 1, "is_empty": False, "reason": "c1-theorem"},
    ),
    "MarkedSurface": (
        lambda: st.MarkedSurface(2, [1, 1, 1, 1]),
        lambda: st.MarkedSurface(2, [1, 1, 1, 1], 1),
        "MarkedSurface(genus=2, weights=(1, 1, 1, 1), punctures=0, stratum_mode=False)",
        {"genus": 2, "weights": (1, 1, 1, 1), "punctures": 0, "stratum_mode": False},
    ),
    "Letter": (
        lambda: st.Letter("rho", 1, 1),
        lambda: st.Letter("rho", 1, 1, -1),
        "Letter(kind='rho', i=1, second=1, exp=1)",
        {"kind": "rho", "i": 1, "second": 1, "exp": 1},
    ),
    "BraidWord": (
        lambda: st.BraidWord(SURF, [st.sigma(1, 2), st.rho(1, 1)]),
        lambda: st.BraidWord(SURF),
        WORD_REPR,
        {"surface": SURF, "letters": (st.sigma(1, 2), st.rho(1, 1))},
    ),
    "FactorCertificate": (
        lambda: st.FactorCertificate("transposition", WORD),
        lambda: st.FactorCertificate("transposition", WORD, 1),
        "FactorCertificate(tag='transposition', word=%s, param=None)" % WORD_REPR,
        {"tag": "transposition", "word": WORD, "param": None},
    ),
    "CombinatorialMap": (
        lambda: st.CombinatorialMap([0, 2, 1, 3]),
        lambda: st.CombinatorialMap([0, 1]),
        "CombinatorialMap(sigma=(0, 2, 1, 3))",
        {"sigma": (0, 2, 1, 3)},
    ),
    "EmbeddedGraphReport": (
        lambda: st.EmbeddedGraphReport(3, 2, 1, 0, True),
        lambda: st.EmbeddedGraphReport(3, 2, 1, 0, False),
        "EmbeddedGraphReport(V=3, E=2, F=1, genus=0, simple=True)",
        {"V": 3, "E": 2, "F": 1, "genus": 0, "simple": True},
    ),
}
NAMES = sorted(CASES)


def assert_frozen_value(value, cls):
    # exactly the value class over Frozen: no build path hands out its twin
    assert type(value).__mro__ == (cls, Frozen, object)
    for field in cls.__slots__:
        with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
            setattr(value, field, 0)
        with pytest.raises(AttributeError, match="cannot delete field %r" % field):
            delattr(value, field)


def test_every_exported_class_is_covered():
    assert {name for name in st.__all__ if isinstance(getattr(st, name), type)} == set(CASES)
    assert len(CASES) == 8


@pytest.mark.parametrize("name", NAMES)
def test_fields_in_order(name):
    build, _, _, fields = CASES[name]
    value = build()
    assert type(value) is getattr(st, name)
    assert {field: getattr(value, field) for field in fields} == fields


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    build, other, _, fields = CASES[name]
    a, b = build(), build()
    # a Letter with a str kind and int fields is shared: one object per value
    assert (a is b) == (name == "Letter") and a == b and not a != b
    assert a != other() and not a == other()
    assert a != tuple(fields.values()) and a != name and a != None  # noqa: E711


def test_same_fields_in_another_class_are_not_equal():
    class Move(Frozen):
        __slots__ = ("source", "parts")

        def __new__(cls, source, parts):
            return cls._derived(source, parts)

    class Grouping(Frozen):
        __slots__ = ("left", "right")

        def __new__(cls, left, right):
            return cls._derived(left, right)

    move, grouping = Move((0,), (1,)), Grouping((0,), (1,))
    assert move != grouping and not move == grouping and grouping != move
    assert hash(move) == hash(grouping)
    # a subclass outside the package is built and refused like the exported ones
    assert_frozen_value(move, Move)
    assert_frozen_value(Grouping._derived((0,), (1,)), Grouping)
    assert move == Move((0,), (1,))


@pytest.mark.parametrize("name", NAMES)
def test_derived_sets_the_fields_in_order(name):
    # _derived skips the checking constructor, so it stores exactly what it is given
    build, _, text, fields = CASES[name]
    value = getattr(st, name)._derived(*fields.values())
    assert_frozen_value(value, getattr(st, name))
    assert value == build() and repr(value) == text


DERIVED_NAMES = [
    "MarkedSurface",
    "Letter",
    "BraidWord",
    "FactorCertificate",
    "StratumSignature",
    "CombinatorialMap",
]


@pytest.mark.parametrize("subclass", [False, True], ids=["class", "subclass"])
@pytest.mark.parametrize("name", DERIVED_NAMES)
def test_derived_is_a_function_of_its_own_class(name, subclass):
    # _derived is a plain function compiled for each class, the subclass of a
    # value class included, and builds that class, as its constructor does
    cls = getattr(st, name)
    if subclass:
        cls = type("Sub" + name, (cls,), {"__slots__": ()})
    assert type(vars(cls)["_derived"]) is staticmethod
    fields = CASES[name][3]
    value = cls._derived(*fields.values())
    assert type(value) is cls and value == cls(**fields)
    if subclass:  # another class: not equal to the value class's value
        assert value != getattr(st, name)._derived(*fields.values())
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
            setattr(value, field, 0)


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_fields(name):
    build, _, _, fields = CASES[name]
    assert hash(build()) == hash(build()) == hash(tuple(fields.values()))
    assert len({build(), build()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    build, _, text, _ = CASES[name]
    assert repr(build()) == text
    assert str(build()) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_refused(name):
    build = CASES[name][0]
    value = build()
    assert_frozen_value(value, getattr(st, name))
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == build()


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name):
    build, _, text, _ = CASES[name]
    value = build()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for dup in copies:
        assert_frozen_value(dup, getattr(st, name))
        assert dup == value and hash(dup) == hash(value) and repr(dup) == text


class TestConstruction:
    def test_defaults(self):
        assert st.Letter("rho", 1, 1).exp == 1
        surf = st.MarkedSurface(2, (1, 1, 1, 1))
        assert surf.punctures == 0 and surf.stratum_mode is False
        assert st.BraidWord(SURF).letters == ()
        assert st.FactorCertificate("null_rho", WORD).param is None

    def test_keywords(self):
        assert st.StratumSignature(orders=(4,), genus=2) == st.StratumSignature(2, (4,))
        assert st.ConnectivityReport(
            reason="x", is_empty=True, component_count=0
        ) == st.ConnectivityReport(0, True, "x")
        surf = st.MarkedSurface(genus=2, weights=(4,), stratum_mode=True, punctures=1)
        assert surf == st.MarkedSurface(2, (4,), 1, True)
        assert st.Letter(kind="sigma", i=1, second=2, exp=-1) == st.sigma(1, 2, -1)
        assert st.BraidWord(letters=WORD.letters, surface=SURF) == WORD
        assert st.FactorCertificate(param=3, tag="null_rho", word=WORD) == st.FactorCertificate(
            "null_rho", WORD, 3
        )
        assert st.CombinatorialMap(sigma=(0, 1)) == st.CombinatorialMap((0, 1))
        assert st.EmbeddedGraphReport(
            simple=False, genus=1, F=1, E=3, V=1
        ) == st.EmbeddedGraphReport(1, 3, 1, 1, False)

    def test_normalisation(self):
        assert st.StratumSignature(2, [-1, 6, -1]).orders == (6, -1, -1)
        assert type(st.MarkedSurface(2, [4]).weights) is tuple
        assert type(st.BraidWord(SURF, [st.rho(1, 1)]).letters) is tuple
        assert type(st.CombinatorialMap([0, 1]).sigma) is tuple

    def test_positional_arity(self):
        with pytest.raises(TypeError):
            st.Letter("rho", 1)
        with pytest.raises(TypeError):
            st.StratumSignature(2, (4,), 0)
