"""The public API of the lazy ``strata`` package."""

import ast
import importlib
import inspect
import warnings
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import strata
from strata.errors import StrataError
from support import SRC, run_python

EXPORTS = {
    "adjacency": (
        "is_adjacent", "legal_splits", "poset_successors", "splits_into",
    ),
    "braids": (
        "BraidWord", "FactorCertificate", "Letter", "MarkedSurface", "abel_jacobi",
        "certify_i_commutator", "certify_null_rho", "concatenate_factors",
        "factor_by_permutation", "factorize_kernel_word", "in_kernel", "kappa",
        "permutation_image", "puncture_loop", "rho", "sigma",
    ),
    "criteria": (
        "a_min", "gen2_cascade_ok", "hy2_verdict", "main_theorem_verdict", "minimal_d",
        "null_prop_verdict", "point_bound",
    ),
    "graphs": (
        "CombinatorialMap", "EmbeddedGraphReport", "assign_face_pairs", "build_map",
        "complete_graph_genus_range", "construct_graph", "copeland_generators",
        "delete_edge_preserving", "embed_complete",
    ),
    "signatures": (
        "ConnectivityReport", "StratumSignature", "classify_connectivity", "dimension",
        "double_cover",
    ),
}
SUBMODULES = ("adjacency", "braids", "criteria", "errors", "graphs", "signatures")
NAMES = [name for names in EXPORTS.values() for name in names]
ROOT = SRC.parent
PYTHON_FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _fresh(code):
    """The words printed by ``code`` run after ``import strata`` in a new interpreter."""
    proc = run_python("import strata\n" + code)
    proc.check_returncode()
    return proc.stdout.split()


def test_all_lists_the_exports():
    assert len(NAMES) == 41
    assert set(strata.__all__) == set(NAMES)
    assert len(strata.__all__) == len(NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_resolve_to_their_definitions(module):
    source = importlib.import_module("strata." + module)
    for name in EXPORTS[module]:
        assert getattr(strata, name) is getattr(source, name), name


@pytest.mark.parametrize("module", SUBMODULES + ("cli",))
def test_submodules_resolve(module):
    assert getattr(strata, module) is importlib.import_module("strata." + module)


def test_import_loads_no_submodule():
    assert _fresh("import sys; print(*[m for m in sys.modules if m.startswith('strata.')])") == []


@pytest.mark.parametrize("module", SUBMODULES + ("cli",))
def test_fresh_package_resolves_submodule(module):
    assert _fresh("print(strata.%s.__name__)" % module) == ["strata." + module]


@pytest.mark.parametrize("path", sorted((SRC / "strata").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # importing dataclasses also loads inspect, ast and tokenize on every CLI
    # run; the value classes derive from strata._frozen.Frozen instead
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "dataclasses" for a in node.names), path
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "dataclasses", path


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_compiles_with_warnings_as_errors(path):
    # compile() on the file's text, so a SyntaxWarning such as an invalid
    # escape fails on every version; nothing is imported and no bytecode written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_dir_lists_every_public_name():
    listed = set(dir(strata))
    assert set(NAMES) <= listed
    assert set(SUBMODULES) <= listed
    assert len(set(NAMES) | set(SUBMODULES)) == 47
    # nothing else public: an import at module level would show up here
    public = {name for name in listed if not name.startswith("_")}
    assert public <= set(strata.__all__) | set(strata._SUBMODULES)


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        strata.no_such_name
    assert not hasattr(strata, "StrataError")


def test_version():
    assert strata.__version__ == "0.1.0"


def _value_instances():
    # one instance of each value class, each valid
    surf = strata.MarkedSurface(2, (1, 1, 2))
    word = strata.BraidWord(surf, (strata.sigma(1, 2),))
    return [
        strata.StratumSignature(2, (4,)),
        strata.ConnectivityReport(1, False, "genus-le-1"),
        surf,
        strata.sigma(1, 2),
        word,
        strata.FactorCertificate("transposition", word),
        strata.build_map(2, [(0, 1)]),
        strata.EmbeddedGraphReport(2, 1, 1, 0, True),
    ]


# integers stay small: legal_splits and the poset enumerate without bound on
# a large order, which is a cost, not a boundary check
GARBLED = hst.one_of(
    hst.sampled_from([None, True, False, "", "x", "sigma", object()] + _value_instances()),
    hst.floats(),
    hst.integers(-50, 50),
    hst.builds(list),
    hst.builds(lambda: [[]]),
    hst.builds(dict),
    # nested values that are not lists: a list of sets, a list of iterators
    hst.lists(hst.sets(hst.integers(0, 3), max_size=2), max_size=3),
    hst.lists(hst.lists(hst.integers(0, 3), max_size=2).map(iter), max_size=3),
)


def _garbled_call(call, data):
    # call with garbled positional arguments: the result, or None for a
    # StrataError; any other exception fails the test
    params = [
        p for p in inspect.signature(call).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    required = sum(p.default is p.empty for p in params)
    args = data.draw(hst.lists(GARBLED, min_size=required, max_size=len(params)))
    try:
        return call(*args)
    except StrataError:
        return None


@pytest.mark.parametrize("name", sorted(strata.__all__))
@given(data=hst.data())
@settings(max_examples=30, deadline=None)
def test_public_names_raise_only_strata_errors(name, data):
    # every public call, classes included, given garbled positional arguments
    # returns or raises a StrataError: no bare TypeError or AttributeError
    _garbled_call(getattr(strata, name), data)


# paths and cycles on 2-4 vertices: edge lists build_map accepts, which GARBLED
# never draws but for [], so that a garbled rotation reaches its check
PATHS_AND_CYCLES = [[(v, v + 1) for v in range(n - 1)] for n in (2, 3, 4)] + [
    [(v, (v + 1) % n) for v in range(n)] for n in (3, 4)
]
CONTAINERS = (list, tuple, set, dict.fromkeys, iter)


def _packed_darts(darts_at):
    # each vertex's darts, in some order, in some container
    each = [hst.tuples(hst.sampled_from(CONTAINERS), hst.permutations(d)) for d in darts_at]
    return hst.tuples(*each).map(lambda rotations: [make(d) for make, d in rotations])


@given(data=hst.data())
@settings(max_examples=200, deadline=None)
def test_build_map_rotations_raise_only_strata_errors(data):
    # a valid edge list with garbled rotations, or with its own darts packed
    # in any container, gives a map or a StrataError
    edges = data.draw(hst.sampled_from(PATHS_AND_CYCLES))
    n = 1 + max(map(max, edges))
    darts_at = [[d for d in range(2 * len(edges)) if edges[d // 2][d % 2] == v] for v in range(n)]
    rotations = data.draw(GARBLED | _packed_darts(darts_at))
    try:
        strata.build_map(n, edges, rotations)
    except StrataError:
        pass


# the public methods and static constructors of each value class; properties
# and fields are not listed
VALUE_METHODS = {
    "BraidWord": ("from_json_dict", "to_json_dict"),
    "CombinatorialMap": ("from_json_dict", "report", "to_json_dict", "vertices"),
    "ConnectivityReport": (),
    "EmbeddedGraphReport": ("to_json_dict",),
    "FactorCertificate": ("to_json_dict", "verify"),
    "Letter": ("to_json_dict",),
    "MarkedSurface": ("from_json_dict", "to_json_dict"),
    "StratumSignature": ("to_json_dict",),
}
INSTANCES = {type(v).__name__: v for v in _value_instances()}


def test_value_classes_list_their_methods():
    assert {
        name: tuple(sorted(
            attr for attr, raw in vars(type(v)).items()
            if not attr.startswith("_") and isinstance(raw, (FunctionType, staticmethod))
        ))
        for name, v in INSTANCES.items()
    } == VALUE_METHODS


@pytest.mark.parametrize(
    "method", ["%s.%s" % (cls, name) for cls, names in VALUE_METHODS.items() for name in names]
)
@given(data=hst.data())
@settings(max_examples=30, deadline=None)
def test_value_methods_raise_only_strata_errors(method, data):
    # each method runs on the valid instance of its class, or on one its
    # public constructor builds from garbled fields where it lets them
    # through; a static constructor takes garbled arguments.  Every call
    # returns or raises a StrataError
    cls_name, name = method.split(".")
    receiver = INSTANCES[cls_name]
    if data.draw(hst.booleans()):
        receiver = _garbled_call(type(receiver), data) or receiver
    _garbled_call(getattr(receiver, name), data)
