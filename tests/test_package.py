"""The public API of the lazy ``strata`` package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strata

EXPORTS = {
    "adjacency": (
        "is_adjacent", "legal_splits", "poset_successors", "splits_into",
    ),
    "braids": (
        "BraidWord", "FactorCertificate", "Letter", "MarkedSurface", "abel_jacobi",
        "certify_i_commutator", "certify_null_rho", "concatenate_factors",
        "factor_by_permutation", "factorize_kernel_word", "free_reduce", "in_kernel", "kappa",
        "minimal_d", "permutation_image", "puncture_loop", "rho", "sigma",
    ),
    "criteria": (
        "a_min", "gen2_cascade_ok", "hy2_verdict", "main_theorem_verdict", "null_prop_verdict",
        "point_bound",
    ),
    "graphs": (
        "CombinatorialMap", "EmbeddedGraphReport", "assign_face_pairs", "build_map",
        "complete_graph_genus_range", "construct_graph", "copeland_generators",
        "delete_edge_preserving", "embed_complete", "subdivide_edge", "trace_faces",
    ),
    "signatures": (
        "ConnectivityReport", "DoubleCoverSpec", "StratumSignature", "classify_connectivity",
        "dimension", "double_cover", "is_empty",
    ),
}
SUBMODULES = ("adjacency", "braids", "criteria", "errors", "graphs", "signatures")
NAMES = [name for names in EXPORTS.values() for name in names]
SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code):
    """The words printed by ``code`` run after ``import strata`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "import strata\n" + code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()


def test_all_lists_the_exports():
    assert len(NAMES) == 46
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


def test_dir_lists_every_public_name():
    listed = set(dir(strata))
    assert set(NAMES) <= listed
    assert set(SUBMODULES) <= listed
    assert len(set(NAMES) | set(SUBMODULES)) == 52


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        strata.no_such_name
    assert not hasattr(strata, "StrataError")


def test_version():
    assert strata.__version__ == "0.1.0"
