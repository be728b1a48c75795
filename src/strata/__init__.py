"""Exact combinatorics of half-translation surface strata.

Signature classification, the splitting poset, weighted surface braid words
with their homology abelianization, certified kernel factorization, rotation
system graph embeddings, and the integer bounds tying them together.

The package is lazy (PEP 562): a public name, or a submodule, is imported on
first access and then cached here, so ``import strata`` loads nothing else
and each CLI subcommand loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, grouped by the submodule that defines it
_EXPORTS = {
    "adjacency": (
        "is_adjacent",
        "legal_splits",
        "poset_successors",
        "splits_into",
    ),
    "braids": (
        "BraidWord",
        "FactorCertificate",
        "Letter",
        "MarkedSurface",
        "abel_jacobi",
        "certify_i_commutator",
        "certify_null_rho",
        "concatenate_factors",
        "factor_by_permutation",
        "factorize_kernel_word",
        "in_kernel",
        "kappa",
        "permutation_image",
        "puncture_loop",
        "rho",
        "sigma",
    ),
    "criteria": (
        "a_min",
        "gen2_cascade_ok",
        "hy2_verdict",
        "main_theorem_verdict",
        "minimal_d",
        "null_prop_verdict",
        "point_bound",
    ),
    "graphs": (
        "CombinatorialMap",
        "EmbeddedGraphReport",
        "assign_face_pairs",
        "build_map",
        "complete_graph_genus_range",
        "construct_graph",
        "copeland_generators",
        "delete_edge_preserving",
        "embed_complete",
    ),
    "signatures": (
        "ConnectivityReport",
        "StratumSignature",
        "classify_connectivity",
        "dimension",
        "double_cover",
    ),
}
_SUBMODULES = ("adjacency", "braids", "cli", "criteria", "errors", "graphs", "signatures")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    elif name in _ORIGIN:
        value = getattr(_import_module("." + _ORIGIN[name], __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
