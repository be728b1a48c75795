"""Exact combinatorics of half-translation surface strata.

Signature classification, the splitting poset, weighted surface braid words
with their homology abelianization, certified kernel factorization, rotation
system graph embeddings, and the integer bounds tying them together.
"""

from .adjacency import (
    GroupingSpec,
    SplitMove,
    apply_split,
    check_grouping,
    is_adjacent,
    legal_splits,
    poset_successors,
    splits_into,
)
from .braids import (
    BraidWord,
    FactorCertificate,
    Letter,
    MarkedSurface,
    abel_jacobi,
    certify_i_commutator,
    certify_null_rho,
    concatenate_factors,
    factor_by_permutation,
    factorize_kernel_word,
    free_reduce,
    in_kernel,
    kappa,
    minimal_d,
    permutation_image,
    puncture_loop,
    rho,
    sigma,
)
from .criteria import (
    a_min,
    gen2_cascade_ok,
    point_bound,
    satisfies_hy2,
    satisfies_main_theorem,
    satisfies_null_prop,
)
from .graphs import (
    CombinatorialMap,
    EmbeddedGraphReport,
    assign_face_pairs,
    build_map,
    complete_graph_genus_range,
    construct_graph,
    copeland_generators,
    delete_edge_preserving,
    embed_complete,
    subdivide_edge,
    trace_faces,
)
from .signatures import (
    ConnectivityReport,
    DoubleCoverSpec,
    StratumSignature,
    classify_connectivity,
    connectivity,
    dimension,
    double_cover,
    is_empty,
)

__version__ = "0.1.0"
