"""Min-cut entropy models on graphs, hypergraphs, and topological links.

The package computes subsystem entropies as minimum cuts on three model
classes, verifies and searches contraction-map proofs of entropy
inequalities, and checks cut-dependent certificates on link models.
All arithmetic is exact.
"""

from .certificates import (
    CertificateCheck,
    CertificateError,
    InconsistentAssignment,
    IndicatorEntry,
    OracularIndicatorTable,
    TritContractionMap,
    TritPartition,
    build_trit_partition,
    check_cut_contraction_certificate,
    check_inequality_direct,
    compute_oracular_indicator,
    derive_rhs_assignment,
    union_cut_zero_assignment,
)
from .contraction import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    ContractionReport,
    SearchResult,
    check_graph_contraction,
    check_hypergraph_contraction,
    search_contraction_map,
)
from .core import (
    EntropyVector,
    InequalityParseError,
    LinearInequality,
    all_subsystems,
    complement_subsystem,
    entropy_vector,
    evaluate_inequality,
    mixed_indicator,
    occurrence_bitstrings,
    parse_inequality,
    serialize_inequality,
    subsystem_from_letters,
    subsystem_label,
    weighted_hamming_norm,
)
from .generate import generate_graph, generate_hypergraph, generate_link_model
from .graphs import WeightedGraph, graph_entropy, graph_entropy_vector
from .hypergraphs import (
    Hypergraph,
    hypergraph_cut_weight,
    hypergraph_entropy,
    hypergraph_entropy_vector,
)
from .links import (
    INFINITE,
    AtomicLinkages,
    ConnectivityTable,
    LinkModel,
    LoopCutResult,
    MonotonicityError,
    RAY15_SEPARATING_INEQUALITY,
    StratificationError,
    UncuttableSubsystemError,
    bridge_oracle,
    connected_sublinks,
    hypergraph_to_link,
    is_irreducible,
    is_valid_loop_cut,
    k_loop_stratification,
    link_entropy,
    link_entropy_vector,
    link_min_cut,
    minimal_bridges,
    ray15_link,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
