"""Hypergraph structure inference from node features under a smoothness prior."""

__version__ = "0.2.0"

from .core import (
    DomainError,
    Hypergraph,
    InfeasibleError,
    PerSize,
    SelectionSpec,
    TopM,
    as_features,
    build_hypergraph,
    incidence_matrix,
    normalize_features,
)
from .smoothness import (
    VARIANT_KINDS,
    SmoothnessVariant,
    pairwise_sq_dists,
    variant_edge_smoothness,
)
from .probmodel import (
    GaussianModelConfig,
    IncidenceLaplacian,
    incidence_laplacian,
    sample_features,
)
from .inference import (
    CandidateSet,
    generate_candidates,
    infer_hypergraph,
    infer_probabilities,
    score_candidates,
    select_edges,
)
from .synth import (
    OVERLAP_TOLERANCE,
    SynthConfig,
    SyntheticDataset,
    generate_ground_truth,
    make_dataset,
    overlap_rate,
)
from .metrics import (
    MatchReport,
    SeparationReport,
    f1_exact,
    hgmse,
    probability_separation,
)
from .experiments import (
    SWEEP_AXES,
    SWEEP_COLUMNS,
    ProtocolResult,
    run_protocol,
    run_sweep,
)

__all__ = [
    "__version__",
    "DomainError",
    "Hypergraph",
    "InfeasibleError",
    "PerSize",
    "SelectionSpec",
    "TopM",
    "as_features",
    "build_hypergraph",
    "incidence_matrix",
    "normalize_features",
    "VARIANT_KINDS",
    "SmoothnessVariant",
    "pairwise_sq_dists",
    "variant_edge_smoothness",
    "GaussianModelConfig",
    "IncidenceLaplacian",
    "incidence_laplacian",
    "sample_features",
    "CandidateSet",
    "generate_candidates",
    "infer_hypergraph",
    "infer_probabilities",
    "score_candidates",
    "select_edges",
    "OVERLAP_TOLERANCE",
    "SynthConfig",
    "SyntheticDataset",
    "generate_ground_truth",
    "make_dataset",
    "overlap_rate",
    "MatchReport",
    "SeparationReport",
    "f1_exact",
    "hgmse",
    "probability_separation",
    "SWEEP_AXES",
    "SWEEP_COLUMNS",
    "ProtocolResult",
    "run_protocol",
    "run_sweep",
]
