"""Hypergraph structure inference from node features under a smoothness prior."""

__version__ = "0.2.0"

from .core import (
    DomainError,
    Hypergraph,
    InfeasibleError,
    PerSize,
    TopM,
    build_hypergraph,
    incidence_matrix,
    normalize_features,
)
from .smoothness import SmoothnessVariant
from .probmodel import GaussianModelConfig, incidence_laplacian, sample_features
from .inference import (
    CandidateSet,
    generate_candidates,
    infer_hypergraph,
    infer_probabilities,
    score_candidates,
    select_edges,
)
from .synth import SynthConfig, make_dataset
from .metrics import f1_exact, hgmse, probability_separation
from .experiments import run_protocol, run_sweep

__all__ = [
    "__version__",
    "DomainError",
    "Hypergraph",
    "InfeasibleError",
    "PerSize",
    "TopM",
    "build_hypergraph",
    "incidence_matrix",
    "normalize_features",
    "SmoothnessVariant",
    "GaussianModelConfig",
    "incidence_laplacian",
    "sample_features",
    "CandidateSet",
    "generate_candidates",
    "infer_hypergraph",
    "infer_probabilities",
    "score_candidates",
    "select_edges",
    "SynthConfig",
    "make_dataset",
    "f1_exact",
    "hgmse",
    "probability_separation",
    "run_protocol",
    "run_sweep",
]
