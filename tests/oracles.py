"""Paper identities kept as independent oracles for the tests.

None of this runs in the inference pipeline, so it lives with the tests. The
ev measure scores an edge by the summed squared distances from its own feature
vector to its member nodes; weighted by edge probabilities it equals the
quadratic form trace(X^T L X) of the incidence-graph Laplacian. The objective
w.s' - sum(log w) + ||w||_1 is what the closed-form weights w = 1/(s' + 1)
minimise.
"""

from __future__ import annotations

import numpy as np

from hyperinfer.core import DomainError, Hypergraph, as_features
from hyperinfer.probmodel import IncidenceLaplacian


def weighted_smoothness_ev(w, h: Hypergraph, x_nodes, x_edges) -> float:
    """Sum over edges of w_e times the squared distances from x_e to each member."""
    xv = as_features(x_nodes, name="node features")
    xe = as_features(x_edges, name="edge features")
    if xv.shape[0] != h.n:
        raise DomainError(f"node feature rows {xv.shape[0]} != node count {h.n}")
    if xe.shape[0] != h.m:
        raise DomainError(f"edge feature rows {xe.shape[0]} != edge count {h.m}")
    if xe.shape[1] != xv.shape[1]:
        raise DomainError(
            f"edge feature dimension {xe.shape[1]} != node feature dimension {xv.shape[1]}"
        )
    weights = np.asarray(w, dtype=float).reshape(-1)
    if weights.shape[0] != h.m:
        raise DomainError(f"got {weights.shape[0]} weights for {h.m} edges")
    if np.any(weights < 0.0) or np.any(weights > 1.0):
        raise DomainError("weights must lie in [0, 1]")
    per_edge = [np.sum((xv[list(edge)] - xe[i]) ** 2) for i, edge in enumerate(h.edges)]
    return float(weights @ np.array(per_edge))


def negative_log_likelihood(lap: IncidenceLaplacian, x_nodes, x_edges) -> float:
    """trace(X^T L X) for X the stacked node and hyperedge features.

    For a weighted candidate hypergraph this equals the probability-weighted
    sum of squared node-to-hyperedge distances, and is nonnegative because
    the Laplacian is PSD.
    """
    xv = as_features(x_nodes, name="node features")
    if lap.m > 0:
        xe = as_features(x_edges, name="edge features")
    else:
        xe = np.asarray(x_edges, dtype=float).reshape(0, xv.shape[1])
    if xv.shape[0] != lap.n:
        raise DomainError(f"node feature rows {xv.shape[0]} != Laplacian node block {lap.n}")
    if xe.shape[0] != lap.m:
        raise DomainError(f"edge feature rows {xe.shape[0]} != Laplacian edge block {lap.m}")
    if lap.m > 0 and xe.shape[1] != xv.shape[1]:
        raise DomainError(
            f"edge feature dimension {xe.shape[1]} != node feature dimension {xv.shape[1]}"
        )
    x = np.vstack([xv, xe])
    return float(np.sum(x * (lap.matrix @ x)))


def inference_objective(w, s_prime) -> float:
    """Convex objective over probabilities: w.s' - sum(log w) + ||w||_1.

    The log barrier keeps every probability strictly positive and the L1
    term penalises dense structures. Natural logarithm, so the coordinate
    minimum sits at w_i = 1 / (s'_i + 1).
    """
    scores = np.asarray(s_prime, dtype=float).reshape(-1)
    weights = np.asarray(w, dtype=float).reshape(-1)
    if weights.shape[0] != scores.shape[0]:
        raise DomainError(f"got {weights.shape[0]} weights for {scores.shape[0]} scores")
    if np.any(weights <= 0.0):
        raise DomainError("probabilities must be strictly positive")
    if np.any(weights > 1.0):
        raise DomainError("probabilities must lie in (0, 1]")
    return float(weights @ scores - np.sum(np.log(weights)) + np.sum(weights))
