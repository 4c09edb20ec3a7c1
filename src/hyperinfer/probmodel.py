"""Incidence-graph Laplacian and the Gaussian feature model built on it.

A hypergraph's incidence graph is bipartite: one vertex per node, one per
hyperedge, an edge wherever a hyperedge contains a node. Its Laplacian is
the block matrix [[diag(H 1), -H], [-H^T, diag(H^T 1)]] with H the
(possibly weighted) incidence matrix. Node and hyperedge features are
modelled jointly as zero-mean Gaussian with precision L + sigma^2 I, which
is what the synthetic sampler draws from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DomainError, Hypergraph, incidence_matrix


@dataclass(frozen=True)
class IncidenceLaplacian:
    """(n+m) x (n+m) Laplacian of a hypergraph's bipartite incidence graph."""

    matrix: np.ndarray
    n: int
    m: int

    @property
    def size(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class GaussianModelConfig:
    """Sampler settings: precision regulariser sigma, feature dim, RNG seed.

    dim defaults to the fidelity value used for benchmark runs; tests pass a
    smaller desk-scale dim explicitly.
    """

    sigma: float = 1e-3
    dim: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.dim < 1:
            raise DomainError(f"feature dimension must be >= 1, got {self.dim}")


def incidence_laplacian(h: Hypergraph) -> IncidenceLaplacian:
    """Build the incidence-graph Laplacian, weighted columns included.

    Degrees are recomputed from the weighted incidence matrix, so rows sum
    to zero and the matrix stays positive semidefinite for any valid
    weights.
    """
    inc = incidence_matrix(h)
    n, m = inc.shape
    lap = np.zeros((n + m, n + m))
    lap[:n, :n] = np.diag(inc.sum(axis=1))
    lap[n:, n:] = np.diag(inc.sum(axis=0))
    lap[:n, n:] = -inc
    lap[n:, :n] = -inc.T
    return IncidenceLaplacian(matrix=lap, n=n, m=m)


def sample_features(
    lap: IncidenceLaplacian, cfg: GaussianModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw node and hyperedge features from N(0, (L + sigma^2 I)^-1).

    Each of the dim columns is an independent draw, realised by factoring
    the precision matrix as R^T R and solving R x = z for standard-normal
    z. Deterministic for a fixed seed. Returns (node rows, hyperedge rows).
    """
    precision = lap.matrix + (cfg.sigma**2) * np.eye(lap.size)
    try:
        r = scipy.linalg.cholesky(precision, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise DomainError(
            "precision matrix is not positive definite; the Laplacian is broken"
        ) from exc
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((lap.size, cfg.dim))
    x = scipy.linalg.solve_triangular(r, z, lower=False)
    return x[: lap.n], x[lap.n :]
