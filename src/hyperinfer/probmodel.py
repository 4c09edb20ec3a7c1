"""Incidence-graph Laplacian and the Gaussian feature model built on it.

A hypergraph's incidence graph is bipartite: one vertex per node, one per
hyperedge, an edge wherever a hyperedge contains a node. Its Laplacian is
the block matrix [[diag(H 1), -H], [-H^T, diag(H^T 1)]] with H the
(possibly weighted) incidence matrix. Node and hyperedge features are
modelled jointly as zero-mean Gaussian with precision L + sigma^2 I, which
is what the synthetic sampler draws from.

The sampler never forms that (n+m) x (n+m) precision. Its node block
A = diag(H 1) + sigma^2 I is diagonal, so block elimination of the nodes
leaves the m x m Schur complement S = diag(H^T 1) + sigma^2 I - H^T A^-1 H,
one sparse product over H from ``core.incidence``, and the upper Cholesky
factor of the precision is [[A^1/2, -A^-1/2 H], [0, chol(S)]]. Sampling
costs O(m^3 + nnz(H) d) time. S is built and factored in one m x m buffer,
so memory peaks near 8 m^2 + 8 (n+m) d bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import INTP_MAX, DomainError, Hypergraph, incidence, incidence_matrix, real, whole


@dataclass(frozen=True, eq=False)
class IncidenceLaplacian:
    """Laplacian of a hypergraph's bipartite incidence graph, held as its incidence.

    ``incidence`` is the sparse n x m weighted incidence H, a
    ``scipy.sparse.csc_matrix``, which fixes the whole Laplacian. ``matrix``
    builds the dense (n+m) x (n+m) array only when it is read.
    """

    hypergraph: Hypergraph
    incidence: Any

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def m(self) -> int:
        return self.hypergraph.m

    @property
    def size(self) -> int:
        return self.n + self.m

    @property
    def matrix(self) -> np.ndarray:
        """The dense block Laplacian; rows sum to zero and it is PSD for any valid weights."""
        inc = incidence_matrix(self.hypergraph)
        return np.block([[np.diag(inc.sum(axis=1)), -inc], [-inc.T, np.diag(inc.sum(axis=0))]])


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
        sigma = real(self.sigma, "sigma")
        # sigma**2 is the precision's ridge: it must neither overflow nor vanish.
        if not (sigma > 0.0 and 0.0 < sigma * sigma < np.inf):
            raise DomainError(
                f"sigma must be positive with a positive finite square, got {self.sigma}"
            )
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "dim", whole(self.dim, "feature dimension dim", 1))
        object.__setattr__(self, "seed", whole(self.seed, "seed", 0))


def incidence_laplacian(h: Hypergraph) -> IncidenceLaplacian:
    """The incidence-graph Laplacian of h, weighted columns included."""
    return IncidenceLaplacian(hypergraph=h, incidence=incidence(h))


def sample_features(
    lap: IncidenceLaplacian, cfg: GaussianModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw node and hyperedge features from N(0, (L + sigma^2 I)^-1).

    Each of the dim columns is an independent draw x = R^-1 z, with R the
    upper Cholesky factor of the precision and z standard normal. R comes
    from block elimination of the diagonal node block (see the module
    docstring): x_e = chol(S)^-1 z_e and x_v = A^-1/2 z_v + A^-1 H x_e. That
    is the same R and the same z as a dense factorisation, at O(m^3 +
    nnz(H) dim) cost. Deterministic for a fixed seed and BLAS thread count:
    LAPACK's blocked factor of S can round differently on another thread count
    once m is in the hundreds. Returns (node rows, hyperedge rows). A matrix
    whose bytes np.intp cannot count is refused first.
    """
    if 8 * lap.size * cfg.dim > INTP_MAX:
        raise DomainError(
            f"a float64 feature matrix of shape ({lap.size}, {cfg.dim}) is too large to index"
        )
    import scipy.linalg  # scipy is imported only where it is used: see README, Install

    inc = lap.incidence
    var = cfg.sigma**2
    a = np.bincount(inc.indices, weights=inc.data, minlength=lap.n) + var
    scaled = inc.copy()
    scaled.data /= a[inc.indices]  # H A^-1: each entry divided by its node's a
    # S is built and factored in one m x m buffer, which holds S^T: entry for
    # entry, (H A^-1)^T H is H^T (H A^-1) transposed, the same products summed
    # in the same node order. So buffer.T is S, F-contiguous, and LAPACK
    # factors it in place. 0 - P keeps the zeros +0.0 and -P + c is c - P, so
    # S has the bits of diag(c) - P.
    schur_t = (scaled.T @ inc).toarray()
    np.subtract(0.0, schur_t, out=schur_t)
    schur_t.reshape(-1)[:: lap.m + 1] += np.asarray(inc.sum(axis=0)).ravel() + var
    try:
        r = scipy.linalg.cholesky(schur_t.T, lower=False, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise DomainError(
            "precision matrix is not positive definite; the Laplacian is broken"
        ) from exc
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((lap.size, cfg.dim))
    x_edges = scipy.linalg.solve_triangular(r, z[lap.n :], lower=False)
    del schur_t, r  # the m x m buffer is freed before x_nodes is built
    # x_v = A^-1 H x_e + A^-1/2 z_v, built in place: the same quotients and sum.
    x_nodes = inc @ x_edges
    x_nodes /= a[:, None]
    z_nodes = z[: lap.n]
    z_nodes /= np.sqrt(a)[:, None]
    x_nodes += z_nodes
    return x_nodes, x_edges
