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
and the upper Cholesky factor of the precision is
[[A^1/2, -A^-1/2 H], [0, chol(S)]]. Sampling costs O(m^3 + nnz(H) d) time
and O(m^2 + (n+m) d) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.linalg
import scipy.sparse

from .core import DomainError, Hypergraph, incidence_matrix


@dataclass(frozen=True, eq=False)
class IncidenceLaplacian:
    """Laplacian of a hypergraph's bipartite incidence graph, held as its incidence.

    ``incidence`` is the sparse n x m weighted incidence H, which fixes the
    whole Laplacian. ``matrix`` builds the dense (n+m) x (n+m) array only
    when it is read.
    """

    hypergraph: Hypergraph
    incidence: scipy.sparse.csc_matrix

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
        n = self.n
        lap = np.zeros((self.size, self.size))
        lap[:n, :n] = np.diag(inc.sum(axis=1))
        lap[n:, n:] = np.diag(inc.sum(axis=0))
        lap[:n, n:] = -inc
        lap[n:, :n] = -inc.T
        return lap


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
        sigma = float(self.sigma)
        # sigma**2 is the precision's ridge: it must neither overflow nor vanish.
        if not (sigma > 0.0 and 0.0 < sigma * sigma < np.inf):
            raise DomainError(
                f"sigma must be positive with a positive finite square, got {self.sigma}"
            )
        if self.dim < 1:
            raise DomainError(f"feature dimension must be >= 1, got {self.dim}")


def incidence_laplacian(h: Hypergraph) -> IncidenceLaplacian:
    """The incidence-graph Laplacian of h, weighted columns included.

    Builds the sparse incidence column by column straight from the edge
    lists, in O(nnz).
    """
    sizes = [len(e) for e in h.edges]
    nodes = np.fromiter(chain.from_iterable(h.edges), dtype=np.intp, count=sum(sizes))
    starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    weights = np.ones(h.m) if h.weights is None else np.asarray(h.weights, dtype=float)
    inc = scipy.sparse.csc_matrix((np.repeat(weights, sizes), nodes, starts), shape=(h.n, h.m))
    return IncidenceLaplacian(hypergraph=h, incidence=inc)


def _schur_complement(inc: scipy.sparse.csc_matrix, a: np.ndarray, var: float) -> np.ndarray:
    """S = diag(H^T 1) + var I - H^T diag(1/a) H, summed over the entry pairs of H sharing a node.

    A node in d edges adds d^2 terms, so this costs O(nnz + sum of squared
    node degrees) besides the m x m result.
    """
    n, m = inc.shape
    edge = np.repeat(np.arange(m), np.diff(inc.indptr))
    diagonal = np.bincount(edge, weights=inc.data, minlength=m) + var
    order = np.argsort(inc.indices, kind="stable")
    node, edge, weight = inc.indices[order], edge[order], inc.data[order]
    degree = np.bincount(node, minlength=n)
    span = degree[node]
    # In this node-major order, entry j pairs with the span[j] entries of its
    # node, which start at first[node[j]].
    first = np.cumsum(degree) - degree
    left = np.repeat(np.arange(len(node)), span)
    right = np.arange(len(left)) + np.repeat(first[node] - (np.cumsum(span) - span), span)
    gram = np.bincount(
        edge[left] * m + edge[right],
        weights=weight[left] * weight[right] / a[node[left]],
        minlength=m * m,
    )
    return np.diag(diagonal) - gram.reshape(m, m)


def sample_features(
    lap: IncidenceLaplacian, cfg: GaussianModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw node and hyperedge features from N(0, (L + sigma^2 I)^-1).

    Each of the dim columns is an independent draw x = R^-1 z, with R the
    upper Cholesky factor of the precision and z standard normal. R comes
    from block elimination of the diagonal node block (see the module
    docstring): x_e = chol(S)^-1 z_e and x_v = A^-1/2 z_v + A^-1 H x_e. That
    is the same R and the same z as a dense factorisation, at O(m^3 +
    nnz(H) dim) cost. Deterministic for a fixed seed. Returns (node rows,
    hyperedge rows).
    """
    inc = lap.incidence
    var = cfg.sigma**2
    a = np.bincount(inc.indices, weights=inc.data, minlength=lap.n) + var
    try:
        r = scipy.linalg.cholesky(_schur_complement(inc, a, var), lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise DomainError(
            "precision matrix is not positive definite; the Laplacian is broken"
        ) from exc
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((lap.size, cfg.dim))
    x_edges = scipy.linalg.solve_triangular(r, z[lap.n :], lower=False)
    x_nodes = z[: lap.n] / np.sqrt(a)[:, None] + (inc @ x_edges) / a[:, None]
    return x_nodes, x_edges
