"""Core hypergraph types and validated constructors.

A hypergraph is a node count plus a list of hyperedges, each a set of node
indices of size >= 2, optionally weighted by a probability in (0, 1]. Edges
are canonicalised to sorted tuples at construction so downstream set
comparisons are cheap; node indices are 0-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
import scipy.sparse


class DomainError(ValueError):
    """Input violates one of the library's domain contracts."""


class InfeasibleError(DomainError):
    """A requested configuration or selection cannot be satisfied."""


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph: ``n`` nodes, edges as sorted index tuples.

    ``weights``, when present, aligns with ``edges`` and holds per-edge
    probabilities in (0, 1]. Instances are safe to share across threads.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TopM:
    """Select the ``m`` candidates of highest probability overall."""

    m: int


@dataclass(frozen=True)
class PerSize:
    """Select a fixed number of top candidates within each size category."""

    counts: Mapping[int, int]


SelectionSpec = Union[TopM, PerSize]


def check_seed(seed) -> None:
    """Reject a seed numpy's generators would refuse: it must be a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def build_hypergraph(
    n: int,
    edges: Iterable[Iterable[int]],
    weights: Sequence[float] | None = None,
) -> Hypergraph:
    """Validate and canonicalise a hypergraph.

    Edge node lists are turned into sorted tuples; duplicate node sets,
    out-of-range indices, edges smaller than 2 nodes, a node repeated within
    an edge, and weights outside (0, 1] are rejected.
    """
    if n < 1:
        raise DomainError(f"node count must be positive, got {n}")
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in edges:
        nodes = [int(v) for v in raw]
        edge = tuple(sorted(set(nodes)))
        if len(edge) < 2:
            raise DomainError(f"hyperedge {edge} is too small (need >= 2 distinct nodes)")
        if len(edge) != len(nodes):
            raise DomainError(f"hyperedge {tuple(nodes)} repeats a node id")
        if edge[0] < 0 or edge[-1] >= n:
            raise DomainError(f"hyperedge {edge} has a node index out of range [0, {n})")
        if edge in seen:
            raise DomainError(f"duplicate hyperedge {edge}")
        seen.add(edge)
        canon.append(edge)
    wts: tuple[float, ...] | None = None
    if weights is not None:
        wts = tuple(float(w) for w in weights)
        if len(wts) != len(canon):
            raise DomainError(
                f"got {len(wts)} weights for {len(canon)} edges"
            )
        for w in wts:
            if not (0.0 < w <= 1.0) or not np.isfinite(w):
                raise DomainError(f"edge weight {w} outside (0, 1]")
    return Hypergraph(n=int(n), edges=tuple(canon), weights=wts)


def incidence(h: Hypergraph) -> scipy.sparse.csc_matrix:
    """The sparse n x m incidence H, the one place edge lists become a matrix.

    Column i holds edge i's nodes in ascending order, each valued at the
    edge's weight (1 if unweighted). Built in O(nnz).
    """
    sizes = np.fromiter(map(len, h.edges), dtype=np.intp, count=h.m)
    nodes = np.fromiter(chain.from_iterable(h.edges), dtype=np.intp, count=sizes.sum())
    weights = np.ones(h.m) if h.weights is None else np.asarray(h.weights, dtype=float)
    return scipy.sparse.csc_matrix(
        (np.repeat(weights, sizes), nodes, np.concatenate(([0], np.cumsum(sizes)))),
        shape=(h.n, h.m),
    )


def incidence_matrix(h: Hypergraph) -> np.ndarray:
    """``incidence(h)`` as a dense n x m array."""
    return incidence(h).toarray()


def as_features(x, *, name: str = "features") -> np.ndarray:
    """Coerce to a validated 2-D float feature matrix (rows x dim, all finite)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains NaN or Inf entries")
    return arr


def normalize_features(x) -> np.ndarray:
    """Scale the whole matrix by one factor so its entries have unit variance.

    A single global scalar leaves every distance ratio, and therefore the
    nearest-neighbour structure and candidate ranking, exactly as it was; only
    the magnitudes that feed the probability formula change. A constant matrix
    has nothing to scale and passes through unchanged.
    """
    arr = as_features(x)
    with np.errstate(over="ignore"):
        spread = float(arr.std())
        if not np.isfinite(spread):
            # The squared deviations overflowed: take the spread at unit scale.
            peak = float(np.abs(arr).max())
            spread = float((arr / peak).std()) * peak
    if spread == 0.0:
        return arr.copy()
    return arr / spread
