"""Core hypergraph types and validated constructors.

A hypergraph is a node count plus a list of hyperedges, each a set of node
indices of size >= 2, optionally weighted by a probability in (0, 1]. Edges
are canonicalised to sorted tuples at construction so downstream set
comparisons are cheap; node indices are 0-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Mapping, Sequence, Union

import numpy as np


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

# The types an integer input may have; bool, float and str are not among them.
WHOLE = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})
# The types a real-number input may have: WHOLE and every float type, never bool or str.
REAL = WHOLE | {float, *(np.dtype(c).type for c in np.typecodes["Float"])}
# The largest integer input: np.intp indexes every array over the nodes.
INTP_MAX = int(np.iinfo(np.intp).max)


def whole(value, name: str, low: int) -> int:
    """The one rule for a scalar integer: a WHOLE type in [low, INTP_MAX], returned as an int."""
    if type(value) not in WHOLE or not low <= int(value) <= INTP_MAX:
        raise DomainError(f"{name} must be an integer in [{low}, {INTP_MAX}], got {value!r}")
    return int(value)


def real(value, name: str) -> float:
    """``value`` as a Python float, or a DomainError naming it if its type is not in REAL."""
    if type(value) not in REAL:
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def keyed_rng(key: Iterable[int]) -> np.random.Generator:
    """The generator ``np.random.default_rng(list(key))`` gives, for nonnegative ints.

    numpy's seed coercion turns each int of a list into its 32-bit words,
    least significant first and at least one per int, and joins them; a
    uint32 array of those words skips that per-int work and seeds the same
    stream. Each generator gets a fresh array, as its SeedSequence keeps it.
    """
    words = []
    for value in key:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value > 0:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def build_hypergraph(
    n: int,
    edges: Iterable[Iterable[int]],
    weights: Sequence[float] | None = None,
) -> Hypergraph:
    """Validate and canonicalise a hypergraph: the one check every hypergraph passes.

    ``n`` passes ``whole`` and the node ids must have a ``WHOLE`` type;
    weights must be integers or floats. Nothing else is coerced: node id 1.7
    is an error, not node 1. Edges come out as sorted tuples of Python ints,
    weights as Python floats. Duplicate node sets, out-of-range indices, edges
    smaller than 2 nodes, a node repeated within an edge and weights outside
    (0, 1] are errors.
    """
    n = whole(n, "node count n", 1)
    canon: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in edges:
        raw = tuple(raw)
        if not WHOLE.issuperset(map(type, raw)):
            raise DomainError(f"hyperedge {raw} has a node id that is not an integer")
        nodes = [*map(int, raw)]
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
        wts = tuple(weights)
        if len(wts) != len(canon):
            raise DomainError(f"got {len(wts)} weights for {len(canon)} edges")
        for w in wts:
            if type(w) not in REAL or not 0.0 < w <= 1.0:  # also false for NaN and inf
                raise DomainError(f"edge weight {w!r} is not a number in (0, 1]")
        wts = tuple(map(float, wts))
    return Hypergraph(n=n, edges=tuple(canon), weights=wts)


def edge_arrays(edges: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The flat node ids of ``edges``, edge after edge, and each edge's size, as np.intp.

    These are the CSC arrays of the incidence without its values: edge i's
    nodes are the ``sizes[i]`` entries after those of edges 0 to i - 1, in the
    order the edge holds them.
    """
    sizes = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges))
    return np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=sizes.sum()), sizes


def incidence(h: Hypergraph) -> Any:
    """The sparse n x m incidence H, the one place edge lists become a matrix.

    H is a ``scipy.sparse.csc_matrix``, annotated ``Any`` because scipy is
    imported only when this runs. Column i holds edge i's nodes in ascending
    order, each valued at the edge's weight (1 if unweighted). Built in O(nnz).
    """
    import scipy.sparse

    nodes, sizes = edge_arrays(h.edges)
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
