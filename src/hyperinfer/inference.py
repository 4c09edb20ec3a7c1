"""Hyperedge inference: nearest-neighbour candidates, closed-form weights, selection.

The pipeline is generate, score, weight, select. Candidate generation applies a
hard constraint: a hyperedge of size k must consist of some node together with
its k-1 nearest neighbours in feature space, which caps the pool at one
candidate per node per size. Each candidate is scored by its spread smoothness
s' and weighted by w = 1/(s' + 1), the exact minimiser of the smoothness
objective, so no iterative optimisation happens anywhere in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import (
    DomainError,
    Hypergraph,
    InfeasibleError,
    PerSize,
    SelectionSpec,
    TopM,
    as_features,
    build_hypergraph,
)
from .smoothness import SmoothnessVariant, pairwise_sq_dists, variant_edge_smoothness

# Rows per block of the neighbour search. A block holds a few float64 arrays
# of _BLOCK_ROWS x n entries.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class Candidate:
    """Potential hyperedge: a sorted node tuple plus the node that proposed it."""

    nodes: tuple[int, ...]
    anchor: int

    def __post_init__(self):
        nodes = tuple(sorted({int(v) for v in self.nodes}))
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise DomainError(f"candidate {nodes} is too small; need at least two nodes")
        if self.anchor not in nodes:
            raise DomainError(f"anchor {self.anchor} is not a member of {nodes}")

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Ordered, duplicate-free candidate pool with optional scores and weights.

    scores and probs, when present, are float arrays aligned with candidates.
    The pool never exceeds len(sizes) * n entries.
    """

    n: int
    sizes: tuple[int, ...]
    candidates: tuple[Candidate, ...]
    scores: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(k) for k in self.sizes))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.n < 1:
            raise DomainError(f"node count must be >= 1, got {self.n}")
        allowed = set(self.sizes)
        seen: set[tuple[int, ...]] = set()
        for cand in self.candidates:
            if cand.size not in allowed:
                raise DomainError(
                    f"candidate {cand.nodes} has size {cand.size}, not one of {sorted(allowed)}"
                )
            if cand.nodes[0] < 0 or cand.nodes[-1] >= self.n:
                raise DomainError(f"candidate {cand.nodes} is out of range for n={self.n}")
            if cand.nodes in seen:
                raise DomainError(f"duplicate candidate node set {cand.nodes}")
            seen.add(cand.nodes)
        if len(self.candidates) > len(self.sizes) * self.n:
            raise DomainError("candidate count exceeds the sizes * nodes bound")
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=float)
            if s.shape != (len(self.candidates),):
                raise DomainError("scores are not aligned with candidates")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0):
                raise DomainError("scores must be finite and nonnegative")
            object.__setattr__(self, "scores", s)
        if self.probs is not None:
            w = np.asarray(self.probs, dtype=float)
            if w.shape != (len(self.candidates),):
                raise DomainError("probs are not aligned with candidates")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0) or np.any(w > 1.0):
                raise DomainError("probs must lie in (0, 1]")
            object.__setattr__(self, "probs", w)

    def __len__(self) -> int:
        return len(self.candidates)

    def size_counts(self) -> dict[int, int]:
        counts = {k: 0 for k in self.sizes}
        for cand in self.candidates:
            counts[cand.size] += 1
        return counts


def _checked_sizes(sizes: Iterable[int], n: int) -> tuple[int, ...]:
    ks = sorted({int(k) for k in sizes})
    if not ks:
        raise DomainError("at least one hyperedge size is required")
    for k in ks:
        if k < 2:
            raise DomainError(f"hyperedge size {k} is too small; sizes start at 2")
        if k > n:
            raise DomainError(f"hyperedge size {k} exceeds the node count {n}")
    return tuple(ks)


def _nearest(d: np.ndarray, start: int, r: int) -> np.ndarray:
    """The r nearest other nodes of rows [start, start + len(d)), by (distance, index).

    ``d`` holds those rows' distances to all nodes and is overwritten.
    ``np.argpartition`` keeps r entries per row without sorting the row. A row
    with more than r entries at or below its r-th distance has a tie at the
    boundary, so every such entry is sorted and the r first are kept: this is
    the order a stable argsort of the full row gives.
    """
    rows = np.arange(len(d))
    d[rows, rows + start] = np.inf
    part = np.argpartition(d, r - 1, axis=1)[:, :r]
    dist = np.take_along_axis(d, part, axis=1)
    nearest = np.take_along_axis(part, np.lexsort((part, dist), axis=1), axis=1)
    kth = dist.max(axis=1, keepdims=True)
    for i in np.flatnonzero(np.count_nonzero(d <= kth, axis=1) > r):
        cols = np.flatnonzero(d[i] <= kth[i])
        nearest[i] = cols[np.lexsort((cols, d[i, cols]))[:r]]
    return nearest


def generate_candidates(x_nodes, sizes: Iterable[int]) -> CandidateSet:
    """One candidate per (size, anchor): the anchor and its k-1 nearest neighbours.

    Distances are squared Euclidean. Equidistant neighbours resolve to the
    smaller node index, so generation is fully deterministic. Duplicate node
    sets keep the first (size, anchor) pair that produced them, and the result
    is ordered by size, then anchor.

    The search runs over near-equal blocks of at most 512 rows: each block's
    distances to all n nodes are computed, its max(sizes)-1 nearest neighbours
    kept, and the block freed, so memory is O(512 n) and no row is fully
    sorted. Every size takes a prefix of the one neighbour list.
    """
    x = as_features(x_nodes, name="node features")
    n = x.shape[0]
    ks = _checked_sizes(sizes, n)
    r = ks[-1] - 1
    neighbours = np.empty((n, r), dtype=np.intp)
    # Near-equal blocks, so none is a single row (n >= 2 here): a one-row
    # product takes numpy's gemv path, whose rounding differs from the matrix
    # product's. With n <= _BLOCK_ROWS the one block is the full product.
    for rows in np.array_split(np.arange(n), -(-n // _BLOCK_ROWS)):
        start, stop = int(rows[0]), int(rows[-1]) + 1
        neighbours[start:stop] = _nearest(pairwise_sq_dists(x, start, stop), start, r)
    order = neighbours.tolist()
    out: list[Candidate] = []
    seen: set[tuple[int, ...]] = set()
    for k in ks:
        for anchor in range(n):
            nodes = tuple(sorted((anchor, *order[anchor][: k - 1])))
            if nodes in seen:
                continue
            seen.add(nodes)
            out.append(Candidate(nodes=nodes, anchor=anchor))
    return CandidateSet(n=n, sizes=ks, candidates=tuple(out))


def score_candidates(
    cs: CandidateSet, x_nodes, variant: SmoothnessVariant | None = None
) -> CandidateSet:
    """Attach the spread score s' of every candidate under the given variant.

    Any previously attached probabilities are dropped because they would no
    longer match the scores.
    """
    if len(cs.candidates) == 0:
        raise DomainError("no candidates to score")
    x = as_features(x_nodes, name="node features")
    if x.shape[0] != cs.n:
        raise DomainError(f"feature rows {x.shape[0]} do not match candidate pool n={cs.n}")
    var = SmoothnessVariant() if variant is None else variant
    by_size: dict[int, list[int]] = {}
    for i, cand in enumerate(cs.candidates):
        by_size.setdefault(cand.size, []).append(i)
    scores = np.empty(len(cs.candidates))
    for at in by_size.values():
        rows = np.array([cs.candidates[i].nodes for i in at])
        scores[at] = variant_edge_smoothness(rows, x, var)
    return replace(cs, scores=scores, probs=None)


def infer_probabilities(scores) -> np.ndarray:
    """Closed-form candidate weights w_i = 1 / (s'_i + 1).

    This is the coordinatewise minimiser of the weighted smoothness objective
    over (0, 1], so each weight lands in (0, 1] and decreases as the score
    grows.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise DomainError(f"scores must be a 1-d array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DomainError("scores must be finite")
    if np.any(s < 0.0):
        raise DomainError(f"negative smoothness score: minimum is {s.min()}")
    return 1.0 / (s + 1.0)


def _selection_order(cs: CandidateSet) -> list[int]:
    """Candidate indices by falling probability, then rising score, then node tuple."""
    scores = cs.scores if cs.scores is not None else np.zeros(len(cs.candidates))
    return sorted(
        range(len(cs.candidates)),
        key=lambda i: (-float(cs.probs[i]), float(scores[i]), cs.candidates[i].nodes),
    )


def select_edges(cs: CandidateSet, spec: SelectionSpec) -> Hypergraph:
    """Pick the highest-probability candidates, overall (TopM) or per size (PerSize).

    Ties break toward the lower score, then the lexicographically smaller node
    tuple (``_selection_order``), so the same pool always yields the same
    hypergraph. Selected edges carry their probabilities as weights.
    """
    if cs.probs is None:
        raise DomainError("candidate probabilities are missing; infer them first")
    order = _selection_order(cs)
    if isinstance(spec, TopM):
        if spec.m < 0:
            raise DomainError(f"requested a negative number of edges: {spec.m}")
        if spec.m > len(order):
            raise InfeasibleError(
                f"not enough candidates: requested {spec.m}, have {len(order)}"
            )
        chosen = order[: spec.m]
    elif isinstance(spec, PerSize):
        by_size: dict[int, list[int]] = {}
        for i in order:
            by_size.setdefault(cs.candidates[i].size, []).append(i)
        chosen = []
        for k in sorted(spec.counts):
            want = int(spec.counts[k])
            if want < 0:
                raise DomainError(f"requested a negative count for size {k}")
            have = by_size.get(int(k), [])
            if want > len(have):
                raise InfeasibleError(
                    f"not enough candidates of size {k}: requested {want}, have {len(have)}"
                )
            chosen.extend(have[:want])
    else:
        raise DomainError(f"unknown selection spec: {spec!r}")
    edges = [cs.candidates[i].nodes for i in chosen]
    weights = [float(cs.probs[i]) for i in chosen]
    return build_hypergraph(cs.n, edges, weights=weights)


def infer_hypergraph(
    x_nodes,
    sizes: Iterable[int],
    spec: SelectionSpec,
    variant: SmoothnessVariant | None = None,
) -> tuple[CandidateSet, Hypergraph]:
    """Run the full pipeline and return the weighted pool plus the selection.

    The candidate pool comes back with scores and probabilities filled in so
    callers can inspect what the selection was chosen from.
    """
    cs = generate_candidates(x_nodes, sizes)
    cs = score_candidates(cs, x_nodes, variant=variant)
    cs = replace(cs, probs=infer_probabilities(cs.scores))
    return cs, select_edges(cs, spec)
