"""Hyperedge inference: nearest-neighbour candidates, closed-form weights, selection.

The pipeline is generate, score, weight, select. Candidate generation applies a
hard constraint: a hyperedge of size k must consist of some node together with
its k-1 nearest neighbours in feature space, which caps the pool at one
candidate per node per size. Each candidate is scored by its spread smoothness
s' and weighted by w = 1/(s' + 1), the exact minimiser of the smoothness
objective, so no iterative optimisation happens anywhere in the pipeline.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
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
)
from .smoothness import SmoothnessVariant, pairwise_sq_dists, row_chunks, variant_edge_smoothness

# Unused here, but perfbench/spans.py wraps this attribute of this module, so it stays bound.
from .core import build_hypergraph  # noqa: F401

Candidate = namedtuple("Candidate", ["nodes", "anchor"])


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Duplicate-free candidate pool held as arrays, with optional scores and weights.

    ``nodes`` is a (c, max size) intp array with one candidate per row: its
    node ids ascending, then -1 up to the row width, so rows compare column by
    column the way their node tuples do. ``anchors[i]`` is the node that
    proposed row i. scores and probs, when present, are float arrays aligned
    with the rows. The pool never exceeds len(sizes) * n rows. The rows are
    checked once and made read-only: ``dataclasses.replace`` with new scores
    or probabilities does not check them again.
    """

    n: int
    nodes: np.ndarray
    anchors: np.ndarray
    scores: np.ndarray | None = None
    probs: np.ndarray | None = None
    # The n, nodes and anchors that passed _check_rows (none at first); replace() copies it.
    _checked: tuple = field(default=(object(),) * 3, repr=False, kw_only=True)

    def __post_init__(self):
        if any(a is not b for a, b in zip(self._checked, (self.n, self.nodes, self.anchors))):
            self._check_rows()
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=float)
            if s.shape != (len(self),):
                raise DomainError("scores are not aligned with candidates")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0):
                raise DomainError("scores must be finite and nonnegative")
            object.__setattr__(self, "scores", s)
        if self.probs is not None:
            w = np.asarray(self.probs, dtype=float)
            if w.shape != (len(self),):
                raise DomainError("probs are not aligned with candidates")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0) or np.any(w > 1.0):
                raise DomainError("probs must lie in (0, 1]")
            object.__setattr__(self, "probs", w)

    def _check_rows(self) -> None:
        if self.n < 1:
            raise DomainError(f"node count must be >= 1, got {self.n}")
        nodes, anchors = np.array(self.nodes, np.intp), np.array(self.anchors, np.intp)
        if nodes.ndim != 2 or anchors.shape != nodes.shape[:1]:
            raise DomainError(f"shapes {nodes.shape}, {anchors.shape} are not (c, w), (c,)")
        inside = nodes >= 0
        unordered = inside[:, 1:] & ((nodes[:, 1:] <= nodes[:, :-1]) | ~inside[:, :-1])
        for bad, what in (
            (((nodes < -1) | (nodes >= self.n)).any(axis=1), f"is out of range for n={self.n}"),
            (np.count_nonzero(inside, axis=1) < 2, "is too small; need at least two nodes"),
            (unordered.any(axis=1), "needs distinct node ids in ascending order, then -1 padding"),
            (~((nodes == anchors[:, None]) & inside).any(axis=1), "does not contain its anchor"),
            (_repeats(nodes), "is a duplicate node set"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                row = tuple(nodes[i][nodes[i] != -1].tolist())
                raise DomainError(f"candidate {row} (anchor {anchors[i]}) {what}")
        nodes.flags.writeable = anchors.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "anchors", anchors)
        if len(nodes) > len(self.sizes) * self.n:
            raise DomainError("candidate count exceeds the sizes * nodes bound")
        object.__setattr__(self, "_checked", (self.n, nodes, anchors))

    @property
    def row_sizes(self) -> np.ndarray:
        """The size of each candidate: its count of node ids before the padding."""
        return np.count_nonzero(self.nodes >= 0, axis=1)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.size_counts())

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """The rows as (nodes, anchor) tuples, for inspection; the pipeline uses the arrays."""
        return tuple(map(Candidate, self.edges(), self.anchors.tolist()))

    def edges(self, index=slice(None)) -> list[tuple[int, ...]]:
        """The node tuples of the rows at ``index``, in that order."""
        rows = zip(self.nodes[index].tolist(), self.row_sizes[index].tolist())
        return [tuple(row[:k]) for row, k in rows]

    def __len__(self) -> int:
        return len(self.nodes)

    def size_counts(self) -> dict[int, int]:
        return dict(sorted(Counter(self.row_sizes.tolist()).items()))


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Flags each row that equals an earlier row."""
    repeat = np.zeros(len(rows), dtype=bool)
    if rows.size:
        order = np.lexsort(rows.T[::-1])  # stable, so equal rows keep their order
        repeat[order[1:]] = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    return repeat


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

    ``d`` holds one row chunk's distances to all nodes and is overwritten.
    ``np.argpartition`` keeps r entries per row without sorting the row. A row
    with more than r entries at or below its r-th distance has a tie at the
    boundary, so every such entry is sorted and the r first are kept: this is
    the order a stable argsort of the full row gives. Each row is handled
    alone, so the result does not depend on how the rows are chunked.
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

    The features are validated once. The search runs over the near-equal
    ``row_chunks`` of about 2 MiB of distances each, which also bound the
    temporaries of the squared row norms. A chunk's distances to all n nodes
    are computed into two buffers allocated once per search, and its
    max(sizes)-1 nearest neighbours kept before the next chunk is computed. It
    never holds an n x n matrix, an n x d temporary or a full index array, and
    sorts no full row. Every size takes a prefix of the one neighbour list.

    Features whose largest squared row norm exceeds a quarter of the largest
    float are rejected: below that bound every distance and score is finite.
    """
    x = as_features(x_nodes, name="node features")
    n = x.shape[0]
    ks = _checked_sizes(sizes, n)
    chunks = row_chunks(n)
    with np.errstate(over="ignore"):
        sq_norms = np.concatenate([np.sum(x[a:b] * x[a:b], axis=1) for a, b in chunks])
    if sq_norms.max() > np.finfo(float).max / 4:
        raise DomainError(
            f"node features are too large for the neighbour search: the largest squared row "
            f"norm is {sq_norms.max():.3g}, so distances overflow; rescale them (e.g. --normalize)"
        )
    r = ks[-1] - 1
    neighbours = np.empty((n, r), dtype=np.intp)
    dist, scratch = np.empty((2, chunks[0][1], n))
    # With n <= 512 the one chunk is the full product.
    for start, stop in chunks:
        d = pairwise_sq_dists(x, sq_norms, start, dist[: stop - start], scratch[: stop - start])
        neighbours[start:stop] = _nearest(d, start, r)
    del dist, scratch, d  # the chunk buffers are freed before the pool is built
    # One block of rows per size, sorted and padded to the widest size. Rows of
    # different sizes never collide, so one pass finds every duplicate.
    with_anchor = np.column_stack((np.arange(n), neighbours))
    blocks = np.full((len(ks), n, ks[-1]), -1, dtype=np.intp)
    for block, k in zip(blocks, ks):
        block[:, :k] = np.sort(with_anchor[:, :k], axis=1)
    nodes = blocks.reshape(-1, ks[-1])
    keep = np.flatnonzero(~_repeats(nodes))
    return CandidateSet(n=n, nodes=nodes[keep], anchors=keep % n)


def score_candidates(
    cs: CandidateSet, x_nodes, variant: SmoothnessVariant | None = None
) -> CandidateSet:
    """Attach the spread score s' of every candidate under the given variant.

    Any previously attached probabilities are dropped because they would no
    longer match the scores.
    """
    if len(cs) == 0:
        raise DomainError("no candidates to score")
    x = as_features(x_nodes, name="node features")
    if x.shape[0] != cs.n:
        raise DomainError(f"feature rows {x.shape[0]} do not match candidate pool n={cs.n}")
    var = SmoothnessVariant() if variant is None else variant
    scores = np.empty(len(cs))
    for k in cs.sizes:
        at = cs.row_sizes == k
        scores[at] = variant_edge_smoothness(cs.nodes[at, :k], x, var)
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


def _selection_order(cs: CandidateSet) -> np.ndarray:
    """Candidate indices by falling probability, then rising score, then node tuple.

    This is the one statement of the ranking rule. Padded rows order like
    their node tuples, so a candidate sorts before any longer one it starts.
    """
    scores = cs.scores if cs.scores is not None else np.zeros(len(cs))
    return np.lexsort((*cs.nodes.T[::-1], scores, -cs.probs))


def select_edges(cs: CandidateSet, spec: SelectionSpec) -> Hypergraph:
    """Pick the highest-probability candidates, overall (TopM) or per size (PerSize).

    Candidates are taken in ``_selection_order``, so the same pool always
    yields the same hypergraph. Selected edges carry their probabilities as
    weights. The pool's rows and probabilities are already checked, so the
    Hypergraph is built from them as they are.
    """
    if cs.probs is None:
        raise DomainError("candidate probabilities are missing; infer them first")
    if isinstance(spec, TopM):
        quotas = {None: spec.m}  # None: any size
    elif isinstance(spec, PerSize):
        quotas = {int(k): int(spec.counts[k]) for k in sorted(spec.counts)}
    else:
        raise DomainError(f"unknown selection spec: {spec!r}")
    order = _selection_order(cs)
    ranked_sizes = cs.row_sizes[order]
    picks = [order[:0]]
    for k, want in quotas.items():
        have = order if k is None else order[ranked_sizes == k]
        what = "candidates" if k is None else f"candidates of size {k}"
        if want < 0:
            raise DomainError(f"requested a negative number of {what}: {want}")
        if want > len(have):
            raise InfeasibleError(f"not enough {what}: requested {want}, have {len(have)}")
        picks.append(have[:want])
    chosen = np.concatenate(picks)
    return Hypergraph(int(cs.n), tuple(cs.edges(chosen)), tuple(cs.probs[chosen].tolist()))


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
