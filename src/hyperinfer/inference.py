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
    REAL,
    WHOLE,
    DomainError,
    Hypergraph,
    InfeasibleError,
    PerSize,
    SelectionSpec,
    TopM,
    as_features,
    whole,
)
from .smoothness import (
    BUFFER_BYTES,
    SmoothnessVariant,
    direct_sq_dists,
    pairwise_sq_dists,
    row_chunks,
    variant_edge_smoothness,
)

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
            s = self._real_column("scores")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0):
                raise DomainError("scores must be finite and nonnegative")
        if self.probs is not None:
            w = self._real_column("probs")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0) or np.any(w > 1.0):
                raise DomainError("probs must lie in (0, 1]")

    def _real_column(self, name: str) -> np.ndarray:
        """The field ``name`` stored back as a float array: real numbers, one per row."""
        values = _reals(getattr(self, name), name)
        if values.shape != (len(self),):
            raise DomainError(f"{name} are not aligned with candidates")
        object.__setattr__(self, name, values)
        return values

    def _check_rows(self) -> None:
        object.__setattr__(self, "n", whole(self.n, "node count n", 1))
        nodes, anchors = np.asarray(self.nodes), np.asarray(self.anchors)
        if any(a.size and a.dtype.type not in WHOLE for a in (nodes, anchors)):
            raise DomainError(f"nodes, anchors must be integers: {nodes.dtype}, {anchors.dtype}")
        nodes, anchors = nodes.astype(np.intp), anchors.astype(np.intp)
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


def _reals(values, name: str) -> np.ndarray:
    """``values`` as a float array, if their dtype is in ``REAL``; a DomainError otherwise."""
    values = np.asarray(values)
    if values.dtype.type not in REAL:  # strings, booleans and objects are not coerced
        raise DomainError(f"{name} must be real numbers, got {values.dtype}")
    return values.astype(float, copy=False)


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Flags each row that equals an earlier row, comparing the sorted rows a column at a time."""
    repeat = np.zeros(len(rows), dtype=bool)
    if rows.size:
        order = np.lexsort(rows.T[::-1])  # stable, so equal rows keep their order
        same = np.ones(len(rows) - 1, dtype=bool)
        for col in rows.T:
            col = col[order]
            same &= col[1:] == col[:-1]
        repeat[order[1:]] = same
    return repeat


def _checked_sizes(sizes: Iterable[int], n: int) -> tuple[int, ...]:
    ks = [whole(k, "hyperedge size", 2) for k in sizes]
    if not ks:
        raise DomainError("at least one hyperedge size is required")
    for k in ks:
        if k > n:
            raise DomainError(f"hyperedge size {k} exceeds the node count {n}")
    return tuple(sorted(set(ks)))


def _nearest(gram: np.ndarray, x: np.ndarray, start: int, ks: tuple, bound: np.ndarray):
    """The max(ks)-1 nearest other nodes of rows [start, start + len(gram)), by (distance, index).

    The distance is the scorer's, ``direct_sq_dists``. ``gram`` holds the rows'
    Gram distances (overwritten), ``bound`` each row's
    B_i = 8 (d + 5) u (|x_i|^2 + max_j |x_j|^2), for d features and unit roundoff u.
    With M = |x_i|^2 + |x_j|^2, a Gram entry errs by at most (2d + 4) u M (d u M
    from the product, as much from the norms, 4 u M from two additions), and a
    direct distance by (d + 2) u |x_i - x_j|^2 <= (2d + 4) u M. Both follow from
    the dot-product bound (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), which holds in any summation order, so for any BLAS. So Gram
    entries more than 8 (d + 2) u M apart keep their order; 5 in place of 2 covers
    the second-order terms (for d < 10^7) and the rounding of B_i and of the
    comparisons. The r = max(ks)-1 entries ``np.argpartition`` keeps, sorted by
    (Gram distance, index), are in direct order unless the row has a near-tie:
    more than r entries within B_i of its r-th, or a smaller size k's boundary
    entries (positions k-2 and k-1) within B_i of each other. Only such a row is
    reranked: its entries within B_i of its r-th, by (direct distance, index).
    """
    r = ks[-1] - 1
    np.fill_diagonal(gram[:, start:], np.inf)  # each row's own node
    part = np.argpartition(gram, r - 1, axis=1)[:, :r]
    dist = np.take_along_axis(gram, part, axis=1)
    order = np.lexsort((part, dist), axis=1)
    nearest, dist = np.take_along_axis(part, order, axis=1), np.take_along_axis(dist, order, axis=1)
    reach = dist[:, -1] + bound
    near = np.count_nonzero(gram <= reach[:, None], axis=1) > r
    for k in ks[:-1]:
        near |= dist[:, k - 1] - dist[:, k - 2] <= bound
    for i in np.flatnonzero(near):
        cols = np.flatnonzero(gram[i] <= reach[i])
        direct = direct_sq_dists(x, cols, np.full_like(cols, start + i))
        nearest[i] = cols[np.argsort(direct, kind="stable")[:r]]
    return nearest


def generate_candidates(x_nodes, sizes: Iterable[int]) -> CandidateSet:
    """One candidate per (size, anchor): the anchor and its k-1 nearest neighbours.

    Distances are squared Euclidean, by direct differences (the scorer's).
    Equidistant neighbours resolve to the smaller node index, so the pool is a
    function of the features alone, whatever the chunk height or BLAS.
    Duplicate node sets keep the first (size, anchor) pair that produced them,
    and the result is ordered by size, then anchor.

    The features are validated once. The search runs over the near-equal
    ``row_chunks`` of about ``BUFFER_BYTES`` of distances each, which also
    bound the temporaries of the squared row norms. A chunk's Gram distances
    to all n nodes are computed into one buffer allocated once per search. Its
    rows are ranked in sub-blocks whose partition indices take at most a
    quarter of ``BUFFER_BYTES`` (one row if n > 65536), and their max(sizes)-1
    nearest neighbours, reranked by direct differences at near-ties
    (``_nearest``), are kept before the next chunk is computed. It never holds
    an n x n matrix and sorts no full row. Every size takes a prefix of the one
    neighbour list.

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
    bounds = 4 * (x.shape[1] + 5) * np.finfo(float).eps * (sq_norms + sq_norms.max())  # B_i
    # Each anchor in column 0, then its max(sizes)-1 nearest neighbours.
    neighbours = np.empty((n, ks[-1]), dtype=np.intp)
    neighbours[:, 0] = np.arange(n)
    dist = np.empty((chunks[0][1], n))
    step = max(1, BUFFER_BYTES // (4 * 8 * n))  # rows per ranking sub-block
    # With n <= 512 the one chunk is the full product.
    for start, stop in chunks:
        d = pairwise_sq_dists(x, sq_norms, start, dist[: stop - start])
        for a in range(start, stop, step):
            b = min(a + step, stop)
            neighbours[a:b, 1:] = _nearest(d[a - start : b - start], x, a, ks, bounds[a:b])
    del dist, d  # the chunk buffer is freed before the pool is built
    # One block of rows per size, sorted and padded to the widest size. Rows of
    # different sizes never collide, so one pass finds every duplicate.
    blocks = np.full((len(ks), n, ks[-1]), -1, dtype=np.intp)
    for block, k in zip(blocks, ks):
        block[:, :k] = np.sort(neighbours[:, :k], axis=1)
    nodes = blocks.reshape(-1, ks[-1])
    keep = np.flatnonzero(~_repeats(nodes))
    nodes, anchors = nodes[keep], keep % n
    # The rows are checked by construction and by _repeats above, so the pool skips _check_rows.
    nodes.flags.writeable = anchors.flags.writeable = False
    return CandidateSet(n=n, nodes=nodes, anchors=anchors, _checked=(n, nodes, anchors))


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
    s = _reals(scores, "scores")
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


def _quotas(spec: SelectionSpec, sizes: tuple) -> dict:
    """The spec's count per size (key None: any size), checked against the searched sizes.

    This is the one check of a selection spec: its type, integer sizes and
    counts, no negative count, and no positive count for a size the search
    does not make. It needs no candidates, so ``infer_hypergraph`` runs it
    before the search and ``select_edges`` runs it on the pool's sizes.
    """
    if isinstance(spec, TopM):
        quotas = {None: spec.m}  # None: any size
    elif isinstance(spec, PerSize):
        quotas = dict(spec.counts)
    else:
        raise DomainError(f"unknown selection spec: {spec!r}")
    if not WHOLE.issuperset(map(type, [*quotas.keys() - {None}, *quotas.values()])):
        raise DomainError(f"selection sizes and counts must be integers, got {spec!r}")
    for k, want in sorted(quotas.items()):
        what = "candidates" if k is None else f"candidates of size {k}"
        if want < 0:
            raise DomainError(f"requested a negative number of {what}: {want}")
        if want > 0 and k is not None and k not in sizes:
            raise InfeasibleError(f"not enough {what}: requested {want}, have 0")
    return quotas


def select_edges(cs: CandidateSet, spec: SelectionSpec) -> Hypergraph:
    """Pick the highest-probability candidates, overall (TopM) or per size (PerSize).

    Candidates are taken in ``_selection_order``, so the same pool always
    yields the same hypergraph. Selected edges carry their probabilities as
    weights. The pool's rows and probabilities are already checked, so the
    Hypergraph is built from them as they are.
    """
    if cs.probs is None:
        raise DomainError("candidate probabilities are missing; infer them first")
    quotas = _quotas(spec, cs.sizes)
    order = _selection_order(cs)
    ranked_sizes = cs.row_sizes[order]
    picks = [order[:0]]
    for k, want in sorted(quotas.items()):
        have = order if k is None else order[ranked_sizes == k]
        if want > len(have):
            what = "candidates" if k is None else f"candidates of size {k}"
            raise InfeasibleError(f"not enough {what}: requested {want}, have {len(have)}")
        picks.append(have[:want])
    chosen = np.concatenate(picks)
    return Hypergraph(cs.n, tuple(cs.edges(chosen)), tuple(cs.probs[chosen].tolist()))


def infer_hypergraph(
    x_nodes,
    sizes: Iterable[int],
    spec: SelectionSpec,
    variant: SmoothnessVariant | None = None,
) -> tuple[CandidateSet, Hypergraph]:
    """Run the full pipeline and return the weighted pool plus the selection.

    The selection spec is checked against ``sizes`` before the search, so a
    bad spec fails fast. The candidate pool comes back with scores and
    probabilities filled in so callers can inspect what the selection was
    chosen from.
    """
    sizes = tuple(sizes)
    _quotas(spec, sizes)
    cs = generate_candidates(x_nodes, sizes)
    cs = score_candidates(cs, x_nodes, variant=variant)
    cs = replace(cs, probs=infer_probabilities(cs.scores))
    return cs, select_edges(cs, spec)
