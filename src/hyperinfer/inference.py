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


def _nearest(gram: np.ndarray, x: np.ndarray, rows, cols, own, ks: tuple, bound: np.ndarray):
    """The max(ks)-1 nearest other nodes of the nodes ``rows``, by (distance, index).

    The distance is the scorer's, ``direct_sq_dists``. ``gram`` holds the rows'
    Gram keys |x_j|^2 - 2 x_i.x_j (overwritten) to the nodes ``cols``, which rank
    each row as its distances do; ``own`` is the column of each row's own node,
    and ``bound`` each row's B_i = 8 (d + 5) u (|x_i|^2 + max_j |x_j|^2), for d
    features and unit roundoff u. With M = |x_i|^2 + |x_j|^2, a key errs by at
    most (2d + 2) u M (d u M from the product, as much from |x_j|^2, 2 u M from
    one addition), and a direct distance by (d + 2) u |x_i - x_j|^2 <= (2d + 4) u M,
    by the dot-product bound (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1), which holds in any summation order, so for any BLAS.
    So keys of a row more than 8 (d + 2) u M apart keep their order; 5 in place of
    2 covers the second-order terms (for d < 10^7) and the rounding of B_i and of
    the comparisons. With r = max(ks)-1, the r + 1 smallest keys of each row, by
    ``np.argpartition`` in sub-blocks of rows whose indices take at most a quarter
    of ``BUFFER_BYTES``, are sorted by (key, node id). The first r are in direct
    order unless the row has a near-tie: its (r+1)-th key within B_i of its r-th,
    or a smaller size k's boundary keys (positions k-2 and k-1) within B_i of each
    other. Only such a row is reranked: its entries within B_i of its r-th key, by
    (direct distance, node id). If ``cols`` has only r other nodes, the (r+1)-th
    key is the row's own inf. So a row's neighbours are a function of the
    features alone, whenever ``cols`` holds every node whose key can come within
    B_i of the row's r-th: every node, or the row's norm band (``_bands``).
    """
    r = ks[-1] - 1
    gram[np.arange(len(gram)), own] = np.inf  # each row's own node
    part = np.empty((len(gram), r + 1), dtype=np.intp)
    step = max(1, BUFFER_BYTES // (4 * 8 * gram.shape[1]))  # rows per ranking sub-block
    for a in range(0, len(gram), step):
        part[a : a + step] = np.argpartition(gram[a : a + step], r, axis=1)[:, : r + 1]
    dist, ids = np.take_along_axis(gram, part, axis=1), cols[part]
    order = np.lexsort((ids, dist), axis=1)
    ids, dist = np.take_along_axis(ids, order, axis=1), np.take_along_axis(dist, order, axis=1)
    nearest, reach = ids[:, :r], dist[:, r - 1] + bound
    near = dist[:, r] <= reach
    for k in ks[:-1]:
        near |= dist[:, k - 1] - dist[:, k - 2] <= bound
    for i in np.flatnonzero(near):
        within = cols[gram[i] <= reach[i]]
        direct = direct_sq_dists(x, within, np.full_like(within, rows[i]))
        nearest[i] = within[np.lexsort((within, direct))[:r]]
    return nearest


# The norm-band seed takes blocks of SEED_ROWS norm-adjacent nodes; one block in
# SEED_SAMPLE is seeded first, to see whether bands pay.
SEED_ROWS, SEED_SAMPLE = 64, 16


def _bands(x, sq_norms, bounds, r: int, buf: np.ndarray, height: int):
    """Blocks (rows, cols, own) of rows to search against their norm bands ``cols`` alone.

    (|x_i| - |x_j|)^2 <= |x_i - x_j|^2 (the projection bound of Friedman, Baskett
    & Shustek, IEEE Trans. Computers, 1975), so row i needs only the nodes whose
    norm lies within sqrt(D_i) of |x_i|, for any D_i that bounds every distance
    ``_nearest`` can look at. The nodes are ordered by norm, and each block of
    ``SEED_ROWS`` of them gets its keys among itself: the seed. With s_i a row's
    r-th smallest seed key to another node, D_i = s_i + |x_i|^2 + 2 B_i. A key
    errs by at most B_i / 4 (``_nearest``), so the band's r-th key is at most
    s_i + B_i / 2, and a node whose key comes within B_i of that lies within
    s_i + |x_i|^2 + 7 B_i / 4 of x_i. The band radius sqrt(D_i) is padded by
    sqrt(B_i), far more than the rounding of the norms and the comparisons.

    A row is banded if its band fits ``buf`` (the chunk buffer, ``height``
    rows by n) with the keys and the gathered features of as many rows as take
    an eighth of ``BUFFER_BYTES``, at most ``height``. Banded rows go in order of
    band start, as many to a block (at most ``height``) as ``buf`` holds with the
    union of their bands, keys and features gathered; ``cols`` is that union as
    node ids in norm order, and ``own`` each row's own column in it. Also
    returned is the mask of the rows left, to search against every node.

    One seed block in ``SEED_SAMPLE`` is computed first; unless a quarter of
    their rows are banded, no row is, and ``([], None)`` is returned. The whole
    seed costs about ``SEED_ROWS`` / n of the keys of a search with no bands,
    and a banded row saves most of its keys, so a quarter of the rows repays
    it; inputs whose norms do not separate pay only the sample. ``([], None)``
    is also returned if r >= ``SEED_ROWS``, or if no band of r + 1 nodes or no
    seed block fits.
    A block of fewer than r + 1 nodes at the end has no seed, so its rows
    are not banded.
    """
    n, d = x.shape
    cap = len(buf)
    gathered = min(height, max(1, BUFFER_BYTES // (64 * d)))
    widest = (cap - gathered * d) // (gathered + d)  # the widest band that fits with them
    if r >= min(SEED_ROWS, widest) or SEED_ROWS * (SEED_ROWS + d) > cap:
        return [], None
    order = np.argsort(sq_norms)  # any order of equal norms will do
    norms, seed = np.sqrt(sq_norms[order]), np.full(n, np.inf)

    def plant_seed(starts):
        for a in starts:
            at = order[a : a + SEED_ROWS]
            keys = pairwise_sq_dists(x, sq_norms, at, at, buf)
            np.fill_diagonal(keys, np.inf)
            seed[a : a + SEED_ROWS] = np.partition(keys, r - 1, axis=1)[:, r - 1]

    def bands(at):  # the first norm position and the width of the bands at positions ``at``
        with np.errstate(over="ignore"):
            slack = bounds[order[at]]
            radius = np.sqrt(seed[at] + sq_norms[order[at]] + 2 * slack) + np.sqrt(slack)
            lo = np.searchsorted(norms, norms[at] - radius, side="left")
            return lo, np.searchsorted(norms, norms[at] + radius, side="right") - lo

    starts = range(0, n - r, SEED_ROWS)  # the blocks with r other nodes
    sample = min(SEED_SAMPLE, len(starts)) // 2
    plant_seed(starts[sample::SEED_SAMPLE])
    sampled = np.flatnonzero(seed < np.inf)
    if 4 * np.count_nonzero(bands(sampled)[1] <= widest) < len(sampled):
        return [], None
    plant_seed(a for i, a in enumerate(starts) if i % SEED_SAMPLE != sample)
    lo, width = bands(slice(None))
    banded = np.flatnonzero(width <= widest)
    banded = banded[np.argsort(lo[banded], kind="stable")]
    hi = lo + width
    del norms, seed, width
    blocks, first = [], 0
    for t, (start, stop) in enumerate(zip(lo[banded].tolist(), hi[banded].tolist())):
        if t > first:
            h, wider = t + 1 - first, max(right, stop)
            if h <= height and (h + d) * (wider - left) + h * d <= cap:
                right = wider
                continue
            blocks.append((first, t, left, right))
        first, left, right = t, start, stop
    if banded.size:
        blocks.append((first, len(banded), left, right))
    wide = np.ones(n, dtype=bool)
    wide[order[banded]] = False
    return [
        (order[banded[a:b]], order[left:right], banded[a:b] - left)
        for a, b, left, right in blocks
    ], wide


def _search(x, sq_norms, bounds, ks: tuple) -> np.ndarray:
    """Each node's max(ks)-1 nearest neighbours, after the node itself, one row per node.

    The banded rows come first, a block at a time against its bands
    (``_bands``); the rows left then go in index order against every node:
    the ``row_chunks`` chunks as they are when no row is banded, else runs of
    as many rows as the buffer holds with their keys and gathered features.
    The one buffer is freed on return, before the pool is built.
    """
    n, d = x.shape
    chunks = row_chunks(n)
    neighbours = np.empty((n, ks[-1]), dtype=np.intp)
    ids = neighbours[:, 0] = np.arange(n)
    buf = np.empty(chunks[0][1] * n)
    runs = [slice(a, b) for a, b in chunks]
    if len(chunks) > 1:
        blocks, wide = _bands(x, sq_norms, bounds, ks[-1] - 1, buf, chunks[0][1])
        for rows, cols, own in blocks:
            keys = pairwise_sq_dists(x, sq_norms, rows, cols, buf)
            neighbours[rows, 1:] = _nearest(keys, x, rows, cols, own, ks, bounds[rows])
        if blocks:
            rest, step = np.flatnonzero(wide), min(chunks[0][1], len(buf) // (n + d))
            runs = [rest[a : a + step] for a in range(0, len(rest), step)]
    for run in runs:
        keys = pairwise_sq_dists(x, sq_norms, run, slice(None), buf)
        neighbours[run, 1:] = _nearest(keys, x, ids[run], ids, ids[run], ks, bounds[run])
    return neighbours


def generate_candidates(x_nodes, sizes: Iterable[int]) -> CandidateSet:
    """One candidate per (size, anchor): the anchor and its k-1 nearest neighbours.

    Distances are squared Euclidean, by direct differences (the scorer's).
    Equidistant neighbours resolve to the smaller node index, so the pool is a
    function of the features alone, whatever the chunk height, the norm bands
    or the BLAS. Duplicate node sets keep the first (size, anchor) pair that
    produced them, and the result is ordered by size, then anchor.

    The features are validated once. The search holds one buffer of a
    ``row_chunks`` chunk's keys to all n nodes, about ``BUFFER_BYTES``, and
    every product goes through ``pairwise_sq_dists`` into it. With n <= 512
    the one chunk is the full, symmetric product. Past that, the rows whose
    norm band (``_bands``) fits the buffer, band and keys together, are
    searched first, a block of them against the union of their bands,
    gathered into the buffer. The other rows go in index order against every
    node, read in place, a chunk at a time as with no bands, or, past banded
    rows, gathered into the buffer a run at a time. Each block's rows
    are partitioned in sub-blocks whose indices take at most a quarter of
    ``BUFFER_BYTES``, and their max(sizes)-1 nearest neighbours, reranked by
    direct differences at near-ties (``_nearest``), are kept before the next
    block is computed. It never holds an n x n matrix or an n x d copy, and
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
    bounds = 4 * (x.shape[1] + 5) * np.finfo(float).eps * (sq_norms + sq_norms.max())  # B_i
    # Each anchor in column 0, then its max(sizes)-1 nearest neighbours.
    neighbours = _search(x, sq_norms, bounds, ks)
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
