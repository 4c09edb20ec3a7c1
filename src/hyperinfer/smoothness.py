"""Spread scores for candidate hyperedges.

A candidate's spread s' is the largest squared pairwise L2 distance among its
member nodes; it needs node features only. Ablation variants score the same
pairs by their mean, their minimum, or one randomly drawn pair. Scores are
computed for a whole block of equal-size edges at once.

The kernels trust their callers: the entry points in ``inference`` validate
the features and the rows once per call and pass them on as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# as_features is unused here, but perfbench/spans.py wraps this module's binding of it.
from .core import DomainError, as_features, keyed_rng, whole  # noqa: F401

# The one working-buffer budget, 2 MiB: the search's row chunks of distances,
# its ranking sub-blocks and the scorer's row blocks are all sized from it.
BUFFER_BYTES = 2 << 20

# How each kind reduces an edge's pair distances to one score; "random" picks one pair.
_REDUCERS = {"max": np.max, "mean": np.mean, "min": np.min}
VARIANT_KINDS = (*_REDUCERS, "random")


@dataclass(frozen=True)
class SmoothnessVariant:
    """Which pairwise statistic scores an edge: max, mean, min, or a random pair.

    The random variant draws one node pair per edge from a generator keyed on
    (seed, edge nodes), so runs are reproducible and the draw for an edge does
    not depend on where the edge sits in a candidate list.
    """

    kind: str = "max"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise DomainError(
                f"unknown smoothness variant {self.kind!r}; expected one of {VARIANT_KINDS}"
            )
        if self.kind == "random" and self.seed is None:
            raise DomainError("random smoothness variant requires an explicit seed")
        if self.seed is not None:
            object.__setattr__(self, "seed", whole(self.seed, "seed", 0))


def variant_edge_smoothness(rows, x, variant: SmoothnessVariant) -> np.ndarray:
    """Score each row of a (c, k) block of sorted node indices by the variant.

    Pair distances are squared L2 (``direct_sq_dists``), taken over the
    k(k-1)/2 node pairs (i, j), i < j, of a row in ``np.triu_indices`` order;
    the variant reduces them to one score per row. Rows of a block share many
    pairs, so each distinct pair is summed once: the pairs are coded as
    i * n + j and sorted, the distinct codes are scored, and each distance is
    copied back to every row that holds its pair. A pair's sum is its own, so
    every score has the bits it would have pair by pair. Callers pass
    validated input: a finite float matrix ``x`` and, in each row of ``rows``,
    k >= 2 strictly increasing row indices of ``x``.
    """
    c, k = rows.shape
    distinct, inverse = _distinct_pairs(rows, x.shape[0])
    dists = np.empty(len(distinct))
    step = max(1, BUFFER_BYTES // (64 * x.shape[1]))  # one block of direct_sq_dists
    for a in range(0, len(distinct), step):
        dists[a : a + step] = direct_sq_dists(x, *np.divmod(distinct[a : a + step], x.shape[0]))
    pair_dists = dists[inverse].reshape(c, k * (k - 1) // 2)
    if variant.kind in _REDUCERS:
        return _REDUCERS[variant.kind](pair_dists, axis=1)
    rngs = (keyed_rng((variant.seed, *nodes)) for nodes in rows.tolist())
    picks = np.array([rng.integers(pair_dists.shape[1]) for rng in rngs], dtype=np.intp)
    return pair_dists[np.arange(c), picks]


def _distinct_pairs(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows' distinct node-pair codes i * n + j, ascending, and each pair's index among them.

    Pairs are taken in ``np.triu_indices`` order, so i < j; ``inverse`` is
    flat over the (c, k(k-1)/2) table of pairs. At most three int64 tables of
    that size are held at once: the sort order, the sorted codes (turned into
    distinct-pair indices in place) and ``inverse``.
    """
    first, second = np.triu_indices(rows.shape[1], 1)
    codes = rows[:, first] * np.int64(n)
    codes += rows[:, second]
    order = np.argsort(codes, axis=None)
    codes = codes.ravel()[order]
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    distinct = codes[new]
    np.cumsum(new, out=codes)
    codes -= 1
    inverse = np.empty_like(codes)
    inverse[order] = codes
    return distinct, inverse


def direct_sq_dists(x, a, b) -> np.ndarray:
    """``np.sum((x[a] - x[b]) ** 2, axis=-1)``: the one distance, of the score and the search.

    ``a`` and ``b`` are index arrays of one length; the sign of x[a] - x[b] does
    not change its square. Each gather of a block of rows takes at most an eighth
    of ``BUFFER_BYTES``, and each row's sum is its own, whatever the block height.
    """
    out = np.empty(len(a))
    step = max(1, BUFFER_BYTES // (64 * x.shape[1]))
    for s in range(0, len(a), step):
        d = x[a[s : s + step]]
        d -= x[b[s : s + step]]
        d *= d
        out[s : s + step] = np.sum(d, axis=-1)
    return out


def row_chunks(n: int) -> list[tuple[int, int]]:
    """Near-equal (a, b) bounds that cover rows 0..n of the n x n distance matrix.

    The target height is the rows that hold ``BUFFER_BYTES`` of float64
    distances, but at least 32: a chunk is computed and ranked while it is in
    cache, and its product stays a matrix product, not a gemv. The rows go
    into the fewest chunks of at most that height, the first n % count one row
    taller, as in ``np.array_split``. So every n <= 512 is one chunk, n=3000
    takes 35 chunks of 85-86 rows, and no chunk has fewer than min(n, 31) rows.
    """
    count = -(-n // max(32, BUFFER_BYTES // (8 * n)))
    q, extra = divmod(n, count)
    return [(i * q + min(i, extra), (i + 1) * q + min(i + 1, extra)) for i in range(count)]


def pairwise_sq_dists(x, sq_norms, rows, cols, buf: np.ndarray) -> np.ndarray:
    """Gram keys |x_j|^2 - 2 x_i.x_j of nodes i in ``rows`` against nodes j in ``cols``.

    Row i's keys are its squared distances less |x_i|^2, so they rank its nodes
    alike; the name stays because ``perfbench/spans.py`` wraps it. ``rows`` and
    ``cols`` are each a slice of x's rows, read in place, or an array of node
    ids, whose features are gathered into ``buf``. The keys are written into
    the head of ``buf``, a flat float64 array, and returned as a (rows, cols)
    view of it; gathered columns follow them, then gathered rows, so ``buf``
    holds rows * cols floats plus d per gathered node. When ``rows is cols`` the
    nodes are gathered once. The ids are valid, so they are taken with
    ``mode="clip"``: NumPy's default mode copies through a temporary as large as
    the gathered features. Callers pass validated input: a finite n x d float
    matrix ``x`` and its ``sq_norms = np.sum(x * x, axis=1)``. -2.0 * a.b is
    exact, and scaled after the product so that a product of a block with
    itself, x @ x.T among them, keeps NumPy's symmetric path. BLAS may sum in
    any order; ``inference._nearest`` bounds the rounding.
    """
    n, d = x.shape
    h, w = (len(range(n)[i]) if isinstance(i, slice) else len(i) for i in (rows, cols))
    keys, at = buf[: h * w].reshape(h, w), h * w
    if isinstance(cols, slice):
        b = x[cols]
    else:
        out = buf[at : at + w * d].reshape(w, d)
        b, at = np.take(x, cols, axis=0, out=out, mode="clip"), at + w * d
    if rows is cols:
        a = b
    elif isinstance(rows, slice):
        a = x[rows]
    else:
        a = np.take(x, rows, axis=0, out=buf[at : at + h * d].reshape(h, d), mode="clip")
    np.matmul(a, b.T, out=keys)
    keys *= -2.0
    keys += sq_norms[cols]
    return keys
