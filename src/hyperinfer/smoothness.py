"""Spread scores for candidate hyperedges.

A candidate's spread s' is the largest squared pairwise L2 distance among its
member nodes; it needs node features only. Ablation variants score the same
pairs by their mean, their minimum, or one randomly drawn pair. Scores are
computed for a whole block of equal-size edges at once.

The kernels ``variant_edge_smoothness`` and ``pairwise_sq_dists`` trust their
callers: the entry points in ``inference`` validate the features and the rows
once per call and pass them on as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# as_features is unused here, but perfbench/spans.py wraps this module's binding of it.
from .core import DomainError, as_features, check_seed  # noqa: F401

VARIANT_KINDS = ("max", "mean", "min", "random")


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
            check_seed(self.seed)


def variant_edge_smoothness(rows, x, variant: SmoothnessVariant) -> np.ndarray:
    """Score each row of a (c, k) block of sorted node indices by the variant.

    Pair distances are squared L2, taken over the k(k-1)/2 node pairs of a row
    in ``np.triu_indices`` order; the variant reduces them to one score per row.
    Callers pass validated input: a finite float matrix ``x`` and, in each row
    of ``rows``, k >= 2 strictly increasing row indices of ``x``.
    """
    c, k = rows.shape
    pair_dists = np.empty((c, k * (k - 1) // 2))
    for col, (i, j) in enumerate(zip(*np.triu_indices(k, 1))):
        d = x[rows[:, i]] - x[rows[:, j]]
        pair_dists[:, col] = np.sum(d * d, axis=-1)
    if variant.kind == "max":
        return np.max(pair_dists, axis=1)
    if variant.kind == "mean":
        return np.mean(pair_dists, axis=1)
    if variant.kind == "min":
        return np.min(pair_dists, axis=1)
    rngs = (np.random.default_rng([variant.seed, *nodes]) for nodes in rows.tolist())
    picks = np.array([rng.integers(pair_dists.shape[1]) for rng in rngs], dtype=np.intp)
    return pair_dists[np.arange(c), picks]


def row_chunks(rows: int, n: int):
    """Consecutive (a, b) bounds that cover rows 0..rows of a rows x n float64 block.

    A chunk holds about 1 MiB, so it and one same-sized scratch fit in a 2 MiB
    L2 cache: 43 rows at n=3000, one row from n=131072 on.
    """
    step = max(1, (1 << 20) // (8 * n))
    return [(a, min(a + step, rows)) for a in range(0, rows, step)]


def pairwise_sq_dists(x, sq_norms, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the n x n squared-distance matrix (Gram trick, clipped at zero).

    Callers pass validated input: a finite n x d float matrix ``x``, its
    ``sq_norms = np.sum(x * x, axis=1)`` and 0 <= start < stop <= n. A row's
    entry for its own node is 0. The block equals the full matrix's rows only
    up to rounding: BLAS may sum a block product in another order than the
    symmetric full product. It holds one ``row_chunks`` chunk of scratch.
    """
    n = x.shape[0]
    d = x[start:stop] @ x.T
    chunks = row_chunks(stop - start, n)
    scratch = np.empty((chunks[0][1], n))
    # One pass per chunk while it is in cache. 2.0 * G is exact, so this is
    # (|a|^2 + |b|^2) - 2 a.b floored at zero, bit for bit.
    for a, b in chunks:
        g, norms = d[a:b], scratch[: b - a]
        g *= 2.0
        np.add(sq_norms[start + a : start + b, None], sq_norms, out=norms)
        np.subtract(norms, g, out=g)
        np.maximum(g, 0.0, out=g)
    rows = np.arange(stop - start)
    d[rows, rows + start] = 0.0
    return d
