"""Evaluation of inferred structures: exact-match F1, alignment error, separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, Hypergraph, edge_arrays
from .inference import CandidateSet


@dataclass(frozen=True)
class MatchReport:
    """Exact-set matching outcome between a prediction and the ground truth."""

    true_positives: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SeparationReport:
    """Mean inferred probability of truth candidates vs the rest.

    A mean is None when its group is empty; the gap needs both.
    """

    mean_truth_prob: float | None
    mean_other_prob: float | None
    gap: float | None


def _check_same_n(pred: Hypergraph, truth: Hypergraph) -> None:
    if pred.n != truth.n:
        raise DomainError(f"node counts differ: predicted {pred.n}, truth {truth.n}")


def f1_exact(pred: Hypergraph, truth: Hypergraph) -> MatchReport:
    """Score predictions where an edge counts iff its node set equals a truth edge's.

    Edges are unique sorted tuples within each hypergraph, so true positives
    reduce to the intersection of the two edge collections.
    """
    _check_same_n(pred, truth)
    tp = len(set(pred.edges) & set(truth.edges))
    precision = tp / pred.m if pred.m else 0.0
    recall = tp / truth.m if truth.m else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MatchReport(true_positives=tp, precision=precision, recall=recall, f1=f1)


def hgmse(pred: Hypergraph, truth: Hypergraph) -> float:
    """Squared incidence error after the best one-to-one column alignment.

    Edges are matched one to one to maximise the total node-set intersection;
    an unmatched column pairs with an all-zero one. The squared difference of
    the aligned binary incidences over the truth's squared norm is 0 for
    identical edge sets and 1 for an empty prediction, and can exceed 1 for
    badly inflated predictions. Weights are never read.

    An edge E on both sides pairs with itself in some best matching: if E-A
    and B-E are matched instead (either may be the empty set), E-E and B-A
    change the total by |E| + |A & B| - |E & A| - |E & B| >= 0. The rest's
    |e & f| come from a sorted join of their flat (node, edge) arrays; a pair
    whose edges have no other partner is matched as it stands. Only the pairs
    left go to scipy's Jonker-Volgenant matching, with weights -(|e & f| + 1)
    and a dummy column of weight -1 per row: exact integers, so every best
    matching gives the same value.
    """
    _check_same_n(pred, truth)
    if truth.m == 0:
        raise DomainError("truth hypergraph has no hyperedges")
    twins = set(pred.edges).intersection(truth.edges)
    rest_p, rest_t = ([e for e in h.edges if e not in twins] for h in (pred, truth))
    matched = sum(map(len, twins))
    nnz_p, nnz_t = matched + sum(map(len, rest_p)), matched + sum(map(len, rest_t))
    if rest_p and rest_t:
        (nodes_p, sizes_p), (nodes_t, sizes_t) = edge_arrays(rest_p), edge_arrays(rest_t)
        order = np.argsort(nodes_t)
        # Predicted incidence i meets the sorted truth incidences lo[i] to hi[i] - 1.
        lo, hi = (np.searchsorted(nodes_t[order], nodes_p, side) for side in ("left", "right"))
        met = np.repeat(hi - np.cumsum(hi - lo), hi - lo) + np.arange((hi - lo).sum())
        p = np.repeat(np.repeat(np.arange(len(rest_p)), sizes_p), hi - lo)
        t = np.repeat(np.arange(len(rest_t)), sizes_t)[order][met]
        codes, inter = np.unique(p * len(rest_t) + t, return_counts=True)
        p, t = np.divmod(codes, len(rest_t))
        lone = (np.bincount(p)[p] == 1) & (np.bincount(t)[t] == 1)
        matched += int(inter[lone].sum())
        if not lone.all():
            from scipy.sparse import csgraph, csr_matrix
            (rows, row), (cols, col) = (np.unique(v[~lone], return_inverse=True) for v in (p, t))
            inter, ends = inter[~lone], np.cumsum(np.bincount(row))
            data = np.insert(-1.0 - inter, ends, -1.0)
            indices = np.insert(col, ends, len(cols) + np.arange(len(rows)))
            indptr = np.concatenate(([0], ends)) + np.arange(len(rows) + 1)
            r, c = csgraph.min_weight_full_bipartite_matching(csr_matrix((data, indices, indptr)))
            hit = np.searchsorted(row * len(cols) + col, (r * len(cols) + c)[c < len(cols)])
            matched += int(inter[hit].sum())
    return float((nnz_p + nnz_t - 2.0 * matched) / nnz_t)


def probability_separation(cs: CandidateSet, truth: Hypergraph) -> SeparationReport:
    """Split candidates by whether they equal a truth edge and average each group."""
    if cs.probs is None:
        raise DomainError("candidate probabilities are missing; infer them first")
    if cs.n != truth.n:
        raise DomainError(f"node counts differ: candidates {cs.n}, truth {truth.n}")
    truth_edges = set(truth.edges)
    in_truth = np.array([e in truth_edges for e in cs.edges()], dtype=bool)
    mean_truth = float(cs.probs[in_truth].mean()) if in_truth.any() else None
    mean_other = float(cs.probs[~in_truth].mean()) if (~in_truth).any() else None
    gap = None
    if mean_truth is not None and mean_other is not None:
        gap = mean_truth - mean_other
    return SeparationReport(
        mean_truth_prob=mean_truth, mean_other_prob=mean_other, gap=gap
    )
