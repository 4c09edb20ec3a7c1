"""Evaluation of inferred structures: exact-match F1, alignment error, separation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .core import DomainError, Hypergraph, incidence
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

    Predicted and truth edges are matched to maximise total node-set
    intersection; unmatched columns on either side pair with all-zero columns.
    The squared difference of the aligned binary incidence matrices is then
    scaled by the truth matrix's squared norm, so 0 means identical edge sets,
    an empty prediction scores 1, and values above 1 are possible for badly
    inflated predictions.

    The intersections |e & f| are the sparse product Hp^T Ht, formed only
    for pairs that share a node, so memory grows with those pairs, not with
    m_pred x m_truth. A pair weighs |e & f| + 1 and each predicted edge also
    has its own dummy column of weight 1: every predicted edge may stay
    unmatched, a full matching always exists, and the matched intersection is
    the total weight less m_pred. The weights are integers, so the value does
    not depend on which optimal matching the solver returns.
    """
    # deferred: csgraph imports scipy.linalg, which the CLI's start-up leaves out
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    _check_same_n(pred, truth)
    if truth.m == 0:
        raise DomainError("truth hypergraph has no hyperedges")
    # Binary incidences: the error compares node sets, whatever the weights.
    hp = incidence(replace(pred, weights=None))
    ht = incidence(replace(truth, weights=None))
    inter = hp.T @ ht
    # Each row's dummy column goes after its shared pairs; weights are negated
    # so that the minimum-weight matching is the maximum one.
    m_pred, ends = pred.m, inter.indptr[1:]
    g = scipy.sparse.csr_array(
        (
            np.insert(-1.0 - inter.data, ends, -1.0),
            np.insert(inter.indices, ends, truth.m + np.arange(m_pred)),
            inter.indptr + np.arange(m_pred + 1),
        ),
        shape=(m_pred, truth.m + m_pred),
    )
    rows, partners = min_weight_full_bipartite_matching(g)
    matched = -g[rows, partners].sum() - m_pred
    return float((hp.nnz + ht.nnz - 2.0 * matched) / ht.nnz)


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
