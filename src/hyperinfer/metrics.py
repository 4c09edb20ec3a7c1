"""Evaluation of inferred structures: exact-match F1, alignment error, separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .core import DomainError, Hypergraph, flat_edges
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
    scaled by the truth matrix's squared norm, so 0 means identical edge sets
    and values above 1 are possible for badly inflated predictions.

    The alignment is a sparse maximum-weight matching on the pairs that share
    a node, so memory grows with those pairs, not with m_pred x m_truth. A
    pair (e, f) weighs |e & f| + 1 and predicted edge i also has its own dummy
    column of weight 1, so every predicted edge may stay unmatched, a full
    matching always exists, and the matched intersection is the total weight
    less m_pred. The weights are integers, so the value does not depend on
    which optimal matching the solver returns.
    """
    # deferred: csgraph imports scipy.linalg, which the CLI's start-up leaves out
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    _check_same_n(pred, truth)
    if pred.m == 0 or truth.m == 0:
        raise DomainError("hypergraph has no hyperedges")
    # Node lists only: the error compares binary incidences, whatever the weights.
    p_nodes, p_offsets = flat_edges(pred)
    t_nodes, t_offsets = flat_edges(truth)
    m_pred, width = pred.m, truth.m + pred.m
    # Truth entries sorted by node, so each predicted entry meets the run of
    # truth edges at its node.
    order = np.argsort(t_nodes)
    by_node = t_nodes[order]
    t_edges = np.repeat(np.arange(truth.m), np.diff(t_offsets))[order]
    starts = np.searchsorted(by_node, p_nodes)
    counts = np.searchsorted(by_node, p_nodes, side="right") - starts
    ends = np.cumsum(counts)
    shared = t_edges[np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])]
    p_edges = np.repeat(np.arange(m_pred), np.diff(p_offsets))
    # One key pred * width + truth per shared node, plus each predicted edge's
    # dummy key; the sorted distinct keys are the CSR entries, row by row.
    keys, weights = np.unique(
        np.concatenate(
            (np.repeat(p_edges, counts) * width + shared, np.arange(m_pred) * (width + 1) + truth.m)
        ),
        return_counts=True,
    )
    cols = keys % width
    weights[cols < truth.m] += 1
    indptr = np.searchsorted(keys, np.arange(m_pred + 1) * width)
    # Negated weights: their minimum-weight matching is the maximum one.
    g = scipy.sparse.csr_array(
        (np.negative(weights, dtype=float), cols, indptr), shape=(m_pred, width)
    )
    rows, partners = min_weight_full_bipartite_matching(g)
    matched = int(weights[np.searchsorted(keys, rows * width + partners)].sum()) - m_pred
    pred_mass, truth_mass = len(p_nodes), len(t_nodes)
    return float((pred_mass + truth_mass - 2.0 * matched) / truth_mass)


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
