"""Evaluation of inferred structures: exact-match F1, alignment error, separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    scaled by the truth matrix's squared norm, so 0 means identical edge sets
    and values above 1 are possible for badly inflated predictions.
    """
    from scipy.optimize import linear_sum_assignment  # deferred: a quarter second of import

    _check_same_n(pred, truth)
    if pred.m == 0 or truth.m == 0:
        raise DomainError("hypergraph has no hyperedges")
    # Both sides rebuilt without weights: the error compares binary incidences.
    p = incidence(Hypergraph(pred.n, pred.edges))
    t = incidence(Hypergraph(truth.n, truth.edges))
    inter = (p.T @ t).toarray()
    rows, cols = linear_sum_assignment(inter, maximize=True)
    matched = float(inter[rows, cols].sum())
    pred_mass, truth_mass = p.nnz, t.nnz
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
