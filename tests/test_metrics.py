"""Recovery metrics: exact-match F1, aligned incidence error, separation."""

import itertools

import numpy as np
import pytest
from hypothesis import given

from conftest import hypergraphs, random_hypergraph
from hyperinfer import (
    CandidateSet,
    DomainError,
    build_hypergraph,
    f1_exact,
    hgmse,
    incidence_matrix,
    probability_separation,
)


def _assignment_oracle(pred, truth):
    """Minimum squared incidence error over every one-to-one column pairing."""
    hp = (incidence_matrix(pred) > 0).astype(float)
    ht = (incidence_matrix(truth) > 0).astype(float)
    mp, mt = hp.shape[1], ht.shape[1]
    best = np.inf
    if mp <= mt:
        for cols in itertools.permutations(range(mt), mp):
            aligned = np.zeros_like(ht)
            aligned[:, list(cols)] = hp
            best = min(best, float(np.sum((aligned - ht) ** 2)))
    else:
        for cols in itertools.permutations(range(mp), mt):
            aligned = np.zeros_like(hp)
            aligned[:, list(cols)] = ht
            best = min(best, float(np.sum((hp - aligned) ** 2)))
    return best / float(np.sum(ht))


class TestF1Exact:
    def test_perfect_prediction(self):
        h = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        report = f1_exact(h, h)
        assert report.true_positives == 2
        assert report.precision == report.recall == report.f1 == 1.0

    def test_half_right(self):
        truth = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        pred = build_hypergraph(6, [[0, 1, 2], [2, 3, 4]])
        report = f1_exact(pred, truth)
        assert report.true_positives == 1
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_fully_wrong(self):
        truth = build_hypergraph(6, [[0, 1, 2]])
        pred = build_hypergraph(6, [[3, 4, 5]])
        assert f1_exact(pred, truth).f1 == 0.0

    def test_weights_are_ignored_by_matching(self):
        truth = build_hypergraph(4, [[0, 1]])
        pred = build_hypergraph(4, [[0, 1]], weights=[0.3])
        assert f1_exact(pred, truth).f1 == 1.0

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(DomainError, match="node counts differ"):
            f1_exact(build_hypergraph(3, [[0, 1]]), build_hypergraph(4, [[0, 1]]))

    @given(hypergraphs(), hypergraphs())
    def test_swapping_arguments_swaps_precision_and_recall(self, a, b):
        if a.n != b.n:
            return
        fwd = f1_exact(a, b)
        rev = f1_exact(b, a)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision
        assert fwd.f1 == rev.f1


class TestHgmse:
    def test_perfect_prediction_scores_zero(self):
        h = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        assert hgmse(h, h) == 0.0

    def test_missing_edge_costs_its_incidences(self):
        truth = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        pred = build_hypergraph(6, [[0, 1, 2]])
        assert hgmse(pred, truth) == 0.5

    def test_extra_edge_costs_its_incidences(self):
        truth = build_hypergraph(9, [[0, 1, 2], [3, 4, 5]])
        pred = build_hypergraph(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert hgmse(pred, truth) == 0.5

    def test_empty_inputs_rejected(self):
        full = build_hypergraph(3, [[0, 1]])
        empty = build_hypergraph(3, [])
        # An empty prediction misses every truth incidence; an empty truth
        # leaves nothing to scale by.
        assert hgmse(empty, full) == 1.0
        with pytest.raises(DomainError, match="no hyperedges"):
            hgmse(full, empty)

    def test_edge_order_never_matters(self):
        truth = build_hypergraph(7, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        pred_a = build_hypergraph(7, [[0, 1, 3], [2, 3, 4]])
        pred_b = build_hypergraph(7, [[2, 3, 4], [0, 1, 3]])
        assert hgmse(pred_a, truth) == hgmse(pred_b, truth)

    def test_matches_exhaustive_assignment_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            pred = random_hypergraph(rng, max_n=8, max_edges=4)
            truth = random_hypergraph(rng, max_n=8, max_edges=4)
            truth = build_hypergraph(
                max(pred.n, truth.n), list(truth.edges)
            )
            # Predictions from the pipeline are weighted; hgmse must score
            # their binary incidence, as the oracle does.
            pred = build_hypergraph(
                truth.n, list(pred.edges), weights=rng.uniform(0.05, 1.0, size=pred.m)
            )
            assert hgmse(pred, truth) == pytest.approx(
                _assignment_oracle(pred, truth), abs=1e-12
            )

    def test_equals_the_dense_assignment_bit_for_bit(self):
        # Cycles identical sides, disjoint sides, independent sides (whose edge
        # counts mostly differ) and part of the truth plus extras that overlap
        # it, up to 25 edges each, unweighted and weighted.
        from scipy.optimize import linear_sum_assignment

        def edges_over(rng, nodes, m):
            edges = set()
            for _ in range(m):
                k = int(rng.integers(2, min(len(nodes), 6) + 1))
                edges.add(tuple(sorted(rng.choice(nodes, size=k, replace=False).tolist())))
            return list(edges)

        rng, weight_rng = np.random.default_rng(29), np.random.default_rng(31)
        unequal = 0
        for case in range(400):
            n = int(rng.integers(6, 40))
            half = n // 2
            truth_edges = edges_over(rng, np.arange(n), int(rng.integers(1, 26)))
            if case % 4 == 0:
                pred_edges = [truth_edges[i] for i in rng.permutation(len(truth_edges))]
            elif case % 4 == 1:
                truth_edges = edges_over(rng, np.arange(half), int(rng.integers(1, 26)))
                pred_edges = edges_over(rng, np.arange(half, n), int(rng.integers(1, 26)))
            elif case % 4 == 2:
                pred_edges = edges_over(rng, np.arange(n), int(rng.integers(1, 26)))
            else:
                # Each extra keeps all but the last node of a truth edge and adds one.
                kept = {e for e in truth_edges if rng.random() < 0.5}
                extras = {tuple(sorted({*e[:-1], int(rng.integers(n))})) for e in truth_edges}
                pred_edges = sorted(kept | {e for e in extras if len(e) >= 2})
            pred, truth = build_hypergraph(n, pred_edges), build_hypergraph(n, truth_edges)
            unequal += pred.m != truth.m
            hp, ht = incidence_matrix(pred), incidence_matrix(truth)
            inter = hp.T @ ht
            rows, cols = linear_sum_assignment(inter, maximize=True)
            dense = (hp.sum() + ht.sum() - 2.0 * inter[rows, cols].sum()) / ht.sum()
            assert hgmse(pred, truth) == dense
            # Weighted sides are scored on their binary incidences, exactly.
            weighted_pred = build_hypergraph(
                n, pred_edges, weights=weight_rng.uniform(0.05, 1, pred.m)
            )
            assert hgmse(weighted_pred, truth) == dense
            weighted_truth = build_hypergraph(
                n, truth_edges, weights=weight_rng.uniform(0.05, 1, truth.m)
            )
            assert hgmse(weighted_pred, weighted_truth) == dense
        assert unequal >= 150

    def test_declared_node_count_never_matters(self):
        # Only the nodes that some edge holds enter the intersections, so the
        # same edges score the same at n=4 and at np.intp's limit, and so do
        # they with their ids moved to the top of that range.
        pred_edges, truth_edges = [[0, 1], [1, 3]], [[0, 1, 2], [1, 3]]
        expected = hgmse(build_hypergraph(4, pred_edges), build_hypergraph(4, truth_edges))
        assert expected == 0.2
        top = 2**63 - 1
        for ids in ((0, 1, 2, 3), (0, 2**40, 2**62, top - 1)):
            pred = build_hypergraph(top, [[ids[v] for v in e] for e in pred_edges])
            truth = build_hypergraph(top, [[ids[v] for v in e] for e in truth_edges])
            assert hgmse(pred, truth) == expected

    def test_isolated_pairs_are_read_off_without_a_matching(self, monkeypatch):
        # Pair i shares two of its three nodes and no node with any other edge,
        # so every pair scores as it stands and nothing is left to match.
        import scipy.sparse.csgraph

        calls = []
        matching = scipy.sparse.csgraph.min_weight_full_bipartite_matching

        def counting(graph):
            calls.append(graph.shape)
            return matching(graph)

        monkeypatch.setattr(scipy.sparse.csgraph, "min_weight_full_bipartite_matching", counting)
        k = 20_000
        pred = build_hypergraph(4 * k, [(4 * i, 4 * i + 1, 4 * i + 3) for i in range(k)])
        truth = build_hypergraph(4 * k, [(4 * i, 4 * i + 1, 4 * i + 2) for i in range(k)])
        assert hgmse(pred, truth) == 2 / 3
        assert calls == []
        # Pair 2 made identical, and (0, 4, 5) and (1, 6, 7) in place of pairs
        # k - 2 and k - 1: only predicted edges 0, 1 and the two new ones, which
        # cross truth edges 0 and 1, reach the matching. Its best keeps 2 + 2 nodes.
        edges = [*pred.edges[:2], truth.edges[2], *pred.edges[3:-2], (0, 4, 5), (1, 6, 7)]
        mixed = build_hypergraph(4 * k, edges)
        assert hgmse(mixed, truth) == (6 * k - 2 * (3 + 2 * (k - 5) + 4)) / (3 * k)
        assert calls == [(4, 2 + 4)]

    def test_identical_edges_beside_crossing_ones_match_the_oracle(self):
        # Identical edges pair first; the edges they overlap still cross.
        # Each case is (truth edges, predicted edges).
        cases = [
            (
                [[0, 1, 2], [2, 3, 4], [4, 5, 6], [7, 8]],
                [[0, 1, 2], [2, 3, 5], [3, 4, 5, 6], [7, 8]],
            ),
            ([[0, 1, 2], [1, 2, 3]], [[0, 1, 2], [0, 1, 3], [2, 3]]),
            ([[0, 1, 2, 3], [2, 3]], [[2, 3], [0, 1, 2], [1, 2, 3]]),
        ]
        rng = np.random.default_rng(41)
        for _ in range(60):
            truth = random_hypergraph(rng, max_n=8, max_edges=4)
            extras = random_hypergraph(rng, max_n=truth.n, max_edges=3).edges
            kept = [e for e in truth.edges if rng.random() < 0.6]
            cases.append((truth.edges, sorted({*kept, *extras})))
        for truth_edges, pred_edges in cases:
            n = 1 + max(v for e in [*truth_edges, *pred_edges] for v in e)
            pred, truth = build_hypergraph(n, pred_edges), build_hypergraph(n, truth_edges)
            assert hgmse(pred, truth) == _assignment_oracle(pred, truth)

    @given(hypergraphs())
    def test_self_distance_is_exactly_zero(self, h):
        assert hgmse(h, h) == 0.0


class TestProbabilitySeparation:
    def _candidates(self, probs):
        nodes = np.array([[0, 1, 2], [3, 4, 5], [1, 2, 3], [2, 3, 4]])
        return CandidateSet(n=6, nodes=nodes, anchors=nodes[:, 0], probs=np.asarray(probs))

    def test_gap_between_truth_and_the_rest(self):
        truth = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        cs = self._candidates([1.0, 1.0, 0.25, 0.25])
        report = probability_separation(cs, truth)
        assert report.mean_truth_prob == 1.0
        assert report.mean_other_prob == 0.25
        assert report.gap == 0.75

    def test_all_candidates_true_leaves_other_mean_absent(self):
        truth = build_hypergraph(
            6, [[0, 1, 2], [3, 4, 5], [1, 2, 3], [2, 3, 4]]
        )
        cs = self._candidates([0.9, 0.8, 0.7, 0.6])
        report = probability_separation(cs, truth)
        assert report.mean_other_prob is None
        assert report.gap is None

    def test_no_true_candidates_leaves_truth_mean_absent(self):
        truth = build_hypergraph(6, [[0, 1, 3]])
        cs = self._candidates([0.9, 0.8, 0.7, 0.6])
        report = probability_separation(cs, truth)
        assert report.mean_truth_prob is None
        assert report.gap is None

    def test_mixed_sizes_match_whole_node_sets(self):
        # (0, 1) is a prefix of (0, 1, 2), and the size-4 truth edge is wider
        # than any candidate: only the exact node set (0, 1) is a truth candidate.
        nodes = np.array([[0, 1, 2], [0, 1, -1], [3, 4, 5]])
        cs = CandidateSet(n=6, nodes=nodes, anchors=nodes[:, 0], probs=[0.5, 1.0, 0.25])
        report = probability_separation(cs, build_hypergraph(6, [[0, 1], [2, 3, 4, 5]]))
        assert (report.mean_truth_prob, report.mean_other_prob) == (1.0, 0.375)

    def test_probs_are_required(self):
        cs = CandidateSet(n=3, nodes=np.array([[0, 1]]), anchors=np.array([0]))
        with pytest.raises(DomainError, match="missing"):
            probability_separation(cs, build_hypergraph(3, [[0, 1]]))

    def test_node_count_mismatch_rejected(self):
        cs = self._candidates([0.9, 0.8, 0.7, 0.6])
        with pytest.raises(DomainError, match="node counts"):
            probability_separation(cs, build_hypergraph(7, [[0, 1, 2]]))
