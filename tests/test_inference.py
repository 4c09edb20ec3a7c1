"""Candidate generation, probability assignment, and edge selection."""

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feature_matrices
from hyperinfer import (
    CandidateSet,
    DomainError,
    InfeasibleError,
    PerSize,
    SmoothnessVariant,
    SynthConfig,
    TopM,
    build_hypergraph,
    generate_candidates,
    infer_hypergraph,
    infer_probabilities,
    make_dataset,
    normalize_features,
    score_candidates,
    select_edges,
)
from hyperinfer import inference, smoothness
from hyperinfer.inference import _selection_order
from hyperinfer.smoothness import direct_sq_dists, pairwise_sq_dists, row_chunks
from oracles import inference_objective

TWO_PAIRS = np.array([[0.0], [1.0], [10.0], [11.0]])


def _rows(spec):
    """Node tuples as pool rows: padded with -1 to the longest tuple."""
    width = max(map(len, spec), default=0)
    return np.array([list(nodes) + [-1] * (width - len(nodes)) for nodes in spec], dtype=np.intp)


def _pool(n, spec, probs, scores=None, anchors=None):
    anchors = [nodes[0] for nodes in spec] if anchors is None else anchors
    return CandidateSet(n=n, nodes=_rows(spec), anchors=anchors, scores=scores, probs=probs)


class TestCandidate:
    def test_anchor_must_belong_to_the_set(self):
        # The padding is no member either: anchor -1 of the padded row (0, 1).
        for spec, anchors in (([(0, 1)], [2]), ([(0, 1, 2), (0, 1)], [0, -1])):
            with pytest.raises(DomainError, match="anchor"):
                _pool(4, spec, None, anchors=anchors)

    def test_needs_two_distinct_nodes(self):
        for row in ([2, -1], [2]):
            with pytest.raises(DomainError, match="too small"):
                CandidateSet(n=4, nodes=[row], anchors=[2])

    @pytest.mark.parametrize("row", [[1, 3, 3], [3, 1, -1], [0, -1, 2]])
    def test_rows_hold_ascending_distinct_ids_then_padding(self, row):
        with pytest.raises(DomainError, match="ascending"):
            CandidateSet(n=4, nodes=[row], anchors=[row[0]])

    @pytest.mark.parametrize("row", [[0, 4], [-2, 1]])
    def test_ids_must_be_in_range(self, row):
        with pytest.raises(DomainError, match="out of range"):
            CandidateSet(n=4, nodes=[row], anchors=[row[1]])


class TestCandidateSetValidation:
    def test_duplicate_node_sets_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            _pool(4, [(0, 1), (0, 1)], None)
        # Read-only rows like the search's own are checked too when built by hand.
        cs = generate_candidates(TWO_PAIRS, [2])
        nodes, anchors = np.vstack((cs.nodes, cs.nodes[:1])), np.append(cs.anchors, 1)
        nodes.flags.writeable = anchors.flags.writeable = False
        with pytest.raises(DomainError, match="duplicate"):
            CandidateSet(n=cs.n, nodes=nodes, anchors=anchors)

    def test_pool_bound_is_enforced(self):
        # Six distinct pairs over four nodes: more than len(sizes) * n rows.
        with pytest.raises(DomainError, match="bound"):
            _pool(4, list(itertools.combinations(range(4), 2)), None)

    def test_scores_must_align(self):
        with pytest.raises(DomainError, match="aligned"):
            _pool(4, [(0, 1)], None, scores=np.array([1.0, 2.0]))

    def test_probs_must_sit_in_unit_interval(self):
        with pytest.raises(DomainError, match="probs"):
            _pool(4, [(0, 1)], np.array([1.5]))

    @pytest.mark.parametrize(
        "probs, scores, match",
        [
            (None, [-1.0], "nonnegative"),
            ([0.5, 0.5], None, "aligned"),
            ([0.0], None, "probs"),
            (None, ["0.5"], "scores must be real numbers"),
            ([True], None, "probs must be real numbers"),
            ([None], None, "probs must be real numbers"),
        ],
    )
    def test_other_bad_scores_and_probs_rejected(self, probs, scores, match):
        with pytest.raises(DomainError, match=match):
            _pool(4, [(0, 1)], probs, scores=scores)

    def test_size_counts(self):
        cs = _pool(5, [(0, 1), (2, 4), (0, 1, 2)], None)
        assert cs.size_counts() == {2: 2, 3: 1}
        assert cs.sizes == (2, 3)
        assert len(cs) == 3

    def test_rows_are_checked_once_per_pool(self, monkeypatch):
        # The search checks its rows where it makes them, so its pool skips
        # _check_rows; a pool built by hand is checked once, then again only
        # when replace() changes n, nodes or anchors.
        calls = []
        check = CandidateSet._check_rows
        monkeypatch.setattr(CandidateSet, "_check_rows", lambda cs: calls.append(cs) or check(cs))
        cs, _ = infer_hypergraph(TWO_PAIRS, [2], TopM(1))
        assert calls == []
        assert not cs.nodes.flags.writeable and not cs.anchors.flags.writeable
        by_hand = CandidateSet(n=cs.n, nodes=cs.nodes, anchors=cs.anchors)
        replace(by_hand, probs=cs.probs)
        assert len(calls) == 1
        with pytest.raises(DomainError, match="out of range"):
            replace(cs, n=3)
        assert len(calls) == 2

    def test_features_are_validated_once_per_stage(self, monkeypatch):
        # n = 1100 spans three row blocks of the search; the kernels that the
        # blocks and the two sizes call take the checked matrix as it is.
        calls = []
        check = inference.as_features

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(inference, "as_features", counting)
        monkeypatch.setattr(smoothness, "as_features", counting)
        x = np.random.default_rng(23).normal(size=(1100, 4))
        cs, _ = infer_hypergraph(x, [3, 8], TopM(5))
        assert cs.sizes == (3, 8)
        assert len(calls) == 2


class TestGenerateCandidates:
    def test_twin_pairs_collapse_to_two_candidates(self):
        cs = generate_candidates(TWO_PAIRS, sizes=[2])
        assert [c.nodes for c in cs.candidates] == [(0, 1), (2, 3)]

    def test_full_size_yields_a_single_candidate(self):
        cs = generate_candidates(TWO_PAIRS, sizes=[4])
        assert len(cs) == 1
        assert cs.candidates[0].nodes == (0, 1, 2, 3)

    def test_first_anchor_wins_duplicates(self):
        cs = generate_candidates(TWO_PAIRS, sizes=[2])
        assert [c.anchor for c in cs.candidates] == [0, 2]

    def test_equidistant_neighbours_take_the_smaller_index(self):
        x = np.array([[0.0], [1.0], [-1.0]])
        cs = generate_candidates(x, sizes=[2])
        assert cs.candidates[0].nodes == (0, 1)

    def test_ordered_by_size_then_anchor(self):
        rng = np.random.default_rng(2)
        cs = generate_candidates(rng.normal(size=(8, 3)), sizes=[3, 2])
        keys = [(len(c.nodes), c.anchor) for c in cs.candidates]
        assert keys == sorted(keys)
        assert cs.sizes == (2, 3)

    def test_size_below_two_rejected(self):
        with pytest.raises(DomainError, match=r"hyperedge size must be an integer in \[2, .*got 1"):
            generate_candidates(TWO_PAIRS, sizes=[1])

    def test_size_beyond_node_count_rejected(self):
        with pytest.raises(DomainError, match="exceeds the node count"):
            generate_candidates(TWO_PAIRS, sizes=[5])

    def test_empty_size_list_rejected(self):
        with pytest.raises(DomainError, match="at least one"):
            generate_candidates(TWO_PAIRS, sizes=[])

    def test_features_whose_squared_norms_overflow_rejected(self):
        # Finite features near 1e155 would make the Gram terms inf - inf = NaN.
        x = np.random.default_rng(0).normal(size=(40, 3)) + 1e155
        with pytest.raises(DomainError, match="neighbour search.*--normalize"):
            generate_candidates(x, [3])

    def test_squared_norm_bound_is_a_quarter_of_the_largest_float(self):
        # A largest squared norm of 2**1020 is below max / 4; 2**1022 is above it.
        x = np.array([[1.0], [-1.0], [0.0], [2.0**-510]])
        cs, _ = infer_hypergraph(2.0**510 * x, [2, 3], TopM(1))
        assert np.all(np.isfinite(cs.scores)) and np.all(cs.probs > 0.0)
        with pytest.raises(DomainError, match="too large"):
            generate_candidates(2.0**511 * x, [2])

    @given(feature_matrices(max_rows=8, max_dim=3), st.data())
    def test_pool_bound_and_membership(self, x, data):
        n = x.shape[0]
        if n < 2:
            x = np.vstack([x, x + 1.0])
            n = 2
        sizes = data.draw(
            st.frozensets(st.integers(2, n), min_size=1, max_size=min(3, n - 1))
        )
        cs = generate_candidates(x, sizes=sizes)
        assert len(cs) <= len(cs.sizes) * n
        for cand in cs.candidates:
            assert cand.anchor in cand.nodes
            assert len(cand.nodes) in cs.sizes

    def test_every_anchor_is_represented(self):
        # Deduplication keeps one candidate per node set, but every node must
        # still appear inside at least one candidate of each size.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 2))
        cs = generate_candidates(x, sizes=[3])
        covered = set()
        for cand in cs.candidates:
            covered.update(cand.nodes)
        assert covered == set(range(10))

    def test_scaling_features_changes_nothing(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 4))
        base = generate_candidates(x, sizes=[2, 4])
        scaled = generate_candidates(2.5 * x, sizes=[2, 4])
        assert [c.nodes for c in base.candidates] == [
            c.nodes for c in scaled.candidates
        ]


def _oracle_pool(x, sizes, dists=None):
    """The full-matrix search: every row of the n x n matrix stably argsorted.

    The matrix is the direct-difference one, sum((x_j - x_i)^2), unless
    ``dists`` is given.
    """
    n = x.shape[0]
    if dists is None:
        dists = np.array([np.sum((x - row) ** 2, axis=-1) for row in x])
    np.fill_diagonal(dists, np.inf)
    order = np.argsort(dists, axis=1, kind="stable")
    seen, out = set(), []
    for k in sorted(set(sizes)):
        for anchor in range(n):
            nodes = tuple(sorted(int(v) for v in (anchor, *order[anchor, : k - 1])))
            if nodes not in seen:
                seen.add(nodes)
                out.append((nodes, anchor))
    return out


def _tie_heavy(n, seed=3):
    """Features from {0, 1, 2}, each row repeated 4 times, rows shuffled.

    Every distance is a small integer, exact under any summation order, so the
    search must agree with the oracle exactly, and most rows tie at the
    neighbour boundary.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 3, size=(-(-n // 4), 6)).astype(float)
    return np.repeat(base, 4, axis=0)[:n][rng.permutation(n)]


def _planted(n, spec, dim):
    cfg = SynthConfig(n=n, edge_spec=spec, target_overlap=0.3, dim=dim, seed=0)
    return make_dataset(cfg).x_nodes


def _count_keys(monkeypatch):
    """The sizes of every key block the search computes, appended as it runs."""
    computed = []

    def counted(*args):
        keys = pairwise_sq_dists(*args)
        computed.append(keys.size)
        return keys

    monkeypatch.setattr(inference, "pairwise_sq_dists", counted)
    return computed


def _pool_digest(cs):
    text = ";".join(f"{c.anchor}:{','.join(map(str, c.nodes))}" for c in cs.candidates)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# n at the edges of smoothness.row_chunks (pinned below): 2 and 511 are one
# chunk, 512 the largest one-chunk n, 513 two chunks whose last is the
# shortest, 1025 five equal chunks, 778 three chunks whose last is the
# shortest. Sizes {2}, {3, 8} and k = n, then k = n - 1, where the (k-1)-th
# nearest is the last node but one and the entry past it a real node.
SEARCH_CASES = list(
    dict.fromkeys(
        (n, sizes)
        for n in (2, 511, 512, 513, 1025, 778)
        for sizes in ((2,), (3, 8), (n,))
        if max(sizes) <= n
    )
) + [(n, (n - 1,)) for n in (511, 512, 513, 1025, 778)]


class TestBlockedSearch:
    def test_search_cases_sit_on_the_chunk_edges(self):
        heights = {n: [b - a for a, b in row_chunks(n)] for n in (511, 512, 513, 1025, 778)}
        assert heights == {
            511: [511],
            512: [512],
            513: [257, 256],
            1025: [205] * 5,
            778: [260, 259, 259],
        }

    @pytest.mark.parametrize("n, sizes", SEARCH_CASES)
    def test_matches_the_full_argsort_oracle(self, n, sizes):
        x = _tie_heavy(n)
        cs = generate_candidates(x, sizes)
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, sizes)

    def test_near_ties_are_pinned_on_exact_integer_features(self, monkeypatch):
        # Every key of integer features is exact, so which rows have a near-tie
        # (more than r keys within B_i of the r-th, or a boundary tie of size 3)
        # is a property of the features alone. Each reranked row calls
        # direct_sq_dists once; the set of 590 rows was recorded with a count
        # of the keys within B_i, so the (r+1)-th key must certify the same rows.
        x = np.random.default_rng(16).integers(0, 4, size=(778, 16)).astype(float)
        reranked = []

        def spy(x, a, b):
            reranked.append(int(b[0]))
            return direct_sq_dists(x, a, b)

        monkeypatch.setattr(inference, "direct_sq_dists", spy)
        cs = generate_candidates(x, (3, 8))
        rows = ",".join(map(str, sorted(reranked)))
        digest = hashlib.sha256(rows.encode()).hexdigest()[:16]
        assert (len(reranked), len(set(reranked)), digest) == (590, 590, "b3d2d63f4d6aa13e")
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, (3, 8))

    @pytest.mark.parametrize("sizes, d", [([3], 64), ([3, 8], 64), ([3, 8], 130)])
    def test_repeated_real_rows_tie_exactly(self, sizes, d):
        # 25 real-valued rows, each repeated 4 times, shuffled. The product may
        # round a copy's column differently by its position; the search must
        # still rank the copies of a row as equidistant, as the oracle on
        # direct differences does, where every copy's column is bit-equal.
        # d=130 compares the rows in three blocks of columns.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(25, d)) * 3.7
            x = base[rng.permutation(np.repeat(np.arange(25), 4))]
            direct = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
            cs = generate_candidates(x, sizes)
            got = [(c.nodes, c.anchor) for c in cs.candidates]
            assert got == _oracle_pool(x, sizes, direct), seed

    @pytest.mark.parametrize("n, sizes", [(511, (3, 8)), (513, (2,)), (778, (3, 8))])
    def test_noise_within_half_the_rounding_bound_changes_no_pool(self, monkeypatch, n, sizes):
        # Every distance of the tie-heavy input is an exact small integer, so
        # noise of up to B_i / 2 = 4 (d + 5) u (|x_i|^2 + max |x|^2) per entry,
        # the most rounding the search allows for, must leave the pool as the
        # direct-difference oracle ranks it, ties at the boundary included.
        x = _tie_heavy(n)
        sq = np.sum(x * x, axis=1)
        half = 4 * (x.shape[1] + 5) * (np.finfo(float).eps / 2) * (sq + sq.max())
        rng = np.random.default_rng(n)

        def noisy(x, sq_norms, rows, cols, buf):
            keys = pairwise_sq_dists(x, sq_norms, rows, cols, buf)
            keys += rng.uniform(-1.0, 1.0, keys.shape) * half[rows, None]
            return keys

        monkeypatch.setattr(inference, "pairwise_sq_dists", noisy)
        cs = generate_candidates(x, sizes)
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, sizes)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_large_common_offset_ranks_by_direct_differences(self, seed):
        # With 1e8 added to one column the Gram terms are near 1e16, and their
        # sum cancels to distances near 10 with an error of the same order.
        x = np.random.default_rng(seed).normal(size=(50, 4))
        x[:, 0] += 1e8
        cs = generate_candidates(x, [3])
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, [3])

    def test_mixed_size_pools_match_the_recorded_output(self):
        # Digests of (anchor, nodes) for every candidate; every input spans
        # several row chunks. The tie-heavy pool was recorded with the
        # full-matrix search, the others with 512-row blocks: real-valued
        # features, where a GEMM of another height may round a few distances
        # differently. A change to the planter or the sampler re-records them
        # from an unchanged search.
        cases = [
            (_tie_heavy(1025), 844, "7853c9558edba924"),
            (_planted(1100, {3: 60, 8: 60}, 64), 1692, "2d8e4bc607633231"),
            (_planted(1100, {8: 100}, 64), 1737, "de9333e3ec41c1f7"),
            (_planted(3000, {3: 300, 8: 300}, 128), 3478, "48a94955ff112b04"),
            (_planted(1100, {3: 60, 8: 60}, 1000), 1673, "18f5bda34218e913"),
            (np.random.default_rng(0).normal(size=(1100, 1000)), 2199, "5c6f50c298d6d698"),
        ]
        for x, size, digest in cases:
            cs = generate_candidates(x, [3, 8])
            assert (len(cs), _pool_digest(cs)) == (size, digest)

    def test_norm_bands_prune_the_planted_mixed_search(self, monkeypatch):
        # Nearly every node of the planted n=3000 {3: 300, 8: 300} case is
        # covered, so most rows are searched only against their norm band: the
        # keys of the seed, the bands and the unbanded rows came to 0.24 n^2,
        # against n^2 for a search of every row against every node.
        x = _planted(3000, {3: 300, 8: 300}, 128)
        computed = _count_keys(monkeypatch)
        cs = generate_candidates(x, [3, 8])
        assert (len(cs), _pool_digest(cs)) == (3478, "48a94955ff112b04")
        assert sum(computed) < 0.3 * len(x) ** 2

    def test_axis_bands_prune_the_planted_uniform_search(self, monkeypatch):
        # The planted n=3000 {8: 300} case bands no row along the norm, whose
        # values do not separate when one tree of edges couples every node; the
        # principal axis bands about two thirds of them. The keys came to 0.58
        # n^2, against n^2 with norm bands alone, and the pool was recorded with
        # the norm bands, whose search here is every row against every node.
        x = _planted(3000, {8: 300}, 128)
        computed = _count_keys(monkeypatch)
        cs = generate_candidates(x, [8])
        assert (len(cs), _pool_digest(cs)) == (1687, "c11bbf88405512c2")
        assert sum(computed) < 0.62 * len(x) ** 2

    def test_a_planted_uniform_pool_matches_the_oracle(self):
        # The axis bands the rows of this input (n=1100, {8: 100}, d=64), with
        # five chunks, so banded blocks and gathered runs both apply.
        x = _planted(1100, {8: 100}, 64)
        cs = generate_candidates(x, [3, 8])
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, [3, 8])

    @settings(max_examples=25)
    @given(st.data())
    def test_multi_chunk_pools_match_the_oracle(self, data):
        # Inputs of several row chunks, where the bands apply: exact ties
        # (integer features), repeated rows, a 1e8 offset on one column, row
        # scales spread over e^-20..e^20, and equal norms (every row a signed
        # permutation of one row), with sizes up to k = n - 1 and k = n.
        n = data.draw(st.integers(513, 1500), label="n")
        d = data.draw(st.integers(1, 8), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ties, repeats, offset, scales, equal = (
            data.draw(st.booleans(), label=what)
            for what in ("ties", "repeats", "offset", "scales", "equal norms")
        )
        x = rng.integers(0, 3, size=(n, d)).astype(float) if ties else rng.normal(size=(n, d))
        if equal:
            signs = rng.choice([-1.0, 1.0], size=(n, d))
            x = signs * x[0][np.argsort(rng.random((n, d)), axis=1)]
        if repeats:
            x = x[rng.integers(0, max(1, n // 4), size=n)]
        if scales:
            x *= np.exp(rng.uniform(-20.0, 20.0, size=(n, 1)))
        if offset:
            x[:, 0] += 1e8
        sizes = data.draw(
            st.sets(st.integers(2, 70), min_size=1, max_size=3)
            | st.sampled_from([{n}, {n - 1}, {3, n - 1}]),
            label="sizes",
        )
        cs = generate_candidates(x, sizes)
        assert [(c.nodes, c.anchor) for c in cs.candidates] == _oracle_pool(x, sizes)

    @pytest.mark.parametrize("n, d", [(4000, 16), (16000, 4), (2000, 1000)])
    def test_memory_stays_within_a_few_chunks(self, n, d):
        # One chunk buffer and one ranking sub-block's partition indices,
        # plus O(n max size) for the pool. n=16000, d=4 searches 30% of its
        # rows against bands along a principal axis, gathered into the
        # buffer, and holds a few n-long arrays for them. The peaks were 1.43, 1.63 and 1.35
        # chunks for the three cases (1.41, 1.45 and 1.34 with no bands); the
        # bound leaves 22%, 23% and 20% over them. Comparing whole sorted pool
        # rows for duplicates, not a column at a time, peaked at 1.92 at
        # n=16000. Ranking a whole
        # chunk at once peaked at 2.30, 2.43 and 2.24 chunks, a second, scratch
        # buffer above 3. Nothing grows with a fixed block of rows (a 512-row block
        # peaked at 18 MB at n=4000) or with n x d (squaring the whole matrix
        # at once peaked at 15.3 MiB at n=2000, d=1000).
        x = np.random.default_rng(8).normal(size=(n, d))
        sizes = [3, 8]
        chunk = 8 * n * row_chunks(n)[0][1]
        tracemalloc.start()
        try:
            generate_candidates(x, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk + 16 * n * max(sizes)


class TestScoring:
    def test_pair_score_is_the_squared_gap(self):
        cs = _pool(2, [(0, 1)], None)
        scored = score_candidates(cs, np.array([[1.0], [-1.0]]))
        assert scored.scores[0] == 4.0

    def test_rescoring_drops_stale_probabilities(self):
        cs = generate_candidates(TWO_PAIRS, sizes=[2])
        scored = score_candidates(cs, TWO_PAIRS)
        with_probs = infer_hypergraph(TWO_PAIRS, [2], TopM(2))[0]
        assert with_probs.probs is not None
        rescored = score_candidates(with_probs, TWO_PAIRS)
        assert rescored.probs is None
        assert np.array_equal(rescored.scores, scored.scores)

    def test_feature_rows_must_match_pool(self):
        cs = generate_candidates(TWO_PAIRS, sizes=[2])
        with pytest.raises(DomainError, match="feature rows"):
            score_candidates(cs, np.zeros((3, 1)))

    def test_variant_changes_the_scores(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 3))
        cs = generate_candidates(x, sizes=[4])
        by_max = score_candidates(cs, x, SmoothnessVariant("max"))
        by_min = score_candidates(cs, x, SmoothnessVariant("min"))
        assert np.all(by_min.scores <= by_max.scores)
        assert np.any(by_min.scores < by_max.scores)

    def test_memory_stays_within_the_buffer_and_the_pair_table(self):
        # Each size is scored in row blocks, so its gathers stay inside
        # BUFFER_BYTES; the largest size's c x k(k-1)/2 pair table comes on
        # top. The peak was 2.00 MB here; gathering the whole pool per pair
        # held about 4 * 8 c d (48.6 MB).
        n, d = 2000, 1000
        x = np.random.default_rng(9).normal(size=(n, d))
        cs = generate_candidates(x, [3, 8])
        pair_table = 8 * np.count_nonzero(cs.row_sizes == 8) * 28
        tracemalloc.start()
        try:
            score_candidates(cs, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < smoothness.BUFFER_BYTES + pair_table

    def test_each_distinct_pair_is_summed_once(self, monkeypatch):
        # A count of work, not a timing: the paper point's 48 size-8 candidates
        # hold 48 * 28 = 1344 node pairs, of which 820 are distinct.
        ds = make_dataset(SynthConfig(100, {8: 12}, 0.3, dim=1000, seed=0))
        x = normalize_features(ds.x_nodes)
        cs = generate_candidates(x, [8])
        summed = []
        direct = smoothness.direct_sq_dists

        def counting(x, a, b):
            summed.append(len(a))
            return direct(x, a, b)

        monkeypatch.setattr(smoothness, "direct_sq_dists", counting)
        score_candidates(cs, x)
        assert len(cs) * 28 == 1344
        assert sum(summed) == 820


class TestInferProbabilities:
    @pytest.mark.parametrize(
        "score,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.25)]
    )
    def test_closed_form_values(self, score, expected):
        assert infer_probabilities([score])[0] == expected

    def test_grid_search_finds_nothing_better(self):
        score = 3.0
        w_star = infer_probabilities([score])[0]
        best = inference_objective([w_star], [score])
        grid = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
        values = grid * score - np.log(grid) + grid
        assert values.min() >= best - 1e-12

    def test_negative_scores_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            infer_probabilities([-0.5])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            infer_probabilities([np.inf])

    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_probabilities_stay_in_unit_interval_and_order_flips(self, scores):
        w = infer_probabilities(scores)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)
        order = np.argsort(np.asarray(scores), kind="stable")
        assert np.all(np.diff(w[order]) <= 1e-12)

    def test_applies_per_coordinate(self):
        scores = np.array([0.0, 1.0, 3.0, 9.0])
        assert np.allclose(infer_probabilities(scores), [1.0, 0.5, 0.25, 0.1])

    @pytest.mark.parametrize("scores, dtype", [(["1.0", "3"], "<U3"), ([True, False], "bool")])
    def test_strings_and_booleans_rejected(self, scores, dtype):
        # The CandidateSet rule: scores must be real numbers, never coerced.
        with pytest.raises(DomainError, match=f"scores must be real numbers, got {dtype}"):
            infer_probabilities(scores)


class TestSelectEdges:
    def test_topm_takes_the_highest_probabilities(self):
        cs = _pool(
            6,
            [(0, 1), (2, 3), (4, 5)],
            np.array([0.9, 0.5, 0.1]),
        )
        h = select_edges(cs, TopM(2))
        assert h.edges == ((0, 1), (2, 3))
        assert h.weights == (0.9, 0.5)

    def test_per_size_takes_the_best_of_each_size(self):
        cs = _pool(
            8,
            [(0, 1), (2, 3), (0, 1, 2), (3, 4, 5)],
            np.array([0.4, 0.6, 0.3, 0.7]),
        )
        h = select_edges(cs, PerSize({2: 1, 3: 1}))
        assert set(h.edges) == {(2, 3), (3, 4, 5)}

    def test_equal_probabilities_fall_back_to_lexicographic_order(self):
        cs = _pool(
            6,
            [(4, 5), (0, 1), (2, 3)],
            np.array([0.5, 0.5, 0.5]),
        )
        h = select_edges(cs, TopM(2))
        assert h.edges == ((0, 1), (2, 3))
        # Across sizes the order is Python's tuple order: a prefix comes first.
        cs = _pool(3, [(0, 1, 2), (0, 1)], np.array([0.5, 0.5]), scores=np.ones(2))
        assert select_edges(cs, TopM(1)).edges == ((0, 1),)

    def test_probability_ties_break_on_lower_score(self):
        cs = _pool(
            4,
            [(0, 1), (2, 3)],
            np.array([0.5, 0.5]),
            scores=np.array([2.0, 1.0]),
        )
        h = select_edges(cs, TopM(1))
        assert h.edges == ((2, 3),)

    def test_requesting_more_than_the_pool_is_infeasible(self):
        cs = _pool(4, [(0, 1)], np.array([0.5]))
        with pytest.raises(InfeasibleError, match="not enough candidates"):
            select_edges(cs, TopM(2))

    def test_per_size_shortage_is_infeasible(self):
        cs = _pool(4, [(0, 1)], np.array([0.5]))
        with pytest.raises(InfeasibleError, match="size 3"):
            select_edges(cs, PerSize({3: 1}))

    def test_negative_request_rejected(self):
        cs = _pool(4, [(0, 1)], np.array([0.5]))
        with pytest.raises(DomainError, match="negative"):
            select_edges(cs, TopM(-1))

    def test_missing_probabilities_rejected(self):
        cs = _pool(4, [(0, 1)], None)
        with pytest.raises(DomainError, match="missing"):
            select_edges(cs, TopM(1))

    def test_zero_selection_gives_empty_hypergraph(self):
        cs = _pool(4, [(0, 1)], np.array([0.5]))
        assert select_edges(cs, TopM(0)).m == 0

    @pytest.mark.parametrize(
        "spec, quotas", [(TopM(40), {None: 40}), (PerSize({3: 15, 5: 10}), {3: 15, 5: 10})]
    )
    def test_equals_build_hypergraph_on_the_chosen_rows(self, spec, quotas):
        # The selection skips the rebuild: the pool's rows are already checked.
        x = np.random.default_rng(5).normal(size=(30, 3))
        cs, h = infer_hypergraph(x, [3, 5], spec)
        order = _selection_order(cs)
        chosen = np.concatenate(
            [order[(cs.row_sizes[order] == k) | (k is None)][:want] for k, want in quotas.items()]
        )
        assert h == build_hypergraph(cs.n, cs.edges(chosen), weights=cs.probs[chosen].tolist())
        assert type(h.n) is int and all(type(v) is int for e in h.edges for v in e)


class TestFullPipeline:
    def test_three_tight_clusters_are_recovered(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]])
        x = np.repeat(centers, 3, axis=0) + rng.normal(scale=0.01, size=(9, 2))
        cs, h = infer_hypergraph(x, [3], TopM(3))
        assert set(h.edges) == {(0, 1, 2), (3, 4, 5), (6, 7, 8)}
        assert cs.scores is not None
        assert cs.probs is not None

    def test_selected_weights_are_the_pool_probabilities(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 3))
        cs, h = infer_hypergraph(x, [2, 3], PerSize({2: 2, 3: 1}))
        by_nodes = {c.nodes: p for c, p in zip(cs.candidates, cs.probs)}
        for edge, weight in zip(h.edges, h.weights):
            assert weight == by_nodes[edge]

    def test_duplicated_features_give_certain_pairs(self):
        x = np.array([[5.0, 5.0], [5.0, 5.0], [0.0, 0.0]])
        cs, h = infer_hypergraph(x, [2], TopM(1))
        assert h.edges == ((0, 1),)
        assert h.weights == (1.0,)

    @pytest.mark.parametrize(
        "spec, error, message",
        [
            (TopM(-1), DomainError, "requested a negative number of candidates: -1"),
            (PerSize({3: 2, 8: 5}), InfeasibleError,
             "not enough candidates of size 8: requested 5, have 0"),
            (PerSize({3: 1.5}), DomainError, "selection sizes and counts must be integers"),
            ("top 3", DomainError, "unknown selection spec"),
        ],
    )
    def test_selection_spec_is_checked_before_the_search(self, monkeypatch, spec, error, message):
        def search(*args):
            raise AssertionError("the search ran before the spec was checked")

        monkeypatch.setattr(inference, "generate_candidates", search)
        with pytest.raises(error, match=message):
            infer_hypergraph(np.random.default_rng(0).normal(size=(20, 2)), [3], spec)

    def test_a_zero_count_for_an_unsearched_size_is_allowed(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        _, h = infer_hypergraph(x, iter([3]), PerSize({3: 2, 8: 0}))
        assert h.m == 2

    def test_positive_scaling_never_changes_the_selection(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 4))
        _, base = infer_hypergraph(x, [2, 3], TopM(6))
        for factor in (1e-3, 0.5, 7.0, 1e3):
            _, scaled = infer_hypergraph(factor * x, [2, 3], TopM(6))
            assert scaled.edges == base.edges
