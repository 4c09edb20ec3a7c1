"""Spread scores, scoring variants, and the theory identities they rest on."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import feature_matrices, hypergraphs
from hyperinfer import (
    DomainError,
    SmoothnessVariant,
    build_hypergraph,
    generate_candidates,
    score_candidates,
)
from hyperinfer.smoothness import (
    BUFFER_BYTES,
    pairwise_sq_dists,
    row_chunks,
    variant_edge_smoothness,
)
from oracles import inference_objective, weighted_smoothness_ev

TWO_POINTS = np.array([[1.0], [-1.0]])
THREE_POINTS = np.array([[0.0], [1.0], [3.0]])
MAX = SmoothnessVariant("max")


def _score(edge, x, variant=MAX):
    return float(variant_edge_smoothness(np.array([edge]), x, variant)[0])


def _sq_dists(x, start, stop):
    """Rows [start, stop) from the row-chunk kernel, in fresh buffers, plus each row's |x_i|^2."""
    sq = np.sum(x * x, axis=1)
    buf = np.empty((stop - start) * len(x))
    return pairwise_sq_dists(x, sq, slice(start, stop), slice(None), buf) + sq[start:stop, None]


def _full_sq_dists(x):
    """The whole n x n matrix from the row-chunk kernel."""
    return _sq_dists(x, 0, len(x))


def _ev(edge, x, xe):
    h = build_hypergraph(len(x), [edge])
    return weighted_smoothness_ev([1.0], h, x, np.array([xe], dtype=float))


def _per_edge_oracle(edge, x_nodes, variant):
    """The scorer the package used before scoring went by block: one edge at a time."""
    nodes = sorted(int(v) for v in set(edge))
    x = np.asarray(x_nodes, dtype=float)[nodes]
    diff = x[:, None, :] - x[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    iu = np.triu_indices(len(nodes), k=1)
    pair_dists = sq[iu]
    if variant.kind == "max":
        return float(np.max(pair_dists))
    if variant.kind == "mean":
        return float(np.mean(pair_dists))
    if variant.kind == "min":
        return float(np.min(pair_dists))
    rng = np.random.default_rng([variant.seed, *nodes])
    return float(pair_dists[rng.integers(pair_dists.shape[0])])


ALL_VARIANTS = [
    SmoothnessVariant("max"),
    SmoothnessVariant("mean"),
    SmoothnessVariant("min"),
    SmoothnessVariant("random", seed=13),
]


class TestEdgeMeasures:
    def test_ev_of_symmetric_pair_with_central_edge(self):
        assert _ev([0, 1], TWO_POINTS, [0.0]) == 2.0

    def test_v_of_symmetric_pair(self):
        assert _score([0, 1], TWO_POINTS) == 4.0

    def test_v_takes_the_widest_pair(self):
        assert _score([0, 1, 2], THREE_POINTS) == 9.0

    def test_ev_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        xe = rng.normal(size=3)
        edge = [0, 2, 5]
        expected = sum(np.sum((x[v] - xe) ** 2) for v in edge)
        assert math.isclose(_ev(edge, x, xe), expected)

    def test_v_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 4))
        edge = [1, 3, 4, 6]
        expected = max(
            np.sum((x[a] - x[b]) ** 2) for a, b in itertools.combinations(edge, 2)
        )
        assert math.isclose(_score(edge, x), expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError, match="dimension"):
            _ev([0, 1], TWO_POINTS, [0.0, 0.0])


class TestHypergraphTotals:
    def test_totals_are_sums_of_per_edge_values(self):
        h = build_hypergraph(4, [[0, 1], [1, 2, 3]])
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2))
        xe = rng.normal(size=(2, 2))
        total = weighted_smoothness_ev([1.0, 1.0], h, x, xe)
        expected = [_ev(e, x, xe[i]) for i, e in enumerate(h.edges)]
        assert math.isclose(total, sum(expected))

        pair = variant_edge_smoothness(np.array([h.edges[0]]), x, MAX)
        triple = variant_edge_smoothness(np.array([h.edges[1]]), x, MAX)
        assert pair[0] == _score(h.edges[0], x)
        assert triple[0] == _score(h.edges[1], x)

    def test_edge_feature_row_count_checked(self):
        h = build_hypergraph(3, [[0, 1]])
        x = np.zeros((3, 2))
        with pytest.raises(DomainError, match="edge feature rows"):
            weighted_smoothness_ev([1.0], h, x, np.zeros((2, 2)))

    def test_ev_can_fall_below_v_when_sums_are_squared(self):
        # The centred pair shows why: ev = 1 + 1 = 2 while v = 4. Any
        # guaranteed ordering between the two measures needs unsquared norms,
        # which TestUnsquaredOrdering exercises.
        ev_total = _ev([0, 1], TWO_POINTS, [0.0])
        v_total = _score([0, 1], TWO_POINTS)
        assert ev_total == 2.0
        assert v_total == 4.0
        assert ev_total < v_total


class TestUnsquaredOrdering:
    @given(feature_matrices(max_rows=6, max_dim=3), st.data())
    def test_summed_distances_dominate_widest_pair(self, x, data):
        if x.shape[0] < 2:
            x = np.vstack([x, x + 1.0])
        k = data.draw(st.integers(2, x.shape[0]))
        edge = sorted(
            data.draw(
                st.frozensets(st.integers(0, x.shape[0] - 1), min_size=k, max_size=k)
            )
        )
        xe = np.array(
            data.draw(
                st.lists(
                    st.floats(-50.0, 50.0, allow_nan=False, width=32),
                    min_size=x.shape[1],
                    max_size=x.shape[1],
                )
            )
        )
        summed = sum(np.linalg.norm(x[v] - xe) for v in edge)
        widest = max(
            np.linalg.norm(x[a] - x[b]) for a, b in itertools.combinations(edge, 2)
        )
        assert summed >= widest - 1e-9 * max(1.0, widest)


class TestVariants:
    def test_mean_variant_averages_all_pairs(self):
        got = _score([0, 1, 2], THREE_POINTS, SmoothnessVariant("mean"))
        assert math.isclose(got, 14.0 / 3.0)

    def test_min_variant_takes_tightest_pair(self):
        got = _score([0, 1, 2], THREE_POINTS, SmoothnessVariant("min"))
        assert got == 1.0

    def test_two_node_edge_is_variant_independent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        reference = _score([1, 3], x)
        for variant in [
            SmoothnessVariant("mean"),
            SmoothnessVariant("min"),
            SmoothnessVariant("random", seed=99),
        ]:
            assert _score([1, 3], x, variant) == reference

    def test_random_variant_is_reproducible(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 2))
        variant = SmoothnessVariant("random", seed=21)
        first = _score([0, 2, 5, 7], x, variant)
        second = _score([0, 2, 5, 7], x, variant)
        assert first == second

    def test_random_variant_returns_an_actual_pair_distance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 2))
        edge = [0, 1, 4, 5]
        pairs = {
            float(np.sum((x[a] - x[b]) ** 2))
            for a, b in itertools.combinations(edge, 2)
        }
        got = _score(edge, x, SmoothnessVariant("random", seed=3))
        assert got in pairs

    def test_random_variant_requires_seed(self):
        with pytest.raises(DomainError, match="seed"):
            SmoothnessVariant("random")

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError, match="variant"):
            SmoothnessVariant("median")

    @given(hypergraphs(), st.integers(0, 2**20))
    def test_min_mean_random_bounded_by_extremes(self, h, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(h.n, 3))
        for edge in h.edges:
            lo = _score(edge, x, SmoothnessVariant("min"))
            hi = _score(edge, x, SmoothnessVariant("max"))
            mean = _score(edge, x, SmoothnessVariant("mean"))
            rand = _score(edge, x, SmoothnessVariant("random", seed=seed))
            assert lo <= mean <= hi
            assert lo <= rand <= hi


class TestWeightedSmoothness:
    def test_halving_the_weight_halves_the_value(self):
        h = build_hypergraph(2, [[0, 1]])
        got = weighted_smoothness_ev([0.5], h, TWO_POINTS, np.array([[0.0]]))
        assert got == 1.0

    def test_weight_count_checked(self):
        h = build_hypergraph(2, [[0, 1]])
        with pytest.raises(DomainError, match="weights"):
            weighted_smoothness_ev([0.5, 0.5], h, TWO_POINTS, np.array([[0.0]]))

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_weights_outside_unit_interval_rejected(self, bad):
        h = build_hypergraph(2, [[0, 1]])
        with pytest.raises(DomainError, match="lie in"):
            weighted_smoothness_ev([bad], h, TWO_POINTS, np.array([[0.0]]))


class TestObjective:
    def test_zero_score_full_weight(self):
        assert inference_objective([1.0], [0.0]) == 1.0

    def test_half_weight_against_unit_score(self):
        got = inference_objective([0.5], [1.0])
        assert math.isclose(got, 1.0 + math.log(2.0))
        assert math.isclose(got, 1.693147, abs_tol=5e-7)

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            inference_objective([0.0], [1.0])

    def test_weight_above_one_rejected(self):
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            inference_objective([1.5], [1.0])

    @given(
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.02, 0.98, allow_nan=False),
    )
    def test_second_difference_is_positive(self, score, w):
        # Convexity in each coordinate: the centred second difference of a
        # strictly convex function is strictly positive.
        eps = 0.01
        lo = inference_objective([w - eps], [score])
        mid = inference_objective([w], [score])
        hi = inference_objective([w + eps], [score])
        assert (hi - 2.0 * mid + lo) > 0.0


class TestPairwiseDistances:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(9, 4))
        d = _full_sq_dists(x)
        for a in range(9):
            for b in range(9):
                assert math.isclose(
                    d[a, b], float(np.sum((x[a] - x[b]) ** 2)), abs_tol=1e-9
                )

    @given(feature_matrices())
    def test_symmetric(self, x):
        # Rounding may leave an entry slightly negative or a diagonal entry
        # nonzero; the search bounds it and reranks near-ties.
        d = _full_sq_dists(x)
        assert np.allclose(d, d.T)

    def test_row_blocks_stack_to_the_full_matrix(self):
        # Integer features: every entry is exact, whatever the summation order.
        x = np.random.default_rng(18).integers(0, 3, size=(11, 5)).astype(float)
        blocks = [_sq_dists(x, a, b) for a, b in [(0, 4), (4, 5), (5, 11)]]
        assert np.array_equal(np.vstack(blocks), _full_sq_dists(x))

    def test_blocks_equal_the_unchunked_formula_bit_for_bit(self):
        # Real-valued features, so rounding would show any change in the
        # order of operations. The ranges end mid-chunk, span several chunks
        # or are one chunk each. Each is written into the leading rows of one
        # reused buffer, as the search does, and the buffer starts dirty.
        n = 1500
        x = np.random.default_rng(19).normal(size=(n, 7)) * 3.7
        sq = np.sum(x * x, axis=1)
        height = row_chunks(n)[0][1]
        assert 1 < height < n
        dist = np.full(n * n, np.nan)
        ranges = [(0, n), (0, 1), (3, 3 + 2 * height + 5), (n - height - 1, n), *row_chunks(n)]
        for a, b in ranges:
            want = -2.0 * (x[a:b] @ x.T) + sq[None, :]
            got = pairwise_sq_dists(x, sq, slice(a, b), slice(None), dist)
            assert np.shares_memory(got, dist) and got.tobytes() == want.tobytes(), (a, b)

    def test_node_ids_are_gathered_into_the_buffer_after_the_keys(self):
        # Columns, then rows, given as ids are copied into the buffer behind the
        # keys, which it must hold exactly; a block against itself is copied once.
        x = np.random.default_rng(20).normal(size=(40, 6)) * 3.7
        sq = np.sum(x * x, axis=1)
        rows, cols = np.array([5, 2, 39, 7]), np.arange(31, 3, -3)
        h, w, d = len(rows), len(cols), x.shape[1]
        block = x[cols]  # against itself, as the kernel multiplies it: one operand
        cases = [
            (rows, cols, h * w + (h + w) * d, x[rows], x[cols]),
            (rows, slice(3, 20), h * 17 + h * d, x[rows], x[3:20]),
            (slice(10, 14), cols, h * w + w * d, x[10:14], x[cols]),
            (cols, cols, w * w + w * d, block, block),
        ]
        for r, c, size, a, b in cases:
            buf = np.full(size, np.nan)
            got = pairwise_sq_dists(x, sq, r, c, buf)
            want = -2.0 * (a @ b.T) + sq[c]
            assert np.shares_memory(got, buf) and got.tobytes() == want.tobytes()
            assert not np.isnan(buf).any()

    @given(st.integers(2, 10**7))
    def test_row_chunks_cover_the_rows_in_near_equal_gemm_sized_chunks(self, n):
        # Arithmetic only: the bounds for n up to 10^7 allocate no array.
        chunks = row_chunks(n)
        heights = [b - a for a, b in chunks]
        target = max(32, (2 << 20) // (8 * n))
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
        assert len(chunks) == -(-n // target) and max(heights) <= target
        assert max(heights) - min(heights) <= 1 and heights == sorted(heights, reverse=True)
        # Never a one-row gemv: at least 31 rows, or all n when n < 31.
        assert min(heights) >= min(n, 31)
        assert (len(chunks) == 1) == (n <= 512)


class TestBlockScoring:
    @pytest.mark.parametrize("sizes", [[2], [3], [5], [8], [3, 5, 8]])
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.kind)
    def test_pool_scores_equal_the_per_edge_oracle(self, sizes, variant):
        rng = np.random.default_rng(len(sizes) * 100 + sizes[0])
        x = rng.normal(size=(40, 16))
        cs = score_candidates(generate_candidates(x, sizes), x, variant)
        expected = [_per_edge_oracle(c.nodes, x, variant) for c in cs.candidates]
        assert cs.scores.tolist() == expected

    def test_row_blocks_keep_every_score_bit_for_bit(self):
        # d=1000 makes a block 32 rows, so 100 rows span four blocks, the last
        # one short. Each pair is summed on its own as the oracle.
        rng = np.random.default_rng(17)
        x = rng.normal(size=(60, 1000))
        rows = np.sort([rng.choice(60, size=5, replace=False) for _ in range(100)], axis=1)
        assert len(rows) > 3 * (BUFFER_BYTES // (64 * x.shape[1]))
        pairs = [[np.sum((x[a] - x[b]) ** 2) for a, b in itertools.combinations(r, 2)]
                 for r in rows.tolist()]
        for variant in ALL_VARIANTS:
            if variant.kind == "random":
                expected = [p[np.random.default_rng([variant.seed, *r]).integers(len(p))]
                            for p, r in zip(pairs, rows.tolist())]
            else:
                expected = [getattr(np, variant.kind)(p) for p in pairs]
            got = variant_edge_smoothness(rows, x, variant)
            assert got.tobytes() == np.array(expected).tobytes(), variant.kind

    def test_random_scores_follow_their_rows(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 5))
        rows = np.array([c.nodes for c in generate_candidates(x, [4]).candidates])
        variant = SmoothnessVariant("random", seed=7)
        scores = variant_edge_smoothness(rows, x, variant)
        perm = rng.permutation(len(rows))
        assert np.array_equal(variant_edge_smoothness(rows[perm], x, variant), scores[perm])
        for i in (0, len(rows) - 1):
            assert variant_edge_smoothness(rows[i : i + 1], x, variant)[0] == scores[i]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        # The kernels trust their callers: the public entry points check.
        x = THREE_POINTS.copy()
        x[1, 0] = bad
        with pytest.raises(DomainError, match="NaN or Inf"):
            generate_candidates(x, [2])
        cs = generate_candidates(THREE_POINTS, [2])
        with pytest.raises(DomainError, match="NaN or Inf"):
            score_candidates(cs, x, MAX)
