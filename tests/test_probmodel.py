"""Incidence-graph Laplacian, Gaussian sampler, and likelihood identities."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from conftest import hypergraphs, random_hypergraph
from hyperinfer import (
    DomainError,
    GaussianModelConfig,
    build_hypergraph,
    incidence_laplacian,
    incidence_matrix,
    sample_features,
)
from oracles import negative_log_likelihood, weighted_smoothness_ev


class TestIncidenceLaplacian:
    def test_single_unweighted_edge(self):
        lap = incidence_laplacian(build_hypergraph(2, [[0, 1]]))
        expected = np.array(
            [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]]
        )
        assert np.array_equal(lap.matrix, expected)
        assert lap.n == 2
        assert lap.m == 1
        assert lap.size == 3

    def test_weights_scale_the_blocks(self):
        lap = incidence_laplacian(build_hypergraph(2, [[0, 1]], weights=[0.5]))
        expected = np.array(
            [[0.5, 0.0, -0.5], [0.0, 0.5, -0.5], [-0.5, -0.5, 1.0]]
        )
        assert np.array_equal(lap.matrix, expected)

    def test_empty_hypergraph_gives_zero_matrix(self):
        lap = incidence_laplacian(build_hypergraph(3, []))
        assert lap.matrix.shape == (3, 3)
        assert np.all(lap.matrix == 0.0)

    @given(hypergraphs(weighted=True))
    def test_structural_invariants(self, h):
        lap = incidence_laplacian(h)
        mat = lap.matrix
        inc = incidence_matrix(h)
        assert mat.shape == (h.n + h.m, h.n + h.m)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.abs(mat.sum(axis=1)) <= 1e-9)
        # Off-diagonal corners are the negated incidence matrix and the two
        # diagonal blocks hold its row and column sums.
        assert np.array_equal(mat[: h.n, h.n :], -inc)
        assert np.array_equal(
            mat[: h.n, : h.n], np.diag(inc.sum(axis=1))
        )
        assert np.array_equal(
            mat[h.n :, h.n :], np.diag(inc.sum(axis=0))
        )
        assert np.linalg.eigvalsh(mat).min() >= -1e-8


class TestGaussianModelConfig:
    def test_defaults(self):
        cfg = GaussianModelConfig()
        assert cfg.sigma == 1e-3
        assert cfg.dim == 1000
        assert cfg.seed == 0

    # 1e300 squares to inf and 1e-200 to 0: the ridge sigma^2 must be positive and finite.
    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, -np.inf, np.nan, 1e300, 1e-200])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            GaussianModelConfig(sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="seed"):
            GaussianModelConfig(seed=seed)

    def test_dimension_must_be_positive(self):
        with pytest.raises(DomainError, match="dimension"):
            GaussianModelConfig(dim=0)


def dense_sample_features(lap, cfg):
    """Oracle: the original sampler, a dense Cholesky of the whole precision."""
    precision = lap.matrix + (cfg.sigma**2) * np.eye(lap.size)
    r = scipy.linalg.cholesky(precision, lower=False)
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((lap.size, cfg.dim))
    x = scipy.linalg.solve_triangular(r, z, lower=False)
    return x[: lap.n], x[lap.n :]


def small_edge_hypergraph(rng, n, m):
    """Random weighted edges of sizes 2-5 over n nodes: some nodes isolated, some in many edges."""
    edges = {tuple(sorted(rng.choice(n, size=int(rng.integers(2, 6)), replace=False)))
             for _ in range(m)}
    return build_hypergraph(n, sorted(edges), weights=rng.uniform(0.05, 1.0, len(edges)))


class TestSampleFeatures:
    def test_shapes_follow_the_hypergraph(self):
        h = build_hypergraph(5, [[0, 1], [2, 3, 4]])
        xv, xe = sample_features(
            incidence_laplacian(h), GaussianModelConfig(dim=7, seed=1)
        )
        assert xv.shape == (5, 7)
        assert xe.shape == (2, 7)

    def test_fixed_seed_is_deterministic(self):
        h = build_hypergraph(4, [[0, 1, 2]])
        cfg = GaussianModelConfig(dim=16, seed=42)
        lap = incidence_laplacian(h)
        a = sample_features(lap, cfg)
        b = sample_features(lap, cfg)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_the_draw(self):
        h = build_hypergraph(4, [[0, 1, 2]])
        lap = incidence_laplacian(h)
        a, _ = sample_features(lap, GaussianModelConfig(dim=16, seed=0))
        b, _ = sample_features(lap, GaussianModelConfig(dim=16, seed=1))
        assert not np.array_equal(a, b)

    def test_isolated_node_is_a_wide_scalar_gaussian(self):
        # With no edges the precision collapses to sigma^2, so each entry has
        # variance 1 / sigma^2.
        lap = incidence_laplacian(build_hypergraph(1, []))
        sigma = 1e-3
        xv, xe = sample_features(
            lap, GaussianModelConfig(sigma=sigma, dim=20000, seed=9)
        )
        assert xv.shape == (1, 20000)
        assert xe.shape == (0, 20000)
        target = 1.0 / sigma**2
        assert abs(xv.var() - target) <= 0.05 * target
        assert abs(xv.mean()) <= 3.0 * math.sqrt(target / 20000)


    def test_matches_the_dense_cholesky_oracle(self):
        rng = np.random.default_rng(12)
        cases = [build_hypergraph(4, []), build_hypergraph(6, [[0, 1, 2], [2, 3]])]
        cases += [small_edge_hypergraph(rng, int(rng.integers(5, 41)), int(rng.integers(1, 16)))
                  for _ in range(40)]
        isolated = crowded = 0
        for i, h in enumerate(cases):
            degree = np.bincount([v for e in h.edges for v in e], minlength=h.n)
            isolated += bool(np.any(degree == 0))
            crowded += bool(np.any(degree >= 3))
            lap = incidence_laplacian(h)
            cfg = GaussianModelConfig(sigma=[1e-3, 0.1, 1.0][i % 3], dim=5, seed=i)
            got, want = sample_features(lap, cfg), dense_sample_features(lap, cfg)
            scale = max(np.abs(w).max(initial=0.0) for w in want)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.abs(g - w).max(initial=0.0) <= 1e-9 * scale
        assert isolated >= 5 and crowded >= 5

    def test_feature_matrix_too_large_to_index_is_refused_before_any_draw(self):
        # 5 x 2**62 float64 entries hold 5 * 2**65 bytes, past the np.intp maximum;
        # numpy would fail with "array is too big".
        lap = incidence_laplacian(build_hypergraph(4, [[0, 1, 2]]))
        with pytest.raises(DomainError, match=r"shape \(5, 4611686018427387904\) is too large"):
            sample_features(lap, GaussianModelConfig(dim=2**62))

    def test_failed_factorisation_is_a_domain_error(self):
        # sigma^2 = 1e-18 vanishes next to the unit degrees, so the precision
        # of a single edge is singular in floating point.
        lap = incidence_laplacian(build_hypergraph(2, [[0, 1]]))
        with pytest.raises(DomainError, match="not positive definite"):
            sample_features(lap, GaussianModelConfig(sigma=1e-9, dim=2))

    def test_memory_stays_below_one_dense_precision(self):
        # Half of one (n+m)^2 float64 array: the sampler must never form it.
        n, m = 2000, 200
        rng = np.random.default_rng(3)
        edges = {tuple(sorted(rng.choice(n, size=8, replace=False))) for _ in range(m)}
        h = build_hypergraph(n, sorted(edges))
        tracemalloc.start()
        try:
            sample_features(incidence_laplacian(h), GaussianModelConfig(dim=8, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + m) ** 2 / 2

    def test_schur_complement_is_factored_in_its_own_buffer(self):
        # S is built in the product's m x m buffer and LAPACK factors it in
        # place; check_finite's mask adds m^2 bytes. Holding S and a Cholesky
        # copy peaked at about 2.15 * 8 m^2 here, the one buffer at 1.16 * 8 m^2.
        n, d = 3000, 2
        rng = np.random.default_rng(3)
        edges = {tuple(sorted(rng.choice(n, size=8, replace=False))) for _ in range(1200)}
        h = build_hypergraph(n, sorted(edges))
        lap = incidence_laplacian(h)
        tracemalloc.start()
        try:
            sample_features(lap, GaussianModelConfig(dim=d, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * h.m**2 + 4 * 8 * (n + h.m) * d


class TestNegativeLogLikelihood:
    def test_constant_features_score_zero(self):
        h = build_hypergraph(3, [[0, 1], [1, 2]])
        lap = incidence_laplacian(h)
        xv = np.full((3, 4), 2.0)
        xe = np.full((2, 4), 2.0)
        assert negative_log_likelihood(lap, xv, xe) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_matches_hand_value(self):
        lap = incidence_laplacian(build_hypergraph(2, [[0, 1]]))
        got = negative_log_likelihood(
            lap, np.array([[1.0], [-1.0]]), np.array([[0.0]])
        )
        assert got == 2.0

    def test_scaling_features_scales_quadratically(self):
        rng = np.random.default_rng(23)
        h = random_hypergraph(rng, weighted=True)
        lap = incidence_laplacian(h)
        xv = rng.normal(size=(h.n, 3))
        xe = rng.normal(size=(h.m, 3))
        base = negative_log_likelihood(lap, xv, xe)
        scaled = negative_log_likelihood(lap, 3.0 * xv, 3.0 * xe)
        assert math.isclose(scaled, 9.0 * base, rel_tol=1e-10)

    def test_equals_weighted_smoothness(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = random_hypergraph(rng, weighted=True)
            lap = incidence_laplacian(h)
            xv = rng.normal(size=(h.n, 4))
            xe = rng.normal(size=(h.m, 4))
            quad = negative_log_likelihood(lap, xv, xe)
            direct = weighted_smoothness_ev(h.weights, h, xv, xe)
            assert math.isclose(quad, direct, rel_tol=1e-10)

    def test_is_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            h = random_hypergraph(rng)
            lap = incidence_laplacian(h)
            xv = rng.normal(size=(h.n, 2))
            xe = rng.normal(size=(h.m, 2))
            assert negative_log_likelihood(lap, xv, xe) >= -1e-9

    def test_row_count_mismatches_rejected(self):
        lap = incidence_laplacian(build_hypergraph(2, [[0, 1]]))
        with pytest.raises(DomainError, match="node feature rows"):
            negative_log_likelihood(lap, np.zeros((3, 2)), np.zeros((1, 2)))
        with pytest.raises(DomainError, match="edge feature rows"):
            negative_log_likelihood(lap, np.zeros((2, 2)), np.zeros((2, 2)))
