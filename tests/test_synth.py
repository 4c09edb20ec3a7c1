"""Synthetic ground truth with controlled overlap, and its sampled features."""

import hashlib

import numpy as np
import pytest

from hyperinfer import (
    DomainError,
    InfeasibleError,
    OVERLAP_TOLERANCE,
    SmoothnessVariant,
    SynthConfig,
    build_hypergraph,
    generate_ground_truth,
    make_dataset,
    overlap_rate,
    variant_edge_smoothness,
)


class TestOverlapRate:
    def test_single_shared_node(self):
        h = build_hypergraph(5, [[0, 1, 2], [2, 3, 4]])
        per_edge, avg = overlap_rate(h)
        assert np.allclose(per_edge, [1.0 / 3.0, 1.0 / 3.0])
        assert avg == pytest.approx(1.0 / 3.0)

    def test_disjoint_edges(self):
        h = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        per_edge, avg = overlap_rate(h)
        assert np.all(per_edge == 0.0)
        assert avg == 0.0

    def test_fully_entangled_triangle(self):
        h = build_hypergraph(3, [[0, 1], [1, 2], [0, 2]])
        per_edge, _ = overlap_rate(h)
        assert np.all(per_edge == 1.0)

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(DomainError, match="no hyperedges"):
            overlap_rate(build_hypergraph(4, []))


class TestSynthConfig:
    def test_edge_spec_is_frozen_as_ints(self):
        cfg = SynthConfig(n=50, edge_spec={8: 3}, target_overlap=0.1)
        assert cfg.edge_spec == {8: 3}
        assert cfg.sigma == 1e-3
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "spec", [{}, {1: 3}, {8: 0}, {8: -1}]
    )
    def test_bad_edge_specs_rejected(self, spec):
        with pytest.raises(DomainError):
            SynthConfig(n=50, edge_spec=spec, target_overlap=0.1)

    @pytest.mark.parametrize("overlap", [-0.1, 1.0, 1.5])
    def test_overlap_outside_half_open_interval_rejected(self, overlap):
        with pytest.raises(DomainError):
            SynthConfig(n=50, edge_spec={8: 3}, target_overlap=overlap)

    def test_bad_sigma_and_dim_rejected(self):
        with pytest.raises(DomainError):
            SynthConfig(n=50, edge_spec={8: 3}, target_overlap=0.1, sigma=0.0)
        with pytest.raises(DomainError):
            SynthConfig(n=50, edge_spec={8: 3}, target_overlap=0.1, dim=0)


class TestGenerateGroundTruth:
    def test_zero_overlap_gives_disjoint_edges(self):
        cfg = SynthConfig(n=100, edge_spec={8: 12}, target_overlap=0.0)
        truth = generate_ground_truth(cfg)
        assert truth.m == 12
        assert all(len(e) == 8 for e in truth.edges)
        _, achieved = overlap_rate(truth)
        assert achieved == 0.0
        degree = np.zeros(100, dtype=int)
        for edge in truth.edges:
            for v in edge:
                degree[v] += 1
        assert degree.max() == 1

    def test_moderate_overlap_lands_inside_tolerance(self):
        cfg = SynthConfig(n=100, edge_spec={8: 12}, target_overlap=0.3)
        truth = generate_ground_truth(cfg)
        _, achieved = overlap_rate(truth)
        assert abs(achieved - 0.3) <= OVERLAP_TOLERANCE
        assert 0.25 <= achieved <= 0.35

    def test_mixed_sizes_hit_their_counts(self):
        cfg = SynthConfig(n=80, edge_spec={3: 4, 5: 3}, target_overlap=0.2, seed=5)
        truth = generate_ground_truth(cfg)
        by_size: dict[int, int] = {}
        for edge in truth.edges:
            by_size[len(edge)] = by_size.get(len(edge), 0) + 1
        assert by_size == {3: 4, 5: 3}

    def test_impossible_zero_overlap_is_infeasible(self):
        cfg = SynthConfig(n=10, edge_spec={8: 5}, target_overlap=0.0)
        with pytest.raises(InfeasibleError):
            generate_ground_truth(cfg)

    def test_edge_size_larger_than_node_count_is_infeasible(self):
        cfg = SynthConfig(n=5, edge_spec={8: 1}, target_overlap=0.0)
        with pytest.raises(InfeasibleError):
            generate_ground_truth(cfg)

    def test_fixed_seed_reproduces_the_same_truth(self):
        cfg = SynthConfig(n=60, edge_spec={6: 6}, target_overlap=0.25, seed=11)
        assert generate_ground_truth(cfg).edges == generate_ground_truth(cfg).edges

    def test_different_seeds_usually_differ(self):
        base = SynthConfig(n=60, edge_spec={6: 6}, target_overlap=0.25, seed=0)
        other = SynthConfig(n=60, edge_spec={6: 6}, target_overlap=0.25, seed=1)
        assert generate_ground_truth(base).edges != generate_ground_truth(other).edges

    # Recorded planter output. Together these configs take the donor path, the
    # lowest-degree fallback, duplicate retries and plants that get stuck, so
    # a change to any of them, or to the order of the RNG draws, shows here.
    # The mixed n=600 configs draw among many donors tied on burden.
    @pytest.mark.parametrize(
        "n, spec, target, seed, digest",
        [
            (100, {8: 12}, 0.3, 0, "4b9579d86ba3b44fdb25004e7de0b2321a1fd49772d89367964aa1d07089df8d"),
            (100, {8: 12}, 0.5, 2, "59271e688a4b64fd675aa5106393c15671eed43e52d8e658d5d03df719b1385e"),
            (100, {8: 12}, 0.0, 1, "bc75ed57c84ede3e5126b19293f16a0757c2c75d93764203b97e953730e2f57f"),
            (40, {3: 4, 5: 4}, 0.3, 0, "e97ad8c477405acc39d6b50275dd50217d1a300550c44fad69bf5049215e74ad"),
            (600, {3: 60, 8: 60}, 0.3, 0, "5a7349c8a8ca033b96e91551f0bc5e5bb7779ce50fafe96e701fa8cd4e0e8e81"),
            (600, {3: 60, 8: 60}, 0.5, 1, "df997885b32a32c5c76fedf84e97807179d4a70a9eadce2a6d9d0e52d85ffee0"),
        ],
    )
    def test_planted_edges_match_the_recorded_output(self, n, spec, target, seed, digest):
        cfg = SynthConfig(n=n, edge_spec=spec, target_overlap=target, seed=seed)
        edges = generate_ground_truth(cfg).edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    def test_failed_search_reports_the_recorded_closest_gap(self):
        cfg = SynthConfig(n=20, edge_spec={4: 10}, target_overlap=0.6, seed=0)
        with pytest.raises(InfeasibleError) as info:
            generate_ground_truth(cfg)
        assert str(info.value) == (
            "could not reach overlap 0.6 within 0.05 for n=20, edges {4: 10}; "
            "closest gap over 50 attempts was 0.400"
        )

    @pytest.mark.parametrize("target", [0.0, 0.1, 0.3, 0.5])
    def test_achieved_overlap_tracks_the_target(self, target):
        for seed in range(3):
            cfg = SynthConfig(
                n=100, edge_spec={8: 12}, target_overlap=target, seed=seed
            )
            _, achieved = overlap_rate(generate_ground_truth(cfg))
            assert abs(achieved - target) <= OVERLAP_TOLERANCE


class TestMakeDataset:
    def test_shapes_and_achieved_overlap(self):
        cfg = SynthConfig(n=40, edge_spec={4: 5}, target_overlap=0.1, dim=16, seed=2)
        ds = make_dataset(cfg)
        assert ds.x_nodes.shape == (40, 16)
        assert ds.x_edges.shape == (5, 16)
        assert ds.truth.m == 5
        _, achieved = overlap_rate(ds.truth)
        assert ds.achieved_overlap == achieved

    def test_bit_identical_reruns(self):
        cfg = SynthConfig(n=40, edge_spec={4: 5}, target_overlap=0.2, dim=8, seed=3)
        a = make_dataset(cfg)
        b = make_dataset(cfg)
        assert a.truth.edges == b.truth.edges
        assert np.array_equal(a.x_nodes, b.x_nodes)
        assert np.array_equal(a.x_edges, b.x_edges)

    def test_planted_edges_are_tighter_than_random_sets(self):
        # The sampled geometry has to reward the planted structure, otherwise
        # nothing downstream could recover it: true edges must show a smaller
        # spread score than random node sets of the same size.
        cfg = SynthConfig(n=100, edge_spec={8: 12}, target_overlap=0.1, dim=32, seed=4)
        ds = make_dataset(cfg)
        spread = SmoothnessVariant("max")
        truth_scores = variant_edge_smoothness(np.array(ds.truth.edges), ds.x_nodes, spread)
        rng = np.random.default_rng(99)
        random_rows = np.sort(
            [rng.choice(cfg.n, size=8, replace=False) for _ in range(200)], axis=1
        )
        random_scores = variant_edge_smoothness(random_rows, ds.x_nodes, spread)
        assert np.mean(truth_scores) < np.mean(random_scores)
