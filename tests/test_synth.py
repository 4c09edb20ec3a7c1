"""Synthetic ground truth with controlled overlap, and its sampled features."""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from conftest import hypergraphs
from hyperinfer import (
    DomainError,
    InfeasibleError,
    SmoothnessVariant,
    SynthConfig,
    build_hypergraph,
    make_dataset,
)
from hyperinfer import synth
from hyperinfer.smoothness import variant_edge_smoothness
from hyperinfer.synth import (
    OVERLAP_TOLERANCE,
    _RATE_MARGIN,
    _distinct_edges,
    _draw_fresh,
    _edge_draws,
    _plant,
    _trial_counts,
    generate_ground_truth,
    overlap_rate,
)


def _planted_lams(monkeypatch) -> list:
    """The lam of every ``synth._plant`` call from here on, in call order."""
    lams = []
    plant = synth._plant

    def recording(n, sizes, lam, draws):
        lams.append(lam)
        return plant(n, sizes, lam, draws)

    monkeypatch.setattr(synth, "_plant", recording)
    return lams


class _CountingGenerator:
    """A numpy Generator that records how many values each integers or permutation draw returns."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts
        self.bit_generator = rng.bit_generator

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self._counts.append(np.size(out))
        return out

    def permutation(self, x):
        out = self._rng.permutation(x)
        self._counts.append(len(out))
        return out


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

    def test_declared_node_count_does_not_size_the_count(self):
        # Degrees are counted over the nodes the edges hold: a bincount over
        # the declared n asked numpy for 2**63 - 1 counters and raised.
        small = overlap_rate(build_hypergraph(3, [[0, 1], [1, 2]]))
        huge = overlap_rate(build_hypergraph(2**63 - 1, [[0, 1], [1, 2]]))
        assert small[0].tolist() == huge[0].tolist() == [0.5, 0.5]
        assert small[1] == huge[1] == 0.5

    def test_empty_hypergraph_rejected(self):
        with pytest.raises(DomainError, match="no hyperedges"):
            overlap_rate(build_hypergraph(4, []))

    @given(hypergraphs(max_n=12, max_edges=8))
    def test_matches_a_plain_count(self, h):
        membership = [sum(v in e for e in h.edges) for v in range(h.n)]
        expected = [sum(membership[v] >= 2 for v in e) / len(e) for e in h.edges]
        per_edge, avg = overlap_rate(h)
        assert per_edge.tolist() == expected
        assert avg == float(np.mean(expected))


class TestSynthConfig:
    def test_edge_spec_is_frozen_as_ints(self):
        cfg = SynthConfig(n=50, edge_spec={8: 3}, target_overlap=0.1)
        assert cfg.edge_spec == {8: 3}
        assert cfg.sigma == 1e-3
        assert cfg.seed == 0

    def test_equal_specs_in_any_order_hash_and_compare_equal(self):
        a = SynthConfig(100, {8: 12, 3: 4}, 0.3)
        b = SynthConfig(100, {3: 4, 8: 12}, 0.3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert list(a.edge_spec.items()) == [(3, 4), (8, 12)]
        assert hash(SynthConfig(100, {8: 12}, 0.3)) != hash(SynthConfig(100, {8: 11}, 0.3))

    def test_edge_spec_is_read_only(self):
        cfg = SynthConfig(100, {8: 12}, 0.3)
        with pytest.raises(TypeError):
            cfg.edge_spec[3] = 99
        assert cfg.edge_spec == {8: 12}

    def test_pickle_and_deepcopy_round_trip(self):
        cfg = SynthConfig(100, {8: 12, 3: 4}, 0.3, sigma=0.01, dim=16, seed=5)
        for copied in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert copied == cfg and hash(copied) == hash(cfg)
            assert list(copied.edge_spec.items()) == [(3, 4), (8, 12)]

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

    def test_more_edges_than_distinct_node_sets_fail_before_planting(self, monkeypatch):
        # Only C(10, 8) = 45 size-8 edges exist on 10 nodes. The search once
        # bisected for seconds before it gave up with an infinite gap.
        def no_per_edge_state(*args):
            raise AssertionError("per-edge state was built")

        monkeypatch.setattr(synth, "_edge_draws", no_per_edge_state)
        cfg = SynthConfig(n=10, edge_spec={3: 2, 8: 50}, target_overlap=0.3)
        with pytest.raises(
            InfeasibleError,
            match=r"^cannot plant 50 distinct hyperedges of size 8: 10 nodes hold only 45$",
        ):
            generate_ground_truth(cfg)

    def test_distinct_edge_count_stops_once_it_passes_the_count(self):
        for n in range(2, 30):
            for k in range(2, n + 1):
                for count in (1, 2, 45, 46, 10**6, 2**63 - 1):
                    got, full = _distinct_edges(n, k, count), math.comb(n, k)
                    assert got == full if full < count else full >= got >= count
        # C(2**62, 2**61) has about 2**62 bits; its first 64 factors pass any count.
        assert _distinct_edges(2**62, 2**61, 2**63 - 1) >= 2**63 - 1

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
    # The mixed n=600 configs draw among many donors tied on burden; the n=3000
    # configs are the synth-mixed benchmark workload's, and each plants one
    # trial, lam = 0.125. At overlap 0.5, (600, {3: 60, 8: 60}, seed 1) and
    # (1000, {4: 100, 8: 100}, seed 0) plant a first trial that overshoots.
    # The n=100 {8: 13} config's sizes exceed n, so its zero-sharing trial
    # must share, and is accepted at target 0.05. The n=10000 config is the
    # north-star scale.
    @pytest.mark.parametrize(
        "n, spec, target, seed, digest",
        [
            (100, {8: 12}, 0.3, 0, "63576ecbeaad6abcacb4e765cd927205c43c1d8a0638cb9b56a122028fdf68c3"),
            (100, {8: 12}, 0.5, 2, "d7c7628f9f1bcd999e7e33b3c216907615406786f1828b94495f0eff5061f425"),
            (100, {8: 12}, 0.0, 1, "ffdc67ba7c1da6165b04ea9e67221b93fcad5e17d6933b2b264bd6886a481df7"),
            (40, {3: 4, 5: 4}, 0.3, 0, "d800830a2ec80711f1c0dd97f7a09cc3e80da9f7048eafc48bd4f3e4835b0535"),
            (600, {3: 60, 8: 60}, 0.3, 0, "ced1478778e6c7b6f42b35f6f1a5c2a63db6582904e9c6de7296ac97d5039a1f"),
            (600, {3: 60, 8: 60}, 0.5, 1, "eb8e2f95278385ed1b96312b7c5639e35428ef43cf22ee9bb1740019552ffe58"),
            (3000, {3: 300, 8: 300}, 0.3, 0, "6c431110e1c722be6c9183d8652eae8ceaa75872458e2809a3eec6bd3f56700c"),
            (1000, {4: 100, 8: 100}, 0.5, 0, "85ca498aa3010701d20d81319e6b4ad15b068a295838d5d085fa92d996b7125f"),
            (3000, {3: 300, 8: 300}, 0.3, 1, "586168a1eb0d10a6175d0354d48e61c41023527b99a05b26751d682272054b3f"),
            (100, {8: 13}, 0.05, 0, "b087e26b61f856dbbe94f260388d2cff5e74e836a002ba7a0e86661b16d91283"),
            (200, {4: 30, 6: 20}, 0.3, 2, "43535d088f772107dd435bd88117c4f93f359b4e975f47e0da731ca09b9b869d"),
            (10000, {8: 1000}, 0.3, 0, "651820f96839e2fdd64e5ad8c45a059c8dfe8a1e7d9b9bb157a4fdd712bd3790"),
        ],
    )
    def test_planted_edges_match_the_recorded_output(self, n, spec, target, seed, digest):
        cfg = SynthConfig(n=n, edge_spec=spec, target_overlap=target, seed=seed)
        edges = generate_ground_truth(cfg).edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    # Recorded sampler output: the exact bits of both feature blocks, so a
    # change in how the Schur complement or its factor is summed shows here.
    @pytest.mark.parametrize(
        "n, spec, dim, seed, digest",
        [
            (100, {8: 12}, 64, 0, "d12f9826f4a0a4bf4e30874e4f4f06963eaac20cce14afc22d5fe2ede8146f02"),
            (300, {3: 30, 8: 30}, 32, 1, "9f70aca893431fd22cf3f0942df8ffc3e4d0872b9ab2612c78152391ec12035d"),
        ],
    )
    def test_sampled_features_match_the_recorded_output(self, n, spec, dim, seed, digest):
        cfg = SynthConfig(n=n, edge_spec=spec, target_overlap=0.3, dim=dim, seed=seed)
        ds = make_dataset(cfg)
        blob = ds.x_nodes.tobytes() + ds.x_edges.tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_failed_search_reports_the_recorded_closest_gap(self):
        cfg = SynthConfig(n=20, edge_spec={4: 10}, target_overlap=0.6, seed=0)
        with pytest.raises(InfeasibleError) as info:
            generate_ground_truth(cfg)
        assert str(info.value) == (
            "could not reach overlap 0.6 within 0.05 for n=20, edges {4: 10}; "
            "closest gap over 50 attempts was 0.400"
        )

    def test_each_edge_is_seeded_once_per_attempt(self, monkeypatch):
        # Trial plants restart each edge's generator from a saved state; seeding
        # it again per trial would cost far more than the draws it makes.
        seeds = []
        seed_generator = np.random.default_rng

        def counting(seed):
            seeds.append(tuple(seed))
            return seed_generator(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        generate_ground_truth(SynthConfig(n=100, edge_spec={8: 12}, target_overlap=0.3, seed=0))
        attempts = {key[:-1] for key in seeds}
        assert seeds and len(seeds) <= 12 * len(attempts)
        assert len(set(seeds)) == len(seeds)

    # Recorded planter output at the paper point over seeds 0-4: its
    # zero-sharing trial is skipped, and each config plants one trial.
    @pytest.mark.parametrize(
        "target, digest",
        [
            (0.1, "ede020add6c112c90d356d0aef07d169bfd5b71303f40cce4f6fcb3f8098b95c"),
            (0.3, "e7d92bcd4fe5bb19ed76d3a0d74f416c87d778839f21c4a2acda10531b821907"),
            (0.5, "b16cfa6e438e98031ed3298fd9d97b6a63de56e6604932dafd1d413926690891"),
        ],
    )
    def test_paper_point_truth_matches_the_recorded_output(self, target, digest):
        edges = [
            generate_ground_truth(SynthConfig(100, {8: 12}, target, seed=seed)).edges
            for seed in range(5)
        ]
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    def test_a_failed_search_with_stopped_trials_reports_the_exact_gap(self):
        # The target is within the tolerance of 0, so each attempt plants its
        # zero-sharing trial; every attempt bisects to the end, and over a
        # thousand trials are skipped from their counts with only a gap floor
        # (their plants can get stuck), so the closest gap needs full replants.
        # The spec is named in size order, however it was given.
        for spec in ({3: 10, 5: 8}, {5: 8, 3: 10}):
            cfg = SynthConfig(n=60, edge_spec=spec, target_overlap=0.05, seed=0)
            with pytest.raises(InfeasibleError) as info:
                generate_ground_truth(cfg)
            assert str(info.value) == (
                "could not reach overlap 0.05 within 0.05 for n=60, edges {3: 10, 5: 8}; "
                "closest gap over 50 attempts was 0.217"
            )

    @pytest.mark.parametrize(
        "n, spec, target, zero_planted",
        [
            (100, {8: 12}, 0.3, False),
            (100, {8: 12}, 0.05, True),
            (100, {8: 12}, 0.0, True),
            (100, {8: 13}, 0.3, False),
        ],
    )
    def test_a_zero_sharing_trial_is_planted_only_when_its_counts_leave_the_verdict_open(
        self, monkeypatch, n, spec, target, zero_planted
    ):
        # {8: 12} in 100 nodes: every edge is fresh at lam=0, so the counts give
        # rate 0, an undershoot above the tolerance. {8: 13}: the last edge
        # shares 4 nodes, rate 8/104 < 0.25, and no edge shares all its nodes,
        # so none can get stuck. At targets within the tolerance of 0 the
        # counts cannot rule out acceptance, so the trial is planted.
        lams = _planted_lams(monkeypatch)
        generate_ground_truth(SynthConfig(n, spec, target, seed=0))
        assert (0.0 in lams) == zero_planted

    def test_only_trials_the_counts_leave_open_are_planted(self, monkeypatch):
        # A count of work, not a timing: the paper grid planted 71 trials over
        # its 15 configs before trials were decided from their counts, and the
        # synth-mixed config planted lam = 0, 1, 0.5, 0.25 and 0.125.
        lams = _planted_lams(monkeypatch)
        for target in (0.1, 0.3, 0.5):
            for seed in range(5):
                lams.clear()
                generate_ground_truth(SynthConfig(100, {8: 12}, target, seed=seed))
                assert len(lams) == 1, (target, seed, lams)
        lams.clear()
        generate_ground_truth(SynthConfig(3000, {3: 300, 8: 300}, 0.3, seed=0))
        assert lams == [0.125]

    def test_skipped_trials_draw_fewer_fresh_nodes(self, monkeypatch):
        # A count of work, not a timing: 240 _draw_fresh calls when every
        # trial was planted, 60 since trials the counts decide are skipped.
        calls = []
        draw_fresh = synth._draw_fresh

        def counting(*args):
            calls.append(args)
            return draw_fresh(*args)

        monkeypatch.setattr(synth, "_draw_fresh", counting)
        generate_ground_truth(SynthConfig(300, {3: 30, 8: 30}, 0.3, seed=1))
        assert len(calls) <= 60

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(8, 80),
        st.lists(st.integers(2, 6), min_size=1, max_size=30),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_the_counts_bound_the_rate_of_a_full_plant(self, n, sizes, lam, seed):
        sizes = sorted(sizes)
        draws = _edge_draws((seed, 1, 0), len(sizes))
        low, high, stick = _trial_counts(n, sizes, lam, draws)
        plant = _plant(n, sizes, lam, draws)
        if plant is None:
            assert stick
            return
        # The counts sum the shares in another order than the plant's mean,
        # so the rates agree to a few ulps (at most 4.4e-16 over 2,963 plants).
        edges, rate = plant
        assert rate == overlap_rate(build_hypergraph(n, edges))[1]
        assert low - _RATE_MARGIN <= rate <= high + _RATE_MARGIN
        if sizes[0] == sizes[-1]:
            assert low == high
            assert abs(rate - low) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.6])
    def test_a_trial_plant_measures_its_own_overlap_rate(self, lam):
        sizes = [3] * 8 + [5] * 8
        plant = _plant(60, sizes, lam, _edge_draws((4, 1, 0), len(sizes)))
        assert plant is not None
        edges, achieved = plant
        assert achieved == overlap_rate(build_hypergraph(60, edges))[1]

    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.5])
    def test_a_plant_draws_o_k_values_per_edge(self, lam):
        # Every draw is sized by an edge (its fresh nodes, a donor's exclusive
        # nodes, one donor index), never by the n uncovered nodes, so a plant
        # stays O(sum of k) however large n grows.
        sizes = [8] * 1000
        counts: list[int] = []
        draws = [
            (u, _CountingGenerator(rng, counts), state)
            for u, rng, state in _edge_draws((0, 1, 0), len(sizes))
        ]
        assert _plant(10_000, sizes, lam, draws) is not None
        assert max(counts) <= 8
        assert sum(counts) <= 3 * sum(sizes)

    @pytest.mark.parametrize("count", [1, 3])
    def test_fresh_draw_is_uniform_over_the_live_nodes(self, count):
        # Ten nodes in scrambled order, the last three already taken: each of
        # the seven live nodes must be picked count/7 of the time, and none of
        # the taken ones ever. A draw that can never reach the last live entry
        # leaves that node short by far more than the test's tolerance.
        rng = np.random.default_rng(7)
        start = [4, 9, 0, 7, 2, 5, 8, 1, 6, 3]
        live, reps = 7, 7000
        hits = np.zeros(10, dtype=int)
        for _ in range(reps):
            pool = list(start)
            fresh = _draw_fresh(pool, live, count, rng)
            assert sorted(pool[: live - count] + fresh) == sorted(start[:live])
            assert pool[live:] == start[live:]
            hits[fresh] += 1
        assert hits[start[live:]].sum() == 0
        observed = hits[start[:live]]
        assert chisquare(observed).pvalue > 1e-3

    @pytest.mark.parametrize("live", [9, 3000, 2**33 + 5])
    def test_fresh_picks_equal_one_draw_with_an_array_of_bounds(self, live):
        # One scalar draw per pick gives the picks and the generator state that
        # rng.integers(0, [live, live - 1, ...]) gave, so no plant moves. Bounds
        # below 2**32 draw 32-bit halves: the "cached" generators start with one
        # half cached. The largest bound draws 64-bit words.
        class Identity(dict):  # a pool of any length that holds node i at i
            def __missing__(self, key):
                return key

        for seed in range(20):
            for cached in (False, True):
                for count in range(9):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    if cached:
                        rng.integers(5), ref.integers(5)
                        assert ref.bit_generator.state["has_uint32"] == 1
                    picks = ref.integers(0, np.arange(live, live - count, -1)).tolist()
                    pool, expected = Identity(), []
                    for last, pick in zip(range(live - 1, -1, -1), picks):
                        expected.append(pool[pick])
                        pool[pick], pool[last] = pool[last], pool[pick]
                    drawn = Identity()
                    assert _draw_fresh(drawn, live, count, rng) == expected
                    assert drawn == pool
                    assert rng.bit_generator.state == ref.bit_generator.state

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
