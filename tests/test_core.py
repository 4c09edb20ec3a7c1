"""Hypergraph construction, incidence matrices, feature validation, and the root API."""

import importlib
import inspect
import pkgutil
import re
import types
import typing
import warnings
from itertools import chain

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given

from conftest import feature_matrices, hypergraphs
import hyperinfer
from hyperinfer import (
    CandidateSet,
    DomainError,
    GaussianModelConfig,
    PerSize,
    SmoothnessVariant,
    SynthConfig,
    TopM,
    build_hypergraph,
    generate_candidates,
    incidence_matrix,
    infer_hypergraph,
    normalize_features,
    run_sweep,
    select_edges,
)
from hyperinfer.core import INTP_MAX, as_features, incidence, keyed_rng, whole
from hyperinfer.io import read_hypergraph, write_hypergraph


class TestBuildHypergraph:
    def test_single_edge(self):
        h = build_hypergraph(3, [[0, 1, 2]])
        assert h.n == 3
        assert h.m == 1
        assert h.edges == ((0, 1, 2),)
        assert h.weights is None

    def test_edges_stored_sorted(self):
        h = build_hypergraph(5, [[3, 1], [4, 0, 2]])
        assert h.edges == ((1, 3), (0, 2, 4))

    def test_duplicate_after_sorting_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            build_hypergraph(2, [[0, 1], [1, 0]])

    def test_node_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="out of range"):
            build_hypergraph(2, [[0, 2]])

    def test_singleton_edge_rejected(self):
        with pytest.raises(DomainError, match="too small"):
            build_hypergraph(3, [[1]])

    def test_repeated_node_within_edge_rejected(self):
        with pytest.raises(DomainError, match="too small"):
            build_hypergraph(3, [[1, 1]])

    def test_node_repeated_within_a_larger_edge_rejected(self):
        with pytest.raises(DomainError, match=r"hyperedge \(0, 0, 1\) repeats a node id"):
            build_hypergraph(3, [[0, 0, 1]])

    def test_nonpositive_node_count_rejected(self):
        with pytest.raises(DomainError, match=r"node count n must be an integer in \[1, .*got 0"):
            build_hypergraph(0, [])

    def test_empty_edge_list_allowed(self):
        h = build_hypergraph(4, [])
        assert h.m == 0
        assert h.edges == ()

    def test_weight_count_must_match(self):
        with pytest.raises(DomainError):
            build_hypergraph(3, [[0, 1]], weights=[0.5, 0.5])

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.5])
    def test_weight_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DomainError, match="weight"):
            build_hypergraph(3, [[0, 1]], weights=[bad])

    @pytest.mark.parametrize(
        "n, edges, weights, match",
        [
            (3, [[0, 1.7]], None, r"hyperedge \(0, 1.7\) has a node id that is not an integer"),
            (3, [[True, 2]], None, r"hyperedge \(True, 2\) has a node id that is not an integer"),
            (3.9, [[0, 1]], None, "node count n must be an integer .* got 3.9"),
            (2**63, [[0, 1]], None, r"node count n .* 9223372036854775807\], got 9223372036854775808"),
            (3, [[0, 1]], ["0.5"], "edge weight '0.5' is not a number"),
            (3, [[0, 1]], [True], "edge weight True is not a number"),
        ],
        ids=["float-id", "bool-id", "float-n", "n-beyond-intp", "string-weight", "bool-weight"],
    )
    def test_only_whole_ids_and_n_and_numeric_weights_pass(self, n, edges, weights, match):
        with pytest.raises(DomainError, match=match):
            build_hypergraph(n, edges, weights=weights)

    def test_numpy_scalars_come_out_as_python_numbers(self, tmp_path):
        h = build_hypergraph(
            np.int64(4), [np.array([2, 0]), [np.int32(1), 3]], weights=np.array([0.5, 1.0])
        )
        assert h == build_hypergraph(4, [[0, 2], [1, 3]], weights=[0.5, 1.0])
        assert {type(v) for v in (h.n, *chain(*h.edges))} == {int}
        assert {type(w) for w in h.weights} == {float}
        write_hypergraph(tmp_path / "h.json", h)
        assert read_hypergraph(tmp_path / "h.json") == h

    @given(hypergraphs(weighted=True))
    def test_edges_always_sorted_distinct_in_range(self, h):
        seen = set()
        for edge in h.edges:
            assert list(edge) == sorted(set(edge))
            assert len(edge) >= 2
            assert 0 <= edge[0] and edge[-1] < h.n
            assert edge not in seen
            seen.add(edge)
        assert len(h.weights) == h.m
        for w in h.weights:
            assert 0.0 < w <= 1.0


def _scored_pool():
    return infer_hypergraph(np.array([[0.0], [1.0], [10.0], [11.0]]), [2], TopM(1))[0]


# Each call puts a float or a bool where an integer belongs. Every one of them
# was once truncated, accepted or left to fail with a TypeError further in.
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: generate_candidates(np.eye(4), [2.9]), "hyperedge size .* got 2.9"),
        (lambda: select_edges(_scored_pool(), PerSize({2: 2.7})), r"PerSize\(counts=\{2: 2.7\}"),
        (lambda: select_edges(_scored_pool(), TopM(2.7)), r"TopM\(m=2.7\)"),
        (lambda: SynthConfig(40, {3.9: 2.5}, 0.0), "hyperedge size .* got 3.9"),
        (lambda: SynthConfig(40, {3: 2.5}, 0.0), "edge count for size 3 .* got 2.5"),
        (lambda: SynthConfig(40.5, {3: 2}, 0.0), "node count n .* got 40.5"),
        (lambda: GaussianModelConfig(dim=2.5), "dim must be an integer"),
        (lambda: CandidateSet(n=3.5, nodes=[[0, 1]], anchors=[0]), "node count n .* got 3.5"),
        (lambda: CandidateSet(n=3, nodes=[[0.0, 1.7]], anchors=[0]), "nodes, anchors .* float64"),
        (lambda: run_sweep("overlap", [0.1], 1.5), "reps must be an integer"),
        (lambda: SmoothnessVariant("random", seed=True), "seed must be .* got True"),
    ],
    ids=[
        "sizes", "per-size-count", "top-m", "synth-size", "synth-count", "synth-n", "model-dim",
        "pool-n", "pool-nodes", "sweep-reps", "variant-seed",
    ],
)
def test_integer_parameters_take_whole_numbers_only(call, match):
    with pytest.raises(DomainError, match=match):
        call()


# Every scalar integer parameter, its name in the message and its lowest value.
INTEGER_SITES = {
    "hypergraph-n": (lambda v: build_hypergraph(v, []), "node count n", 1),
    "pool-n": (lambda v: CandidateSet(n=v, nodes=[[0, 1]], anchors=[0]), "node count n", 1),
    "synth-n": (lambda v: SynthConfig(v, {2: 1}, 0.0), "node count n", 1),
    "sizes": (lambda v: generate_candidates(np.eye(4), [v]), "hyperedge size", 2),
    "synth-size": (lambda v: SynthConfig(40, {v: 1}, 0.0), "hyperedge size", 2),
    "synth-count": (lambda v: SynthConfig(40, {3: v}, 0.0), "edge count for size 3", 1),
    "model-dim": (lambda v: GaussianModelConfig(dim=v), "feature dimension dim", 1),
    "model-seed": (lambda v: GaussianModelConfig(seed=v), "seed", 0),
    "synth-seed": (lambda v: SynthConfig(40, {3: 1}, 0.0, seed=v), "seed", 0),
    "variant-seed": (lambda v: SmoothnessVariant("random", seed=v), "seed", 0),
    # No grid values: a reps the rule let through fails at once, not after 2**63 runs.
    "sweep-reps": (lambda v: run_sweep("overlap", [], v), "reps", 1),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
@pytest.mark.parametrize("bad", ["below", "float", "bool", "beyond-intp"])
def test_each_integer_parameter_passes_the_one_rule(site, bad):
    call, name, low = INTEGER_SITES[site]
    value = {"below": low - 1, "float": float(low), "bool": True, "beyond-intp": INTP_MAX + 1}[bad]
    message = f"{name} must be an integer in [{low}, {INTP_MAX}], got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


def test_integer_parameters_are_held_as_python_ints():
    assert INTP_MAX == np.iinfo(np.intp).max
    assert whole(np.uint64(INTP_MAX), "x", 0) == INTP_MAX
    with pytest.raises(DomainError, match="x must be an integer"):
        whole(np.uint64(INTP_MAX + 1), "x", 0)
    synth = SynthConfig(
        np.int64(40), {np.int32(3): np.uint8(2)}, 0.0, dim=np.int16(4), seed=np.uint64(7)
    )
    model = GaussianModelConfig(dim=np.int8(3), seed=np.int64(5))
    variant = SmoothnessVariant("random", seed=np.uint16(9))
    pool = CandidateSet(n=np.int32(3), nodes=[[0, 1]], anchors=[0])
    held = [synth.n, *synth.edge_spec.items(), synth.dim, synth.seed]
    held += [model.dim, model.seed, variant.seed, pool.n]
    assert held == [40, (3, 2), 4, 7, 3, 5, 9, 3]
    assert {type(v) for v in held} == {int, tuple}
    assert {type(v) for v in chain(*synth.edge_spec.items())} == {int}


# Each call puts a bool, a string or None where a real number belongs; the
# first three were once read as 1.0, 0.001 and 0.0.
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SynthConfig(40, {3: 2}, 0.0, sigma=True), "sigma must be a real number, got True"),
        (lambda: GaussianModelConfig(sigma="1e-3"), "sigma must be a real number, got '1e-3'"),
        (lambda: SynthConfig(40, {3: 2}, False), "target overlap must be a real number"),
        (lambda: SynthConfig(40, {3: 2}, None), "target overlap must be a real number"),
    ],
    ids=["synth-sigma", "model-sigma", "synth-overlap-bool", "synth-overlap-none"],
)
def test_real_parameters_take_numbers_only(call, match):
    with pytest.raises(DomainError, match=match):
        call()


class TestIncidenceMatrix:
    # Every case runs through the sparse builder and its dense form alike.
    def test_two_overlapping_edges(self):
        h = build_hypergraph(3, [[0, 1], [1, 2]])
        expected = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(incidence_matrix(h), expected)
        assert np.array_equal(incidence(h).toarray(), expected)

    def test_weights_fill_member_rows(self):
        h = build_hypergraph(2, [[0, 1]], weights=[0.5])
        assert np.array_equal(incidence_matrix(h), np.array([[0.5], [0.5]]))
        assert incidence(h).data.tolist() == [0.5, 0.5]

    def test_empty_hypergraph_gives_n_by_zero(self):
        h = build_hypergraph(3, [])
        assert incidence_matrix(h).shape == (3, 0)
        inc = incidence(h)
        assert inc.shape == (3, 0) and inc.nnz == 0
        assert inc.indptr.tolist() == [0]

    @given(hypergraphs(weighted=True))
    def test_column_support_matches_edges(self, h):
        inc = incidence_matrix(h)
        assert inc.shape == (h.n, h.m)
        for j, edge in enumerate(h.edges):
            support = np.nonzero(inc[:, j])[0]
            assert tuple(support.tolist()) == edge
            assert np.allclose(inc[list(edge), j], h.weights[j])

    @given(hypergraphs(weighted=True))
    def test_sparse_layout_is_the_flattened_edges(self, h):
        inc = incidence(h)
        assert isinstance(inc, scipy.sparse.csc_matrix)
        assert inc.shape == (h.n, h.m)
        assert inc.indices.tolist() == [v for edge in h.edges for v in edge]
        assert np.diff(inc.indptr).tolist() == [len(edge) for edge in h.edges]
        assert inc.data.tolist() == [w for edge, w in zip(h.edges, h.weights) for _ in edge]


class TestSelectionSpecs:
    def test_topm_holds_the_count(self):
        assert TopM(3).m == 3

    def test_persize_counts_are_readable(self):
        spec = PerSize({3: 2, 8: 1})
        assert spec.counts[3] == 2
        assert spec.counts[8] == 1


class TestAsFeatures:
    def test_accepts_lists(self):
        x = as_features([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2)
        assert x.dtype == np.float64

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(DomainError, match="2-D"):
            as_features([1.0, 2.0])

    def test_rejects_empty_matrix(self):
        with pytest.raises(DomainError, match="non-empty"):
            as_features(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError, match="NaN or Inf"):
            as_features([[1.0, bad]])


class TestKeyedRng:
    # Seeds of one, two and four 32-bit words, on either side of each word
    # boundary, and an index that needs a second word.
    SEEDS = [0, 5, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 3, 10**30]
    INDICES = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_the_stream_of_the_int_list(self, seed):
        for key in [(seed,), (seed, 1), *((seed, 1, 3, idx) for idx in self.INDICES)]:
            want = np.random.default_rng(list(key))
            got = keyed_rng(key)
            assert got.bit_generator.state == want.bit_generator.state, key
            assert got.integers(2**62, size=4).tolist() == want.integers(2**62, size=4).tolist()

    def test_each_generator_keeps_its_own_entropy(self):
        a, b = keyed_rng((3, 1)), keyed_rng((3, 1))
        assert a.bit_generator.seed_seq.entropy is not b.bit_generator.seed_seq.entropy
        assert a.bit_generator.seed_seq.entropy.tolist() == [3, 1]


class TestNormalizeFeatures:
    def test_output_has_unit_spread(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=12.0, size=(20, 5))
        assert np.isclose(normalize_features(x).std(), 1.0)

    def test_constant_matrix_passes_through(self):
        x = np.full((4, 3), 2.5)
        out = normalize_features(x)
        assert np.array_equal(out, x)
        assert out is not x

    def test_features_whose_squares_overflow_still_reach_unit_variance(self):
        base = np.random.default_rng(0).normal(size=(40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_features(base * 1e155)
        assert np.allclose(out, base / base.std(), rtol=1e-12, atol=0.0)
        assert np.isclose(out.std(), 1.0)

    @given(feature_matrices())
    def test_distance_ratios_are_preserved(self, x):
        out = normalize_features(x)
        spread = x.std()
        if spread == 0.0:
            assert np.array_equal(out, x)
        else:
            assert np.allclose(out * spread, x)


ROOT_API = {
    "__version__",
    "DomainError", "InfeasibleError", "Hypergraph", "TopM", "PerSize",
    "build_hypergraph", "incidence_matrix", "normalize_features",
    "SmoothnessVariant", "GaussianModelConfig", "incidence_laplacian", "sample_features",
    "CandidateSet", "generate_candidates", "score_candidates", "infer_probabilities",
    "select_edges", "infer_hypergraph",
    "SynthConfig", "make_dataset",
    "f1_exact", "hgmse", "probability_separation",
    "run_protocol", "run_sweep",
}

# Public names that live only in their modules, not at the package root.
MODULE_ONLY = {
    "core": [
        "INTP_MAX", "REAL", "SelectionSpec", "WHOLE", "as_features", "keyed_rng", "real", "whole"
    ],
    "smoothness": [
        "VARIANT_KINDS", "direct_sq_dists", "pairwise_sq_dists", "variant_edge_smoothness"
    ],
    "probmodel": ["IncidenceLaplacian"],
    "synth": ["OVERLAP_TOLERANCE", "SyntheticDataset", "generate_ground_truth", "overlap_rate"],
    "metrics": ["MatchReport", "SeparationReport"],
    "experiments": ["SWEEP_AXES", "SWEEP_COLUMNS", "ProtocolResult"],
}


def test_root_exports_only_the_documented_api():
    assert set(hyperinfer.__all__) == ROOT_API
    assert len(hyperinfer.__all__) == len(ROOT_API)
    for name in hyperinfer.__all__:
        getattr(hyperinfer, name)
    public = {
        name
        for name, value in vars(hyperinfer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(hyperinfer.__all__)
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"hyperinfer.{module}")
        for name in names:
            getattr(mod, name)
            assert not hasattr(hyperinfer, name), name


def _annotated():
    """Every function, class, method and property getter the package's modules define."""
    for info in pkgutil.iter_modules(hyperinfer.__path__, "hyperinfer."):
        if info.name == "hyperinfer.__main__":
            continue
        mod = importlib.import_module(info.name)
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    member = getattr(member, "fget", member)
                    if inspect.isfunction(member):
                        yield member


def test_every_annotation_resolves():
    # Modules import scipy only inside the functions that use it, so an
    # annotation naming a scipy type would not resolve.
    checked = 0
    for obj in _annotated():
        typing.get_type_hints(obj)
        checked += 1
    assert checked > 50
