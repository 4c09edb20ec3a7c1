"""Round-trips for the on-disk formats."""

import json
import re

import numpy as np
import pytest

from conftest import random_hypergraph
from hyperinfer import (
    DomainError,
    SynthConfig,
    TopM,
    build_hypergraph,
    f1_exact,
    hgmse,
    infer_hypergraph,
    probability_separation,
)
from hyperinfer.io import (
    load_candidates,
    read_features,
    read_hypergraph,
    write_candidates,
    write_features,
    write_hypergraph,
    write_manifest,
    write_metrics,
)


class TestFeatureFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=1e3, size=(7, 5))
        path = tmp_path / "x.csv"
        write_features(path, x)
        assert np.array_equal(read_features(path), x)

    def test_single_row_keeps_two_dimensions(self, tmp_path):
        path = tmp_path / "x.csv"
        write_features(path, np.array([[1.5, -2.5]]))
        assert read_features(path).shape == (1, 2)

    def test_non_numeric_content_raises(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_features(path)


class TestHypergraphFiles:
    def test_round_trip_without_weights(self, tmp_path):
        h = build_hypergraph(5, [[0, 1], [2, 3, 4]])
        path = tmp_path / "h.json"
        write_hypergraph(path, h)
        back = read_hypergraph(path)
        assert back.n == h.n
        assert back.edges == h.edges
        assert back.weights is None

    def test_round_trip_with_weights(self, tmp_path):
        rng = np.random.default_rng(1)
        h = random_hypergraph(rng, weighted=True)
        path = tmp_path / "h.json"
        write_hypergraph(path, h)
        back = read_hypergraph(path)
        assert back.edges == h.edges
        assert np.allclose(back.weights, h.weights)

    def test_rewrite_is_byte_identical(self, tmp_path):
        h = build_hypergraph(4, [[0, 1, 2]], weights=[0.25])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_hypergraph(a, h)
        write_hypergraph(b, h)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"edges": [[0, 1]]}))
        with pytest.raises(DomainError, match="keys 'n' and 'edges'"):
            read_hypergraph(path)

    def test_invalid_edges_surface_as_domain_errors(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 5]]}))
        with pytest.raises(DomainError, match="out of range"):
            read_hypergraph(path)


class TestCandidateFiles:
    def _scored_pool(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 3))
        cs, _ = infer_hypergraph(x, [2, 3], TopM(4))
        return cs

    def test_round_trip_preserves_pool_and_numbers(self, tmp_path):
        cs = self._scored_pool()
        path = tmp_path / "cands.csv"
        write_candidates(path, cs)
        back = load_candidates(path, cs.n)
        assert set(c.nodes for c in back.candidates) == set(
            c.nodes for c in cs.candidates
        )
        original = {c.nodes: (s, p) for c, s, p in zip(cs.candidates, cs.scores, cs.probs)}
        for cand, s, p in zip(back.candidates, back.scores, back.probs):
            assert original[cand.nodes] == (s, p)

    def test_rows_sorted_by_descending_probability(self, tmp_path):
        cs = self._scored_pool()
        path = tmp_path / "cands.csv"
        write_candidates(path, cs)
        probs = [float(line.split(",")[-1]) for line in path.read_text().splitlines()[1:]]
        assert probs == sorted(probs, reverse=True)

    def test_unscored_pool_rejected(self, tmp_path):
        from hyperinfer import generate_candidates

        cs = generate_candidates(np.array([[0.0], [1.0], [5.0]]), sizes=[2])
        with pytest.raises(DomainError, match="scores and probabilities"):
            write_candidates(tmp_path / "cands.csv", cs)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DomainError, match="header"):
            load_candidates(path, 5)

    def test_inconsistent_size_column_rejected(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_text("nodes,size,anchor,s_prime,prob\n0;1,3,0,1.0,0.5\n")
        with pytest.raises(DomainError, match="declares size"):
            load_candidates(path, 5)

    def test_repeated_node_ids_rejected_with_the_line(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_text("nodes,size,anchor,s_prime,prob\n0;2,2,0,1.0,0.5\n0;0;1,3,0,1.0,0.5\n")
        with pytest.raises(DomainError, match=r"cands.csv, line 3: node ids repeat in 0;0;1"):
            load_candidates(path, 5)

    def test_negative_node_id_rejected_with_the_line(self, tmp_path):
        # -1 is the pool's padding value; the row must be named as written,
        # not as the pool would read it back.
        path = tmp_path / "cands.csv"
        path.write_text("nodes,size,anchor,s_prime,prob\n0;2,2,0,1.0,0.5\n-1;3;5;7,4,3,1.0,0.5\n")
        with pytest.raises(DomainError, match=r"cands.csv, line 3: node id -1 is negative"):
            load_candidates(path, 8)

    def test_rows_in_any_order_are_sorted(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_text("nodes,size,anchor,s_prime,prob\n2;1;0,3,1,1.0,0.5\n4;3,2,4,2.0,0.25\n")
        back = load_candidates(path, 5)
        assert back.nodes.tolist() == [[0, 1, 2], [3, 4, -1]]
        assert back.anchors.tolist() == [1, 4]
        assert back.sizes == (2, 3)

    def test_header_only_file_is_an_empty_pool(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_text("nodes,size,anchor,s_prime,prob\n")
        back = load_candidates(path, 5)
        assert (len(back), back.sizes, back.size_counts()) == (0, (), {})

    @pytest.mark.parametrize(
        "row, count",
        [("0;1,2,0,1.0,0.5,extra", 6), ("0;1,2,0,1.0", 4)],
        ids=["extra-field", "missing-field"],
    )
    def test_row_field_count_must_match_header(self, tmp_path, row, count):
        path = tmp_path / "cands.csv"
        path.write_text(f"nodes,size,anchor,s_prime,prob\n0;2,2,0,1.0,0.5\n{row}\n")
        with pytest.raises(DomainError, match=rf"cands.csv, line 3: {count} fields, expected 5"):
            load_candidates(path, 5)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0;1,x,0,1.0,0.5", "invalid literal for int() with base 10: 'x'"),
            ("0;1,2,0,1.0,abc", "could not convert string to float: 'abc'"),
            ("0;;2,3,0,1.0,0.5", "invalid literal for int() with base 10: ''"),
            ("0;5,2,0,1.0,0.5", "node id 5 is out of range for n=5"),
            ("0;99999999999999999999,2,0,1.0,0.5", "node id 99999999999999999999 is out of range"),
            ("0;1,2,99999999999999999999,1.0,0.5", "anchor 99999999999999999999 is out of range"),
            ("0;1,2,-3,1.0,0.5", "anchor -3 is out of range for n=5"),
            ("0;1,2,0," + "1" * 140_000 + ",0.5", "field larger than field limit (131072)"),
        ],
        ids=[
            "non-integer-size", "non-numeric-prob", "empty-node-id",
            "node-id-n", "huge-node-id", "huge-anchor", "negative-anchor", "long-field",
        ],
    )
    def test_unparseable_field_rejected_with_the_line(self, tmp_path, row, message):
        path = tmp_path / "cands.csv"
        path.write_text(f"nodes,size,anchor,s_prime,prob\n0;2,2,0,1.0,0.5\n{row}\n")
        with pytest.raises(DomainError, match=re.escape(f"cands.csv, line 3: {message}")):
            load_candidates(path, 5)


class TestMetricsFiles:
    def test_fields_and_optional_separation_block(self, tmp_path):
        truth = build_hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        pred = build_hypergraph(6, [[0, 1, 2], [2, 3, 4]])
        path = tmp_path / "metrics.json"
        write_metrics(path, f1_exact(pred, truth), hgmse(pred, truth))
        payload = json.loads(path.read_text())
        assert payload == {
            "precision": 0.5,
            "recall": 0.5,
            "f1": 0.5,
            "hgmse": pytest.approx(hgmse(pred, truth)),
        }

    def test_separation_block_keeps_only_present_fields(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 2))
        cs, pred = infer_hypergraph(x, [2], TopM(3))
        truth = build_hypergraph(8, [list(pred.edges[0])])
        sep = probability_separation(cs, truth)
        path = tmp_path / "metrics.json"
        write_metrics(path, f1_exact(pred, truth), hgmse(pred, truth), sep)
        block = json.loads(path.read_text())["separation"]
        assert set(block) <= {"truth_mean", "other_mean", "gap"}
        assert block["truth_mean"] == sep.mean_truth_prob


class TestManifest:
    def test_records_everything_needed_to_regenerate(self, tmp_path):
        cfg = SynthConfig(
            n=60, edge_spec={4: 3, 6: 2}, target_overlap=0.2, dim=16, seed=9
        )
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, 0.1875, "0.1.0")
        payload = json.loads(path.read_text())
        assert payload == {
            "n": 60,
            "edge_spec": {"4": 3, "6": 2},
            "target_overlap": 0.2,
            "achieved_overlap": 0.1875,
            "sigma": 1e-3,
            "dim": 16,
            "seed": 9,
            "version": "0.1.0",
        }

    def test_manifest_bytes_do_not_depend_on_the_spec_order(self, tmp_path):
        expected = (
            '{\n  "achieved_overlap": 0.1875,\n  "dim": 16,\n  "edge_spec": {\n'
            '    "10": 1,\n    "4": 3,\n    "6": 2\n  },\n  "n": 60,\n  "seed": 9,\n'
            '  "sigma": 0.001,\n  "target_overlap": 0.2,\n  "version": "0.1.0"\n}\n'
        )
        for spec in ({10: 1, 4: 3, 6: 2}, {4: 3, 6: 2, 10: 1}):
            path = tmp_path / "manifest.json"
            write_manifest(path, SynthConfig(60, spec, 0.2, dim=16, seed=9), 0.1875, "0.1.0")
            assert path.read_text() == expected

    def test_numpy_integers_are_written_as_json_integers(self, tmp_path):
        cfg = SynthConfig(
            np.int64(60), {np.int32(4): np.uint8(3)}, 0.2, dim=np.int32(16), seed=np.int16(9)
        )
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, 0.1875, "0.1.0")
        payload = json.loads(path.read_text())
        assert (payload["n"], payload["edge_spec"], payload["dim"], payload["seed"]) == (
            60, {"4": 3}, 16, 9
        )

    def test_numpy_floats_are_written_as_json_numbers(self, tmp_path):
        cfg = SynthConfig(60, {4: 3}, np.float32(0.25), sigma=np.float32(1e-3), dim=16)
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, 0.1875, "0.1.0")
        payload = json.loads(path.read_text())
        assert (payload["target_overlap"], payload["sigma"]) == (0.25, float(np.float32(1e-3)))
        assert SynthConfig(60, {4: 3}, payload["target_overlap"], payload["sigma"], 16) == cfg
