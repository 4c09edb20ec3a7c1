"""Command-line behaviour: exit codes, files written, printed summaries."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hyperinfer
from hyperinfer import build_hypergraph
from hyperinfer.cli import main
from hyperinfer.io import read_hypergraph, write_features, write_hypergraph
from hyperinfer.smoothness import VARIANT_KINDS


def _run(*argv):
    return main(list(argv))


def _run_python(*argv, **kwargs):
    """``python *argv`` in a child process that imports this same package."""
    src = str(Path(hyperinfer.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def _run_module(*argv, **kwargs):
    """``python -m hyperinfer`` in a child process."""
    return _run_python("-m", "hyperinfer", *argv, **kwargs)


def _run_module_limited(monkeypatch, *argv):
    """``python -m hyperinfer`` in a child process limited to 1.5 GB of address space."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS is enforced on Linux only")
    import resource

    limit = 1_500_000 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("the address-space limit cannot be raised to the test's value")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return _run_module(
        *argv, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    )


class TestInfer:
    def test_reports_selection_against_the_pool_bound(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        features = tmp_path / "x.csv"
        write_features(features, rng.normal(size=(479, 3)))
        out = tmp_path / "pred.json"
        code = _run(
            "infer",
            "--features", str(features),
            "--sizes", "3,8",
            "--top-m", "220",
            "--out", str(out),
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "selected 220 of ≤958 candidates"
        assert read_hypergraph(out).m == 220

    def test_candidate_pool_file_is_optional_output(self, tmp_path):
        rng = np.random.default_rng(1)
        features = tmp_path / "x.csv"
        write_features(features, rng.normal(size=(30, 2)))
        out = tmp_path / "pred.json"
        pool = tmp_path / "pool.csv"
        code = _run(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--per-size", "3=5",
            "--out", str(out),
            "--candidates", str(pool),
        )
        assert code == 0
        with open(pool) as fh:
            rows = list(csv.DictReader(fh))
        assert 5 <= len(rows) <= 30
        assert read_hypergraph(out).m == 5

    def test_undersized_hyperedges_exit_with_domain_failure(self, tmp_path):
        features = tmp_path / "x.csv"
        write_features(features, np.zeros((4, 2)) + np.arange(4)[:, None])
        code = _run(
            "infer",
            "--features", str(features),
            "--sizes", "1",
            "--top-m", "1",
            "--out", str(tmp_path / "pred.json"),
        )
        assert code == 3

    def test_negative_random_variant_seed_is_a_domain_failure(self, tmp_path, capsys):
        features = tmp_path / "x.csv"
        write_features(features, np.random.default_rng(2).normal(size=(30, 2)))
        code = _run(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--top-m", "2",
            "--variant", "random",
            "--seed", "-5",
            "--out", str(tmp_path / "pred.json"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: seed must be an integer in [0, 9223372036854775807], got -5\n"
        assert not (tmp_path / "pred.json").exists()

    def test_a_count_for_an_unsearched_size_fails_before_the_search(
        self, tmp_path, capsys, monkeypatch
    ):
        def search(*args):
            raise AssertionError("the search ran before the spec was checked")

        monkeypatch.setattr(hyperinfer.inference, "generate_candidates", search)
        features = tmp_path / "x.csv"
        write_features(features, np.random.default_rng(2).normal(size=(30, 2)))
        code = _run(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--per-size", "8=1",
            "--out", str(tmp_path / "pred.json"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: not enough candidates of size 8: requested 1, have 0\n"

    def test_features_too_large_to_search_are_a_domain_failure(self, tmp_path):
        features = tmp_path / "x.csv"
        write_features(features, np.random.default_rng(3).normal(size=(40, 3)) + 1e155)
        proc = _run_module(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--top-m", "2",
            "--out", str(tmp_path / "pred.json"),
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "neighbour search" in lines[0] and "--normalize" in lines[0]
        assert not (tmp_path / "pred.json").exists()

    def test_missing_features_file_exits_with_input_failure(self, tmp_path):
        code = _run(
            "infer",
            "--features", str(tmp_path / "absent.csv"),
            "--sizes", "3",
            "--top-m", "1",
            "--out", str(tmp_path / "pred.json"),
        )
        assert code == 2

    def test_empty_features_file_prints_only_the_error_line(self, tmp_path):
        features = tmp_path / "x.csv"
        features.write_text("")
        proc = _run_module(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--top-m", "1",
            "--out", str(tmp_path / "pred.json"),
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    def test_selection_flags_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            _run(
                "infer",
                "--features", str(tmp_path / "x.csv"),
                "--sizes", "3",
                "--top-m", "1",
                "--per-size", "3=1",
                "--out", str(tmp_path / "pred.json"),
            )
        assert err.value.code == 2

    def test_repeated_per_size_entry_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "pred.json"
        with pytest.raises(SystemExit) as err:
            _run(
                "infer",
                "--features", str(tmp_path / "x.csv"),
                "--sizes", "4",
                "--per-size", "4=4,4=5",
                "--out", str(out),
            )
        assert err.value.code == 2
        assert "--per-size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "synth_args, infer_args, pred_sha256, candidates_sha256",
        [
            (
                ["--nodes", "100", "--edges", "8=12", "--dim", "64", "--seed", "0"],
                ["--sizes", "8", "--per-size", "8=12"],
                "972cb65fc7feb292273befe40687e188a3dc73f635386fa6c436bbfec954c44c",
                "37129addea28602b8caff72f75ee821651af4755bcd060703273d2ae38294bcf",
            ),
            (
                ["--nodes", "300", "--edges", "3=30,8=30", "--dim", "32", "--seed", "1"],
                ["--sizes", "3,8", "--top-m", "60"],
                "024bbd59ba8639ca8c84f77c8bc18add10cefdef7fa4245309dd391aa8081795",
                "df12454ece0103e92d1aa477756f96dbbb99db8b34483c8687c76956eefa583c",
            ),
        ],
        ids=["n100-per-size", "n300-mixed-top-m"],
    )
    def test_written_files_are_pinned(
        self, tmp_path, synth_args, infer_args, pred_sha256, candidates_sha256
    ):
        # Digests recorded from synth then infer at one and at two BLAS threads;
        # a change in what the pipeline selects, scores or writes changes them.
        data = tmp_path / "data"
        assert _run("synth", *synth_args, "--overlap", "0.3", "--out", str(data)) == 0
        pred, pool = tmp_path / "pred.json", tmp_path / "candidates.csv"
        code = _run(
            "infer",
            "--features", str(data / "node_features.csv"),
            *infer_args,
            "--normalize",
            "--out", str(pred),
            "--candidates", str(pool),
        )
        assert code == 0
        assert hashlib.sha256(pred.read_bytes()).hexdigest() == pred_sha256
        assert hashlib.sha256(pool.read_bytes()).hexdigest() == candidates_sha256


class TestSynth:
    def _generate(self, out, seed="0"):
        return _run(
            "synth",
            "--nodes", "50",
            "--edges", "4=5",
            "--overlap", "0.1",
            "--dim", "16",
            "--seed", seed,
            "--out", str(out),
        )

    def test_writes_the_four_dataset_files(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert self._generate(out) == 0
        for name in (
            "node_features.csv",
            "edge_features.csv",
            "truth.json",
            "manifest.json",
        ):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 50
        assert manifest["edge_spec"] == {"4": 5}
        assert "achieved overlap" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._generate(a)
        self._generate(b)
        for name in (
            "node_features.csv",
            "edge_features.csv",
            "truth.json",
            "manifest.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_repeated_edge_size_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "ds"
        with pytest.raises(SystemExit) as err:
            _run(
                "synth",
                "--nodes", "50",
                "--edges", "4=4,4=2",
                "--overlap", "0.1",
                "--out", str(out),
            )
        assert err.value.code == 2
        assert "--edges" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_request_exits_with_domain_failure(self, tmp_path, capsys):
        code = _run(
            "synth",
            "--nodes", "10",
            "--edges", "8=5",
            "--overlap", "0.0",
            "--dim", "8",
            "--out", str(tmp_path / "ds"),
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_an_overlap_the_planter_cannot_reach_is_a_domain_failure(self, tmp_path, capsys):
        # Every attempt's bisection ends without landing within the tolerance,
        # so the message names the closest gap, and no file is written.
        out = tmp_path / "ds"
        code = _run(
            "synth",
            "--nodes", "20",
            "--edges", "4=10",
            "--overlap", "0.6",
            "--dim", "2",
            "--out", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: could not reach overlap 0.6 within 0.05 for n=20, edges {4: 10}; "
            "closest gap over 50 attempts was 0.400\n"
        )
        assert not out.exists()

    def test_running_out_of_memory_exits_with_one_error_line(self, tmp_path, monkeypatch):
        # 110 x 2e9 standard normals need 1.6 TiB, more than the child's
        # address-space limit, so the draw fails before any of it is touched.
        out = tmp_path / "ds"
        proc = _run_module_limited(
            monkeypatch,
            "synth",
            "--nodes", "100",
            "--edges", "2=10",
            "--overlap", "0.3",
            "--dim", "2000000000",
            "--out", str(out),
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: synth: out of memory")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "1e300", "1e-200"])
    def test_sigma_whose_square_is_not_positive_and_finite_is_a_domain_failure(
        self, tmp_path, capsys, sigma
    ):
        code = _run(
            "synth",
            "--nodes", "50",
            "--edges", "4=5",
            "--overlap", "0.1",
            "--sigma", sigma,
            "--out", str(tmp_path / "ds"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: sigma")
        assert not (tmp_path / "ds").exists()

    def test_negative_seed_is_a_domain_failure(self, tmp_path, capsys):
        assert self._generate(tmp_path / "ds", seed="-1") == 3
        err = capsys.readouterr().err
        assert err == "error: seed must be an integer in [0, 9223372036854775807], got -1\n"
        assert not (tmp_path / "ds").exists()

    # Each integer lies beyond what np.intp, or the bytes of the feature matrix,
    # can hold. The node count and the feature dimension once ended in a
    # traceback and exit 1; the seed was accepted.
    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--nodes", "9223372036854775808", "--edges", "2=1", "--dim", "2"],
                "node count n must be an integer in [1, 9223372036854775807], "
                "got 9223372036854775808",
            ),
            (
                ["--nodes", "40", "--edges", "3=4", "--dim", "2",
                 "--seed", "99999999999999999999999"],
                "seed must be an integer in [0, 9223372036854775807], got 99999999999999999999999",
            ),
            (
                ["--nodes", "40", "--edges", "3=4", "--dim", "4611686018427387904"],
                "a float64 feature matrix of shape (44, 4611686018427387904) is too large to index",
            ),
            (
                ["--nodes", "10", "--edges", "8=50", "--dim", "2"],
                "cannot plant 50 distinct hyperedges of size 8: 10 nodes hold only 45",
            ),
        ],
        ids=["nodes", "seed", "dim", "edge-count"],
    )
    def test_integer_too_large_is_a_domain_failure(self, tmp_path, capsys, flags, message):
        out = tmp_path / "ds"
        assert _run("synth", *flags, "--overlap", "0", "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_count_beyond_the_distinct_edges_fails_before_any_per_edge_state(
        self, tmp_path, monkeypatch
    ):
        # Building one entry per requested edge would take 2**63 of them; the
        # child's address-space limit turns that into an out-of-memory line.
        out = tmp_path / "ds"
        proc = _run_module_limited(
            monkeypatch,
            "synth",
            "--nodes", "40",
            "--edges", "3=9223372036854775807",
            "--overlap", "0.3",
            "--dim", "2",
            "--out", str(out),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: cannot plant 9223372036854775807 distinct hyperedges of size 3: "
            "40 nodes hold only 9880\n"
        )
        assert not out.exists()


class TestEval:
    def test_perfect_prediction(self, tmp_path, capsys):
        h = build_hypergraph(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        write_hypergraph(pred, h)
        write_hypergraph(truth, h)
        metrics = tmp_path / "metrics.json"
        code = _run(
            "eval", "--pred", str(pred), "--truth", str(truth), "--out", str(metrics)
        )
        assert code == 0
        line = capsys.readouterr().out
        assert "f1 1.0000" in line
        assert "hgmse 0.0000" in line
        payload = json.loads(metrics.read_text())
        assert payload["f1"] == 1.0
        assert payload["hgmse"] == 0.0

    def test_empty_prediction_scores_every_truth_incidence_missed(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        features = tmp_path / "x.csv"
        write_features(features, rng.normal(size=(12, 2)))
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        write_hypergraph(truth, build_hypergraph(12, [[0, 1, 2], [3, 4, 5]]))
        code = _run(
            "infer", "--features", str(features), "--sizes", "3", "--top-m", "0",
            "--out", str(pred),
        )
        assert code == 0
        assert read_hypergraph(pred).m == 0
        capsys.readouterr()
        assert _run("eval", "--pred", str(pred), "--truth", str(truth)) == 0
        assert "f1 0.0000  hgmse 1.0000" in capsys.readouterr().out

    def test_separation_block_comes_from_the_pool_file(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        features = tmp_path / "x.csv"
        write_features(features, rng.normal(size=(30, 2)))
        pred = tmp_path / "pred.json"
        pool = tmp_path / "pool.csv"
        _run(
            "infer",
            "--features", str(features),
            "--sizes", "3",
            "--per-size", "3=4",
            "--out", str(pred),
            "--candidates", str(pool),
        )
        metrics = tmp_path / "metrics.json"
        code = _run(
            "eval",
            "--pred", str(pred),
            "--truth", str(pred),
            "--candidates", str(pool),
            "--out", str(metrics),
        )
        assert code == 0
        assert "separation-gap" in capsys.readouterr().out
        assert "separation" in json.loads(metrics.read_text())

    def test_header_only_pool_file_gives_an_empty_separation_block(self, tmp_path, capsys):
        truth, pool = tmp_path / "truth.json", tmp_path / "pool.csv"
        write_hypergraph(truth, build_hypergraph(3, [[0, 1]]))
        pool.write_text("nodes,size,anchor,s_prime,prob\n")
        metrics = tmp_path / "metrics.json"
        code = _run(
            "eval", "--pred", str(truth), "--truth", str(truth),
            "--candidates", str(pool), "--out", str(metrics),
        )
        assert code == 0
        assert json.loads(metrics.read_text()) == {
            "precision": 1.0, "recall": 1.0, "f1": 1.0, "hgmse": 0.0, "separation": {}
        }

    def test_truth_edge_repeating_a_node_exits_with_input_failure(self, tmp_path, capsys):
        # [0, 0, 1] is not the edge (0, 1); scoring it as one would report a
        # perfect match.
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        write_hypergraph(pred, build_hypergraph(3, [[0, 1]]))
        truth.write_text('{"n": 3, "edges": [[0, 0, 1]]}')
        assert _run("eval", "--pred", str(pred), "--truth", str(truth)) == 2
        assert "hyperedge (0, 0, 1) repeats a node id" in capsys.readouterr().err

    def test_missing_file_exits_with_input_failure(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        write_hypergraph(truth, build_hypergraph(3, [[0, 1]]))
        code = _run(
            "eval", "--pred", str(tmp_path / "absent.json"), "--truth", str(truth)
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_disjoint_pairs_score_within_an_address_space_limit(self, tmp_path, monkeypatch):
        # 20,000 disjoint pairs on each side: a dense 20,000 x 20,000
        # intersection would need 3.2 GB, more than the child's address-space
        # limit; the sparse matching holds only the 20,000 shared pairs.
        edges = [[2 * i, 2 * i + 1] for i in range(20_000)]
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        for path in (pred, truth):
            path.write_text(json.dumps({"n": 80_000, "edges": edges}))
        proc = _run_module_limited(monkeypatch, "eval", "--pred", str(pred), "--truth", str(truth))
        assert proc.returncode == 0, proc.stderr
        assert "hgmse 0.0000" in proc.stdout

    def test_scoring_leaves_out_scipy_optimize(self, tmp_path):
        truth = tmp_path / "truth.json"
        write_hypergraph(truth, build_hypergraph(5, [[0, 1, 2], [2, 3, 4]]))
        proc = _run_python(
            "-c",
            "import sys; from hyperinfer.cli import main; "
            "code = main(['eval', '--pred', sys.argv[1], '--truth', sys.argv[1]]); "
            "print(code, 'scipy.optimize' in sys.modules)",
            str(truth),
        )
        assert proc.returncode == 0, proc.stderr
        assert "hgmse 0.0000" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("with_pool", [False, True], ids=["metrics", "with-candidates"])
    def test_declared_node_count_does_not_change_the_line(self, tmp_path, capsys, with_pool):
        # Scoring holds only the nodes the edges name, so n = 2**63 - 1 prints
        # the line that n = 3 prints.
        pool = tmp_path / "pool.csv"
        pool.write_text("nodes,size,anchor,s_prime,prob\n0;1,2,0,0.5,0.6\n0;2,2,2,1.0,0.5\n")
        lines = []
        for n in (3, 2**63 - 1):
            graph = tmp_path / f"g{n}.json"
            graph.write_text(json.dumps({"n": n, "edges": [[0, 1], [1, 2]]}))
            argv = ["eval", "--pred", str(graph), "--truth", str(graph)]
            assert _run(*argv, *(["--candidates", str(pool)] if with_pool else [])) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert ("separation-gap 0.1000" in lines[0]) == with_pool

    def test_node_count_mismatch_exits_with_input_failure(self, tmp_path):
        pred, truth = tmp_path / "pred.json", tmp_path / "truth.json"
        write_hypergraph(pred, build_hypergraph(3, [[0, 1]]))
        write_hypergraph(truth, build_hypergraph(4, [[0, 1]]))
        assert _run("eval", "--pred", str(pred), "--truth", str(truth)) == 2

    @pytest.mark.parametrize(
        "flag, name, text",
        [
            ("--pred", "bare_int_edge.json", '{"n": 3, "edges": [5]}'),
            ("--pred", "null_n.json", '{"n": null, "edges": [[0, 1]]}'),
            ("--pred", "null_weight.json", '{"n": 3, "edges": [[0, 1]], "weights": [null]}'),
            ("--candidates", "no_prob.csv", "nodes,size,anchor,s_prime,prob\n0;1,2,0,0.5\n"),
            (
                "--candidates",
                "extra_field.csv",
                "nodes,size,anchor,s_prime,prob\n0;1;2,3,0,1.0,0.5,extra\n",
            ),
            ("--pred", "string_edge.json", '{"n": 3, "edges": ["01", [1, 2]]}'),
            ("--pred", "float_n.json", '{"n": 3.7, "edges": [[0, 1]]}'),
            ("--pred", "float_node.json", '{"n": 3, "edges": [[0, 1.9]]}'),
            ("--pred", "bool_node.json", '{"n": 3, "edges": [[true, 2]]}'),
            ("--pred", "bool_weight.json", '{"n": 3, "edges": [[0, 1]], "weights": [true]}'),
            ("--candidates", "repeated_node.csv", "nodes,size,anchor,s_prime,prob\n0;0;1,3,0,1.0,0.5\n"),
            ("--pred", "huge_n.json", '{"n": 99999999999999999999999, "edges": [[0, 1]]}'),
            ("--candidates", "negative_node.csv", "nodes,size,anchor,s_prime,prob\n-1;3;5;7,4,3,1.0,0.5\n"),
            ("--pred", "repeated_node.json", '{"n": 3, "edges": [[0, 0, 1]]}'),
            ("--candidates", "bad_size.csv", "nodes,size,anchor,s_prime,prob\n0;1,x,0,1.0,0.5\n"),
            ("--pred", "deep.json", '{"n": 3, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}"),
            (
                "--candidates",
                "long_field.csv",
                "nodes,size,anchor,s_prime,prob\n0;1,2,0," + "1" * 140_000 + ",0.5\n",
            ),
            (
                "--candidates",
                "huge_node.csv",
                "nodes,size,anchor,s_prime,prob\n0;99999999999999999999,2,0,1.0,0.5\n",
            ),
            (
                "--candidates",
                "huge_anchor.csv",
                "nodes,size,anchor,s_prime,prob\n0;1,2,99999999999999999999,1.0,0.5\n",
            ),
            (
                "--candidates",
                "line_break.csv",
                'nodes,size,anchor,s_prime,prob\n"0;\n1",3,0,1.0,0.5\n',
            ),
        ],
        ids=[
            "bare-int-edge", "null-n", "null-weight", "row-without-prob", "row-with-extra-field",
            "string-edge", "float-n", "float-node", "bool-node", "bool-weight", "repeated-node",
            "huge-n", "negative-node", "repeated-node-json", "non-integer-size",
            "deep-json", "long-field", "huge-node", "huge-anchor", "line-break-in-field",
        ],
    )
    def test_malformed_file_prints_only_the_error_line(self, tmp_path, flag, name, text):
        truth = tmp_path / "truth.json"
        write_hypergraph(truth, build_hypergraph(3, [[0, 1]]))
        bad = tmp_path / name
        bad.write_text(text)
        pred = ["--pred", str(truth)] if flag == "--candidates" else []
        proc = _run_module("eval", "--truth", str(truth), *pred, flag, str(bad))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert str(bad) in lines[0]


class TestSweep:
    def test_grid_csv_and_summary_lines(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = _run(
            "sweep",
            "--axis", "overlap",
            "--values", "0.0,0.2",
            "--reps", "2",
            "--nodes", "40",
            "--edges", "4=4",
            "--dim", "16",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames[-1] == "gap"
        assert len(rows) == 6
        summaries = [r for r in rows if r["seed"] == "summary"]
        assert len(summaries) == 2
        printed = capsys.readouterr().out
        assert printed.count("f1 ") == 2
        assert "+/-" in printed
        for row in summaries:
            assert f"min-gap {float(row['gap']):.3f}" in printed

    @pytest.mark.parametrize(
        "grid, sha256",
        [
            (
                ["--axis", "overlap", "--values", "0.1,0.3,0.5", "--reps", "3",
                 "--edges", "3=6,8=6"],
                "72ce2d394f6fa1db7b78a4ab96e66581563cd2dd8111c722a2636b6c1088f841",
            ),
            (
                ["--axis", "variant", "--values", "max,mean,min,random", "--reps", "2"],
                "0864710e69634ca2e2985beebb375167cf1a25681c782082013f412ebcb8987d",
            ),
        ],
        ids=["overlap-mixed", "variant"],
    )
    def test_grid_csv_is_pinned(self, tmp_path, grid, sha256):
        # Digests recorded at one and at two BLAS threads. Every grid point has
        # a non-zero HGMSE, so a change in the alignment changes them too.
        out = tmp_path / "sweep.csv"
        assert _run("sweep", *grid, "--normalize", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_bad_sigma_gives_error_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = _run(
            "sweep",
            "--axis", "overlap",
            "--values", "0.0,0.2",
            "--reps", "2",
            "--sigma", "inf",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["error:DomainError"] * 4
        assert capsys.readouterr().err == ""

    def test_negative_seeds_give_error_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = _run(
            "sweep",
            "--axis", "overlap",
            "--values", "0.0,0.2",
            "--reps", "4",
            "--nodes", "40",
            "--edges", "4=4",
            "--dim", "16",
            "--seed", "-3",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["seed"] != "summary"]
        assert [(r["seed"], r["status"]) for r in rows] == 2 * [
            ("-3", "error:DomainError"), ("-2", "error:DomainError"),
            ("-1", "error:DomainError"), ("0", "ok"),
        ]
        assert capsys.readouterr().err == ""

    def test_node_count_beyond_intp_gives_an_error_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = _run(
            "sweep",
            "--axis", "nodes",
            "--values", "9223372036854775808",
            "--reps", "1",
            "--dim", "2",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            "nodes,9223372036854775808,0,error:DomainError,,,,,"
        ]
        assert capsys.readouterr().err == ""

    def test_point_out_of_memory_keeps_the_finished_points(self, tmp_path, monkeypatch):
        # n = INTP_MAX passes the integer rule, then planting's array of n
        # degrees fails its size check: MemoryError with nothing allocated.
        # The child's address space is capped, so a change that allocates fails.
        out = tmp_path / "sweep.csv"
        proc = _run_module_limited(
            monkeypatch,
            "sweep", "--axis", "nodes", "--values", "40,9223372036854775807",
            "--reps", "1", "--dim", "2", "--edges", "3=4", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            rows = [(r["value"], r["seed"], r["status"]) for r in csv.DictReader(fh)]
        assert rows == [
            ("40", "0", "ok"), ("40", "summary", "ok"),
            ("9223372036854775807", "0", "error:MemoryError"),
        ]

    def test_unparseable_grid_value_exits_with_input_failure(self, tmp_path, capsys):
        code = _run(
            "sweep",
            "--axis", "overlap",
            "--values", "0.1,zebra",
            "--reps", "1",
            "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "bad value" in capsys.readouterr().err


class TestUnwritableOutput:
    # A regular file stands where a directory is expected: the output under it,
    # or synth's output directory itself, cannot be created.
    @pytest.mark.parametrize(
        "command, flag",
        [("infer", "--out"), ("infer", "--candidates"), ("synth", "--out"),
         ("sweep", "--out"), ("eval", "--out")],
        ids=["infer-out", "infer-candidates", "synth-out", "sweep-out", "eval-out"],
    )
    def test_exits_with_input_failure_naming_the_path(self, tmp_path, capsys, command, flag):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        bad = blocker if command == "synth" else blocker / "output"
        features, truth = tmp_path / "x.csv", tmp_path / "truth.json"
        write_features(features, np.array([[0.0], [1.0], [10.0], [11.0]]))
        write_hypergraph(truth, build_hypergraph(4, [[0, 1]]))
        small = ["--nodes", "20", "--edges", "3=2", "--dim", "4"]
        argv = {
            "infer": ["--features", str(features), "--sizes", "2", "--top-m", "1",
                      "--out", str(tmp_path / "pred.json")],
            "synth": [*small, "--overlap", "0", "--out", str(tmp_path / "ds")],
            "sweep": [*small, "--axis", "overlap", "--values", "0", "--reps", "1",
                      "--out", str(tmp_path / "sweep.csv")],
            "eval": ["--pred", str(truth), "--truth", str(truth)],
        }[command]
        assert _run(command, *argv, flag, str(bad)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert str(bad) in lines[0]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["synth", "--nodes", "10", "--edges", "4", "--overlap", "0"], "expected size=count"),
            (["synth", "--nodes", "10", "--edges", "a=4", "--overlap", "0"], "size must be an integer"),
            (["synth", "--nodes", "10", "--edges", "4=x", "--overlap", "0"], "count must be an integer"),
            (["synth", "--nodes", "10", "--edges", ",", "--overlap", "0"], "empty size=count list"),
            (["sweep", "--axis", "overlap", "--values", ","], "empty value list"),
            (["infer", "--features", "x.csv", "--sizes", "3,a", "--top-m", "1"], "size must be an integer"),
            (["infer", "--features", "x.csv", "--sizes", ",", "--per-size", "3=2"], "empty size list"),
        ],
        ids=["no-count", "bad-size", "bad-count", "empty-map", "empty-values", "bad-sizes",
             "empty-sizes"],
    )
    def test_parser_failure_shows_its_reason(self, tmp_path, capsys, argv, reason):
        with pytest.raises(SystemExit) as err:
            _run(*argv, "--out", str(tmp_path / "out"))
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert reason in stderr
        assert "invalid" not in stderr


# What a file may hold where a node id or a count belongs: ids that fit, ids
# beyond np.intp, negative ids, floats (NaN and inf among them) and booleans.
_NUMBERS = st.one_of(
    st.integers(-2, 12), st.integers(-(2**64), 2**64), st.floats(), st.booleans()
)
_IDS = st.lists(st.integers(0, 4), min_size=2, max_size=3, unique=True)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_CSV_FIELDS = st.one_of(
    _NUMBERS.map(str),
    st.lists(_NUMBERS.map(str), min_size=1, max_size=4).map(";".join),
    st.text(max_size=6),
    st.text(max_size=6).map(lambda text: '"' + text.replace('"', '""') + '"'),
)
# Well-formed rows of a candidates CSV and of a two-column features CSV.
_POOL_ROWS = _IDS.flatmap(
    lambda ids: st.builds(
        lambda anchor, s, p: f"{';'.join(map(str, ids))},{len(ids)},{anchor},{s!r},{p!r}",
        st.sampled_from(ids), st.floats(0.0, 10.0), st.floats(0.0, 1.0),
    )
)
_FEATURE_ROWS = st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2).map(
    lambda row: ",".join(map(repr, row))
)


def _either(good, bad):
    """good or bad, each half the time; ``good | bad`` would weigh each branch of bad alike."""
    return st.booleans().flatmap(lambda ok: good if ok else bad)


def _csv(header: str, good_rows):
    """A CSV file's bytes: the header over well-formed rows half the time, else
    over well-formed and random rows, or any bytes."""
    random_rows = st.lists(_CSV_FIELDS, min_size=1, max_size=6).map(",".join)
    text = lambda rows: rows.map(lambda lines: "\n".join([header, *lines]).lstrip("\n").encode())
    return _either(
        text(st.lists(good_rows, min_size=1, max_size=6)),
        text(st.lists(good_rows | random_rows, max_size=6)) | st.binary(max_size=60),
    )


def _hypergraph_file(n):
    """A hypergraph file's bytes: well-formed over n nodes half the time, else
    its layout around random contents, any JSON or any bytes."""
    good_edges = st.lists(_IDS, min_size=1, max_size=4, unique_by=frozenset)
    good = good_edges.map(lambda e: {"n": n, "edges": e})
    edges = st.lists(_IDS | st.lists(_NUMBERS, max_size=4), max_size=4)
    weights = st.lists(_NUMBERS | st.floats(0.0, 1.0), max_size=4)
    bad = st.one_of(
        st.builds(lambda e, w: {"n": n, "edges": e, "weights": w}, edges, weights),
        st.dictionaries(st.sampled_from(["n", "edges", "weights"]), _JSON),
        _JSON,
    )
    to_bytes = lambda doc: json.dumps(doc).encode()
    return _either(good.map(to_bytes), bad.map(to_bytes) | st.binary(max_size=40))


def _run_contract(argv, files):
    """Run main(argv) in process on files in a scratch directory and check the contract.

    An argv item "@name" is the path of file name there; ``files`` gives the
    bytes of those that are read. The return code must be 0, 2 or 3; a nonzero
    code must write exactly one stderr line, starting ``error: ``, and a zero
    code none.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv])
    event(f"exit {code}")
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []


class TestExitCodeContract:
    """Any file contents give exit code 0, 2 or 3, and no traceback."""

    @settings(max_examples=150)
    @given(st.data())
    def test_eval_on_any_files(self, data):
        # n is shared, so that well-formed pairs reach the scoring at any count;
        # counts near np.intp's limit are drawn as often as the rest.
        counts = st.integers(1, 2**63 - 1) | st.integers(2**62, 2**63 - 1)
        n = data.draw(_either(counts, _NUMBERS), label="n")
        files = {
            "pred.json": data.draw(_hypergraph_file(n), label="pred"),
            "truth.json": data.draw(_hypergraph_file(n), label="truth"),
        }
        argv = ["eval", "--pred", "@pred.json", "--truth", "@truth.json", "--out", "@m.json"]
        if data.draw(st.booleans(), label="with candidates"):
            files["pool.csv"] = data.draw(
                _csv("nodes,size,anchor,s_prime,prob", _POOL_ROWS), label="pool"
            )
            argv += ["--candidates", "@pool.csv"]
        _run_contract(argv, files)

    @settings(max_examples=100)
    @given(
        _csv("", _FEATURE_ROWS),
        st.lists(_either(st.integers(2, 3), st.integers(-1, 5)), min_size=1, max_size=2),
        st.one_of(
            st.integers(-1, 6).map(lambda m: ["--top-m", str(m)]),
            st.dictionaries(st.integers(-1, 5), st.integers(-1, 6), min_size=1, max_size=2).map(
                lambda c: ["--per-size=" + ",".join(f"{k}={v}" for k, v in c.items())]
            ),
        ),
        st.sampled_from(VARIANT_KINDS),
        st.booleans(),
    )
    def test_infer_on_any_features(self, features, sizes, selection, variant, normalize):
        argv = [
            "infer", "--features", "@x.csv", "--sizes=" + ",".join(map(str, sizes)),
            *selection, "--variant", variant, *(["--normalize"] if normalize else []),
            "--out", "@pred.json", "--candidates", "@pool.csv",
        ]
        _run_contract(argv, {"x.csv": features})


class TestEntrypoints:
    def test_module_invocation_shows_help(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        assert "infer" in proc.stdout
        assert "synth" in proc.stdout

    def test_start_up_and_infer_load_no_scipy(self, tmp_path):
        # Only sampling, the incidence and hgmse use scipy, so the package, the
        # CLI, --version and every infer run on numpy alone: importing scipy
        # would more than double their start-up.
        good, bad = tmp_path / "x.csv", tmp_path / "bad.csv"
        write_features(good, np.random.default_rng(0).normal(size=(12, 3)))
        bad.write_text("0.5,abc\n")
        infer = ["infer", "--sizes", "3", "--top-m", "2", "--out", str(tmp_path / "p.json")]
        proc = _run_python(
            "-c",
            """
import sys
def probe(*step):
    print("probe:", *step, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import hyperinfer
probe("import hyperinfer")
import hyperinfer.cli
probe("import hyperinfer.cli")
try:
    hyperinfer.cli.main(["--version"])
except SystemExit as exc:
    probe("--version", exc.code)
for features in sys.argv[1:3]:
    probe("infer", hyperinfer.cli.main([*sys.argv[3:], "--features", features]))
""",
            str(good),
            str(bad),
            *infer,
        )
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("probe:")] == [
            "probe: import hyperinfer []",
            "probe: import hyperinfer.cli []",
            "probe: --version 0 []",
            "probe: infer 0 []",
            "probe: infer 2 []",
        ]

    def test_synth_infer_eval_each_in_a_cold_process(self, tmp_path):
        # Each command starts a fresh interpreter, so a deferred scipy import
        # that went missing fails here even after other tests loaded scipy.
        data, pred = tmp_path / "data", str(tmp_path / "pred.json")
        features, truth = str(data / "node_features.csv"), str(data / "truth.json")
        steps = [
            [*"synth --nodes 40 --edges 3=6 --overlap 0.3 --dim 8 --out".split(), str(data)],
            [*"infer --sizes 3 --per-size 3=6 --out".split(), pred, "--features", features],
            ["eval", "--pred", pred, "--truth", truth],
        ]
        loads_scipy = {}
        for argv in steps:
            proc = _run_python("-X", "importtime", "-m", "hyperinfer", *argv)
            assert proc.returncode == 0, proc.stderr
            imported = [
                line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")
            ]
            loads_scipy[argv[0]] = any(m.split(".")[0] == "scipy" for m in imported)
        assert "hgmse" in proc.stdout
        # synth and eval use scipy, which shows that the probe sees it.
        assert loads_scipy == {"synth": True, "infer": False, "eval": True}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            _run("--version")
        assert err.value.code == 0
        assert "hyperinfer" in capsys.readouterr().out
