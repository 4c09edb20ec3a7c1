"""Command-line behaviour: exit codes, files written, printed summaries."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperinfer
from hyperinfer import build_hypergraph
from hyperinfer.cli import main
from hyperinfer.io import read_hypergraph, write_features, write_hypergraph


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
        assert err == "error: seed must be a non-negative integer, got -5\n"
        assert not (tmp_path / "pred.json").exists()

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
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "ds").exists()


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
        ],
        ids=[
            "bare-int-edge", "null-n", "null-weight", "row-without-prob", "row-with-extra-field",
            "string-edge", "float-n", "float-node", "bool-node", "bool-weight", "repeated-node",
            "huge-n", "negative-node", "repeated-node-json", "non-integer-size",
            "deep-json", "long-field", "huge-node", "huge-anchor",
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
        ],
        ids=["no-count", "bad-size", "bad-count", "empty-map", "empty-values", "bad-sizes"],
    )
    def test_parser_failure_shows_its_reason(self, tmp_path, capsys, argv, reason):
        with pytest.raises(SystemExit) as err:
            _run(*argv, "--out", str(tmp_path / "out"))
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert reason in stderr
        assert "invalid" not in stderr


class TestEntrypoints:
    def test_module_invocation_shows_help(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        assert "infer" in proc.stdout
        assert "synth" in proc.stdout

    def test_importing_the_cli_leaves_out_scipy_linalg_and_optimize(self):
        # Only sampling needs scipy.linalg and only hgmse needs scipy.optimize;
        # together they are about half a second of every command's start-up.
        proc = _run_python(
            "-c",
            "import sys, hyperinfer.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            _run("--version")
        assert err.value.code == 0
        assert "hyperinfer" in capsys.readouterr().out
