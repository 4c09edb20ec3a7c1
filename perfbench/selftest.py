"""Self-test of the benchmark at about forty nodes per dataset.

Checks the self-time arithmetic, runs every workload's op path traced with its
output checks, makes sure the checks catch broken outputs, runs the command
itself on every workload with and without tracing, and checks that it fails
without printing a result where the program's source is missing.

Usage, from the root of the repository:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hyperinfer import (  # noqa: E402
    cli, core, experiments, inference, io, probmodel, smoothness, synth,
)

MODULES = {
    "cli": cli, "core": core, "experiments": experiments, "inference": inference,
    "io": io, "probmodel": probmodel, "smoothness": smoothness, "synth": synth,
}
WORK = run.OUT / "selftest"


def test_self_time_arithmetic():
    # op 0: bench.op [0, 10] > cli.main [1, 9] > io [2, 4] and inference [4, 8] > smoothness [5, 6]
    recorded = [
        ["bench.op", 0.0, 10.0, -1, 0, 0],
        ["cli.main", 1.0, 9.0, 0, 0, 0],
        ["io.read_features", 2.0, 4.0, 1, 0, 3 * 2**20],
        ["inference.infer_hypergraph", 4.0, 8.0, 1, 0, 0],
        ["smoothness.pairwise_sq_dists", 5.0, 6.0, 3, 0, 0],
        ["bench.op", 10.0, 11.0, -1, 1, 0],
    ]
    summary = spans.summarize(recorded)
    op = summary[0]
    assert op["wall_s"] == 10.0
    assert op["layers"] == {"bench": 2.0, "cli": 2.0, "io": 2.0, "inference": 3.0, "smoothness": 1.0}
    assert sum(op["layers"].values()) == op["wall_s"]
    assert op["functions"]["inference.infer_hypergraph"]["self_s"] == 3.0
    assert op["functions"]["io.read_features"]["peak_mb"] == 3.0
    assert summary[1]["layers"] == {"bench": 1.0}


def _traced_cycle(cls, tracer):
    wl = cls(7, WORK / cls.name, tiny=True)
    wl.setup(0)
    wl.load()
    for i, spec in enumerate(wl.cycle(0) * 2):
        tracer.begin_op(i)
        result = wl.run(spec)
        tracer.end_op()
        outcome = wl.check(spec, result)
        assert outcome.ok, (cls.name, outcome.problems)


def test_workloads_traced():
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _ in spans.SITES}
    for cls in workloads.WORKLOADS.values():
        tracer = spans.Tracer()
        tracer.install(MODULES)
        try:
            _traced_cycle(cls, tracer)
            ops = spans.summarize(tracer.spans, tracer.counts)
            for unit in ops.values():
                assert math.isclose(sum(unit["layers"].values()), unit["wall_s"], rel_tol=1e-9)
            names = set().union(*(u["functions"] for u in ops.values()))
            want = {"inference.generate_candidates", "smoothness.pairwise_sq_dists",
                    "smoothness.variant_edge_smoothness", "core.as_features",
                    "metrics.f1_exact", "metrics.hgmse"}
            want |= ({"cli.main", "io.read_features", "io.write_candidates", "io.load_candidates"}
                     if cls is workloads.InferCsv else
                     {"experiments.run_protocol", "synth.generate_ground_truth",
                      "synth.overlap_rate", "probmodel.sample_features"})
            assert want <= names, (cls.name, want - names)
            counts = next(iter(ops.values()))["counts"]
            assert counts["core.as_features.elements"] > 0
            assert counts["inference.pool_size"] + counts["inference.duplicates_dropped"] \
                == counts["inference.pool_capacity"]
            assert not tracer.errors
            assert all(u["functions"]["inference.generate_candidates"]["peak_mb"] > 0
                       for u in ops.values())
        finally:
            tracer.uninstall()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in originals.items())


def test_checks_catch_broken_outputs():
    wl = workloads.SynthMixed(3, WORK / "broken-protocol", tiny=True)
    wl.load()
    spec = wl.cycle(0)[0]
    result = wl.run(spec)
    assert wl.check(spec, result).ok
    short = replace(result.selected, edges=result.selected.edges[1:],
                    weights=result.selected.weights[1:])
    assert not wl.check(spec, replace(result, selected=short)).ok
    bad = replace(result.candidates, probs=result.candidates.probs * 0.5)
    assert not wl.check(spec, replace(result, candidates=bad)).ok

    wl = workloads.InferCsv(3, WORK / "broken-csv", tiny=True)
    wl.setup(0)
    wl.load()
    assert wl.check(None, wl.run(None)).ok
    outcome = wl.run(None)
    h = io.read_hypergraph(wl.outputs["pred.json"])
    io.write_hypergraph(wl.outputs["pred.json"], replace(h, edges=h.edges[1:], weights=h.weights[1:]))
    problems = wl.check(None, outcome).problems
    assert any("sizes" in p for p in problems) and any("differ" in p for p in problems), problems
    assert not wl.check(None, (0, 3)).ok


def _command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_command():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        table = run.END_TO_END if trace == 0 else run.PER_LAYER
        assert {m["name"]: m["better"] for m in declared[key]} == \
            {name: spec[1] for name, spec in table.items()}
        for name in run.WORKLOAD_NAMES:
            proc = _command("--workload", name, "--seed", "5", "--seconds", "0.5",
                            "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (name, out)
            assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def test_fails_without_source():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = _command("--workload", "paper-sweep", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
