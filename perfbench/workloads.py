"""The benchmark's workloads: inputs made from a seed, the timed op, output checks.

Each workload yields its ops in cycles. An op is one call into the program's
public entry points (``experiments.run_protocol`` or ``cli.main``), made
through the module attribute so that a tracer can wrap it. ``check`` then
verifies the op's outputs outside the timed region; a failed check marks the
op failed and the run goes on.

``tiny=True`` shrinks every workload to about forty nodes, for the self-test
and for the warm-up before timing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hyperinfer import cli, experiments
from hyperinfer import io as hio
from hyperinfer.smoothness import SmoothnessVariant

# Ops of different seeds draw datasets from disjoint seed ranges.
SEED_STRIDE = 100_000


@dataclass
class Outcome:
    """What ``check`` found about one op's outputs."""

    problems: list = field(default_factory=list)
    f1: float | None = None
    hgmse: float | None = None
    gap: float | None = None  # None when the op does not score with the max statistic
    files: dict = field(default_factory=dict)  # output name -> bytes, for hashing

    @property
    def ok(self) -> bool:
        return not self.problems


def _size_counts(h) -> dict:
    return dict(Counter(len(e) for e in h.edges))


def _f1(pred_edges, truth_edges) -> float:
    tp = len(set(pred_edges) & set(truth_edges))
    return 2.0 * tp / (len(pred_edges) + len(truth_edges))


class _Protocol:
    """Shared by the workloads whose op is one ``run_protocol`` call."""

    quality_ops = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny

    def setup(self, rep: int) -> str | None:
        """The inputs are made inside each op; there is nothing to prepare."""
        return None

    def load(self) -> None:
        (self.workdir / "check").mkdir(parents=True, exist_ok=True)

    def run(self, spec):
        return experiments.run_protocol(
            spec["n"], spec["edges"], spec["overlap"], dim=spec["dim"],
            seed=spec["seed"], variant=spec["variant"], normalize=True,
        )

    def check(self, spec, result) -> Outcome:
        out = Outcome()
        cs, sel = result.candidates, result.selected
        want = {int(k): int(c) for k, c in spec["edges"].items()}
        if _size_counts(sel) != want:
            out.problems.append(f"selected sizes {_size_counts(sel)}, requested {want}")
        nodes = [c.nodes for c in cs.candidates]
        if len(set(nodes)) != len(nodes) or len(nodes) > cs.n * len(cs.sizes):
            out.problems.append("candidate pool has duplicates or exceeds n * |sizes|")
        if not np.array_equal(cs.probs, 1.0 / (cs.scores + 1.0)):
            out.problems.append("probabilities are not 1 / (s' + 1)")
        index = {c: i for i, c in enumerate(nodes)}
        chosen = [index.get(e) for e in sel.edges]
        if None in chosen:
            out.problems.append("a selected edge is not in the candidate pool")
        else:
            if not np.array_equal(np.array(sel.weights), cs.probs[chosen]):
                out.problems.append("selected weights differ from pool probabilities")
            picked = np.zeros(len(nodes), dtype=bool)
            picked[chosen] = True
            sizes = np.array([len(c) for c in nodes])
            for k in want:
                mine = sizes == k
                if (mine & ~picked).any() and (
                    cs.probs[mine & picked].min() < cs.probs[mine & ~picked].max()
                ):
                    out.problems.append(f"size {k}: a skipped candidate beats a selected one")
        f1 = _f1(sel.edges, result.truth.edges)
        if not np.isclose(f1, result.match.f1, rtol=1e-12, atol=0.0):
            out.problems.append(f"reported F1 {result.match.f1} != recomputed {f1}")
        pred_path = self.workdir / "check" / "pred.json"
        cand_path = self.workdir / "check" / "candidates.csv"
        hio.write_hypergraph(pred_path, sel)
        hio.write_candidates(cand_path, cs)
        reloaded = hio.read_hypergraph(pred_path)
        if reloaded.edges != sel.edges or _size_counts(reloaded) != want:
            out.problems.append("pred.json does not reload to the selection")
        out.files = {"pred.json": pred_path.read_bytes(), "candidates.csv": cand_path.read_bytes()}
        out.f1 = result.match.f1
        out.hgmse = result.hgmse
        if spec["variant"] is None:
            out.gap = result.separation.gap
        return out


class PaperSweep(_Protocol):
    """The paper's own point, n=100 with twelve size-8 edges, in seven ops per seed.

    Overlap 0.1, 0.3 and 0.5 at d=1000 with the max statistic (the
    run_benchmark.py grid), then max, mean, min and random at overlap 0.3 and
    d=64 (the run_ablation.py grid). Many small calls, so fixed per-call cost
    dominates; the only workload on the mean, min and random scoring paths.
    """

    name = "paper-sweep"
    quality_ops = 280  # 40 cycles

    def cycle(self, c: int) -> list:
        n, edges, d_hi, d_lo = (40, {5: 6}, 200, 32) if self.tiny else (100, {8: 12}, 1000, 64)
        seed = self.seed * SEED_STRIDE + c
        specs = [
            {"n": n, "edges": edges, "overlap": ov, "dim": d_hi, "seed": seed, "variant": None}
            for ov in (0.1, 0.3, 0.5)
        ]
        for kind in ("max", "mean", "min", "random"):
            variant = None if kind == "max" else SmoothnessVariant(
                kind, seed=seed if kind == "random" else None
            )
            specs.append(
                {"n": n, "edges": edges, "overlap": 0.3, "dim": d_lo, "seed": seed, "variant": variant}
            )
        return specs


class SynthMixed(_Protocol):
    """n=3000 with 300 edges each of sizes 3 and 8, d=128, one dataset per op.

    Planting bisection and the dense Cholesky dominate. The only workload with
    two sizes, so two neighbour prefixes per anchor and a per-size quota; it
    carries the known mixed-size recovery failure (F1 near 0.5).
    """

    name = "synth-mixed"
    quality_ops = 4

    def cycle(self, c: int) -> list:
        n, edges, dim = (40, {3: 4, 5: 4}, 32) if self.tiny else (3000, {3: 300, 8: 300}, 128)
        return [{
            "n": n, "edges": edges, "overlap": 0.3, "dim": dim,
            "seed": self.seed * SEED_STRIDE + c, "variant": None,
        }]


class InferCsv:
    """The "infer my features" user: ``hyperinfer infer`` then ``eval`` on one CSV.

    Set-up writes the dataset with ``hyperinfer synth`` (n=3000, 300 size-8
    edges, overlap 0.3, d=128). Every op repeats the same two CLI calls, so
    the outputs of all ops must be byte-identical.
    """

    name = "infer-csv"
    quality_ops = 3

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = Path(workdir)
        n, k, count, dim = (40, 5, 6, 32) if tiny else (3000, 8, 300, 128)
        self.synth_args = [
            "synth", "--nodes", str(n), "--edges", f"{k}={count}", "--overlap", "0.3",
            "--dim", str(dim), "--seed", str(seed),
        ]
        self.size, self.count = k, count
        self.data = self.workdir / "data"
        self.outputs = {
            "pred.json": self.workdir / "pred.json",
            "candidates.csv": self.workdir / "candidates.csv",
            "metrics.json": self.workdir / "metrics.json",
        }
        self.reference: dict | None = None

    def setup(self, rep: int) -> str:
        """Write the dataset; return the sha256 of what was written."""
        out = self.data / f"rep{rep}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*self.synth_args, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"hyperinfer synth exited {code}")
        digest = hashlib.sha256()
        for name in ("node_features.csv", "edge_features.csv", "truth.json", "manifest.json"):
            digest.update((out / name).read_bytes())
        return digest.hexdigest()

    def load(self) -> None:
        src = self.data / "rep0"
        self.features = str(src / "node_features.csv")
        self.truth = str(src / "truth.json")
        x = np.loadtxt(self.features, delimiter=",", ndmin=2)
        self.x = x / x.std()
        self.truth_edges = hio.read_hypergraph(self.truth).edges
        for path in self.outputs.values():
            path.unlink(missing_ok=True)

    def cycle(self, c: int) -> list:
        return [None]

    def run(self, spec):
        out = self.outputs
        with contextlib.redirect_stdout(io.StringIO()):
            infer = cli.main([
                "infer", "--features", self.features, "--sizes", str(self.size),
                "--per-size", f"{self.size}={self.count}", "--normalize",
                "--out", str(out["pred.json"]), "--candidates", str(out["candidates.csv"]),
            ])
            if infer != 0:
                return infer, None
            ev = cli.main([
                "eval", "--pred", str(out["pred.json"]), "--truth", self.truth,
                "--candidates", str(out["candidates.csv"]), "--out", str(out["metrics.json"]),
            ])
        return infer, ev

    def check(self, spec, result) -> Outcome:
        out = Outcome()
        if result != (0, 0):
            out.problems.append(f"exit codes infer/eval {result}, expected (0, 0)")
            return out
        try:
            out.files = {name: self.outputs[name].read_bytes() for name in ("pred.json", "candidates.csv")}
            pred = hio.read_hypergraph(self.outputs["pred.json"])
            report = json.loads(self.outputs["metrics.json"].read_text())
        finally:
            for path in self.outputs.values():
                path.unlink(missing_ok=True)
        if _size_counts(pred) != {self.size: self.count}:
            out.problems.append(f"pred.json sizes {_size_counts(pred)}, requested {self.size}={self.count}")
        if self.reference is None:
            self.reference = out.files
        elif out.files != self.reference:
            out.problems.append("outputs differ from the first op's")
        f1 = _f1(pred.edges, self.truth_edges)
        if not np.isclose(f1, report["f1"], rtol=1e-12, atol=0.0):
            out.problems.append(f"eval F1 {report['f1']} != recomputed {f1}")
        out.problems += self._spot_check(out.files["candidates.csv"])
        out.f1, out.hgmse = report["f1"], report["hgmse"]
        out.gap = report["separation"]["gap"]
        return out

    def _spot_check(self, data: bytes, rows: int = 5) -> list:
        """Recompute s' and w for the first rows of the candidates CSV from the features."""
        problems = []
        table = list(csv.DictReader(io.StringIO(data.decode())))
        probs = [float(row["prob"]) for row in table]
        if probs != sorted(probs, reverse=True):
            problems.append("candidates CSV is not ordered by probability")
        for row in table[:rows]:
            nodes = [int(v) for v in row["nodes"].split(";")]
            x = self.x[nodes]
            s = float(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1).max())
            if not np.isclose(float(row["s_prime"]), s, rtol=1e-9, atol=0.0):
                problems.append(f"s' of {row['nodes']} is {row['s_prime']}, recomputed {s}")
            if float(row["prob"]) != 1.0 / (float(row["s_prime"]) + 1.0):
                problems.append(f"prob of {row['nodes']} is not 1 / (s' + 1)")
        return problems


WORKLOADS = {w.name: w for w in (PaperSweep, InferCsv, SynthMixed)}
