"""hyperinfer benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

One client runs ops back to back: the next op starts only when the previous one
has finished. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first
runs untraced for half the time, then traced for the other half, and reports
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory for the workloads and metrics.

Each workload's set-up and its timed ops run in fresh child processes of this
script, with the BLAS thread count pinned, so that set-up is timed from a cold
start and the peak RSS belongs to the workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("paper-sweep", "infer-csv", "synth-mixed")
SETUP_REPS = 3
# One BLAS thread: on a machine shared with other work, a second thread made
# the small paper-sweep ops up to three times slower at random.
BLAS_THREADS = 1
# A run must end within 180 s; its child processes are killed after this.
RUN_TIMEOUT_S = 175

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "f1_mean": ("score", "higher"),
    "gap_min": ("prob", "higher"),
    "ok_ops_frac": ("frac", "higher"),
}


def _fn(name, key):
    return ("fn", name, key)


def _count(key):
    return ("count", key)


# name -> (unit, better, source). Sources: ("fn", span name, s|self_s|calls|peak_mb),
# ("count", counter), ("layer", layer) for a layer's self time, ("errors", layer),
# ("yield",), ("accounted",), ("overhead",).
PER_LAYER = {
    "synth.make_dataset.s": ("s", "lower", _fn("synth.make_dataset", "s")),
    "synth.generate_ground_truth.s": ("s", "lower", _fn("synth.generate_ground_truth", "s")),
    "synth.overlap_rate.calls": ("count", "lower", _fn("synth.overlap_rate", "calls")),
    "probmodel.incidence_laplacian.s": ("s", "lower", _fn("probmodel.incidence_laplacian", "s")),
    "probmodel.sample_features.s": ("s", "lower", _fn("probmodel.sample_features", "s")),
    "probmodel.sample_features.flops_computed": (
        "flop", "lower", _count("probmodel.sample_features.flops_computed")),
    "probmodel.sample_features.bytes_computed": (
        "B", "lower", _count("probmodel.sample_features.bytes_computed")),
    "smoothness.pairwise_sq_dists.s": ("s", "lower", _fn("smoothness.pairwise_sq_dists", "s")),
    "smoothness.pairwise_sq_dists.calls": (
        "count", "lower", _fn("smoothness.pairwise_sq_dists", "calls")),
    "smoothness.pairwise_sq_dists.bytes_computed": (
        "B", "lower", _count("smoothness.pairwise_sq_dists.bytes_computed")),
    "inference.generate_candidates.self_s": (
        "s", "lower", _fn("inference.generate_candidates", "self_s")),
    "inference.generate_candidates.peak_mb": (
        "MiB", "lower", _fn("inference.generate_candidates", "peak_mb")),
    "smoothness.variant_edge_smoothness.s": (
        "s", "lower", _fn("smoothness.variant_edge_smoothness", "s")),
    "smoothness.variant_edge_smoothness.calls": (
        "count", "lower", _fn("smoothness.variant_edge_smoothness", "calls")),
    "core.as_features.calls": ("count", "lower", _fn("core.as_features", "calls")),
    "core.as_features.elements": ("count", "lower", _count("core.as_features.elements")),
    "inference.score_candidates.self_s": ("s", "lower", _fn("inference.score_candidates", "self_s")),
    "inference.infer_hypergraph.self_s": ("s", "lower", _fn("inference.infer_hypergraph", "self_s")),
    "inference.infer_probabilities.s": ("s", "lower", _fn("inference.infer_probabilities", "s")),
    "inference.select_edges.s": ("s", "lower", _fn("inference.select_edges", "s")),
    "inference.pool_size": ("count", "higher", _count("inference.pool_size")),
    "inference.pool_size.k3": ("count", "higher", _count("inference.pool_size.k3")),
    "inference.pool_size.k8": ("count", "higher", _count("inference.pool_size.k8")),
    "inference.duplicates_dropped": ("count", "lower", _count("inference.duplicates_dropped")),
    "inference.pool_yield": ("frac", "higher", ("yield",)),
    "metrics.f1_exact.s": ("s", "lower", _fn("metrics.f1_exact", "s")),
    "metrics.hgmse.s": ("s", "lower", _fn("metrics.hgmse", "s")),
    "metrics.probability_separation.s": ("s", "lower", _fn("metrics.probability_separation", "s")),
    "io.read_features.s": ("s", "lower", _fn("io.read_features", "s")),
    "io.read_features.bytes": ("B", "lower", _count("io.read_features.bytes")),
    "io.write_candidates.s": ("s", "lower", _fn("io.write_candidates", "s")),
    "io.write_candidates.bytes": ("B", "lower", _count("io.write_candidates.bytes")),
    "io.write_hypergraph.s": ("s", "lower", _fn("io.write_hypergraph", "s")),
    "io.read_hypergraph.s": ("s", "lower", _fn("io.read_hypergraph", "s")),
    "io.load_candidates.s": ("s", "lower", _fn("io.load_candidates", "s")),
    "cli.main.self_s": ("s", "lower", _fn("cli.main", "self_s")),
    "experiments.run_protocol.self_s": ("s", "lower", _fn("experiments.run_protocol", "self_s")),
    **{f"{layer}.self_s": ("s", "lower", ("layer", layer)) for layer in (*spans.LAYERS, "bench")},
    **{f"{layer}.errors": ("count", "lower", ("errors", layer)) for layer in spans.LAYERS},
    "trace.accounted_frac": ("frac", "higher", ("accounted",)),
    "trace.overhead_frac": ("frac", "lower", ("overhead",)),
}


# --- per-layer metrics from traced units ---------------------------------


def _read(unit, source):
    """One unit's value for a "fn", "count" or "layer" source; None if it never ran there."""
    if source[0] == "fn":
        fn = unit["functions"].get(source[1])
        return None if fn is None else fn[source[2]]
    if source[0] == "layer":
        return unit["layers"].get(source[1])
    return unit["counts"].get(source[1])


def _median_over(units, source) -> float | None:
    values = [_read(u, source) for u in units]
    if all(v is None for v in values):
        return None
    return statistics.median(0.0 if v is None else v for v in values)


def layer_metrics(op_units, setup_units, errors, overhead) -> dict:
    """Per-layer metrics: medians over the traced ops.

    A function that runs only in set-up (synth on infer-csv) is reported as the
    median over the set-up repetitions; one that never runs reads 0.
    """
    out = {}
    for name, (unit, _, source) in PER_LAYER.items():
        kind = source[0]
        if kind in ("fn", "count", "layer"):
            value = _median_over(op_units, source)
            if value is None:
                value = _median_over(setup_units, source)
        elif kind == "errors":
            value = errors.get(source[1], 0)
        elif kind == "yield":
            ratios = [u["counts"]["inference.pool_size"] / u["counts"]["inference.pool_capacity"]
                      for u in op_units if "inference.pool_capacity" in u["counts"]]
            value = statistics.median(ratios) if ratios else 0.0
        elif kind == "accounted":
            value = min(sum(u["layers"].values()) / u["wall_s"] for u in op_units)
        else:
            value = overhead
        out[name] = {"value": float(value or 0.0), "unit": unit}
    return out


# --- child phases ---------------------------------------------------------


def _workload(args, workdir):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)


def _tracer_for():
    """A Tracer wrapped around the program's call sites."""
    from hyperinfer import cli, core, experiments, inference, io, probmodel, smoothness, synth

    tracer = spans.Tracer()
    tracer.install({
        "cli": cli, "core": core, "experiments": experiments, "inference": inference,
        "io": io, "probmodel": probmodel, "smoothness": smoothness, "synth": synth,
    })
    return tracer


def phase_setup(args, workdir) -> dict:
    """Time one cold set-up: import the program and prepare the workload's inputs."""
    start = time.perf_counter()
    wl = _workload(args, workdir)
    tracer = _tracer_for() if args.trace else None
    if tracer:
        tracer.begin_op("setup")
    digest = wl.setup(args.rep)
    elapsed = time.perf_counter() - start
    result = {"elapsed_s": elapsed, "digest": digest}
    if tracer:
        tracer.end_op()
        tracer.write(workdir / f"spans-setup{args.rep}.jsonl")
        result["units"] = list(spans.summarize(tracer.spans, tracer.counts).values())
        result["errors"] = dict(tracer.errors)
    return result


def closed_loop(wl, seconds: float, min_ops: int, tracer=None) -> list:
    """Run whole cycles of ops until ``seconds`` have passed and ``min_ops`` are done."""
    records = []
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds or len(records) < min_ops:
        for spec in wl.cycle(cycle):
            record = {"op": len(records), "latency": None, "problem": None, "outcome": None}
            records.append(record)
            if tracer:
                tracer.begin_op(record["op"])
            t0 = time.perf_counter()
            try:
                result = wl.run(spec)
            except Exception as exc:  # a failed op is counted; the run goes on
                record["problem"] = f"op raised {exc!r}"
                continue
            finally:
                latency = time.perf_counter() - t0
                if tracer:
                    tracer.end_op()
            record["latency"] = latency
            try:
                outcome = wl.check(spec, result)
            except Exception as exc:
                record["problem"] = f"check raised {exc!r}"
                continue
            if len(records) > min_ops:
                outcome.files = {}  # only the quality prefix is hashed
            record["outcome"] = outcome
            if outcome.problems:
                record["problem"] = "; ".join(outcome.problems)
            record["label"] = _label(spec)
        cycle += 1
    return records


def _label(spec) -> str:
    if spec is None:
        return "infer+eval"
    kind = spec["variant"].kind if spec["variant"] is not None else "max"
    sizes = "+".join(f"{k}x{c}" for k, c in sorted(spec["edges"].items()))
    return f"n{spec['n']} {sizes} overlap{spec['overlap']} d{spec['dim']} {kind}"


def _env() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _quantile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(records, quality_ops: int) -> tuple[dict, dict]:
    """End-to-end metrics (all but setup_s) and per-config quality of a run's records."""
    import hashlib

    latencies = [r["latency"] for r in records if r["latency"] is not None]
    failed = sum(r["problem"] is not None for r in records)
    # Quality and output digests come from a fixed prefix of ops, so a faster
    # program that runs more ops does not change them.
    prefix = [r["outcome"] for r in records[:quality_ops] if r["outcome"] is not None]
    digests = {}
    for name in ("pred.json", "candidates.csv"):
        h = hashlib.sha256()
        for o in prefix:
            h.update(o.files.get(name, b""))
        digests[name] = h.hexdigest()
    by_label: dict = {}
    gaps: dict = {}
    for r in records[:quality_ops]:
        if r["outcome"] is not None:
            by_label.setdefault(r["label"], []).append(r["outcome"].f1)
            if r["outcome"].gap is not None:
                gaps.setdefault(r["label"], []).append(r["outcome"].gap)
    metrics = {
        "throughput_ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "latency_p50_ms": 1000 * _quantile(latencies, 50) if latencies else 0.0,
        "latency_p90_ms": 1000 * _quantile(latencies, 90) if latencies else 0.0,
        "f1_mean": statistics.fmean(o.f1 for o in prefix) if prefix else 0.0,
        # The worst op configuration's mean gap: the minimum over single ops
        # is an extreme value and spread by 10% from seed to seed.
        "gap_min": min(statistics.fmean(g) for g in gaps.values()) if gaps else 0.0,
        "ok_ops_frac": (len(records) - failed) / len(records),
    }
    extra = {
        "sha256": digests,
        "quality_ops": len(prefix),
        # Reported, not bounded: on infer-csv it counts the errors on one
        # dataset, and spreads by about 40% from seed to seed.
        "hgmse_mean": statistics.fmean(o.hgmse for o in prefix) if prefix else None,
        "f1_by_config": {k: statistics.fmean(v) for k, v in by_label.items()},
    }
    return metrics, extra


def phase_ops(args, workdir) -> dict:
    """Warm up, then run the closed loop, untraced and (with --trace 1) traced."""
    import resource

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(args.seed, workdir / "warmup", tiny=True)
    warm.setup(0)
    warm.load()
    for spec in warm.cycle(0):
        try:
            warm.check(spec, warm.run(spec))
        except Exception:  # the timed ops will fail and be counted
            pass
    wl = _workload(args, workdir)
    wl.load()
    result = {"env": _env()}
    if not args.trace:
        records = closed_loop(wl, args.seconds, wl.quality_ops)
        metrics, extra = end_to_end(records, wl.quality_ops)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(metrics=metrics, **extra)
    else:
        base = closed_loop(wl, args.seconds / 2, 1)
        tracer = _tracer_for()
        records = closed_loop(wl, args.seconds / 2, 1, tracer)
        tracer.active = False
        tracer.write(workdir / "spans-ops.jsonl")
        k = min(len(base), len(records))
        untraced = sum(r["latency"] or 0.0 for r in base[:k])
        traced = sum(r["latency"] or 0.0 for r in records[:k])
        records = base + records
        result.update(
            units=list(spans.summarize(tracer.spans, tracer.counts).values()),
            errors=dict(tracer.errors),
            overhead_frac=1.0 - untraced / traced if traced else 0.0,
        )
    result["attempted"] = len(records)
    result["failed"] = sum(r["problem"] is not None for r in records)
    result["problems"] = [r["problem"] for r in records if r["problem"]][:10]
    return result


# --- parent ---------------------------------------------------------------


def _child(args, phase: str, workdir: Path, rep: int = 0) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--rep", str(rep), "--workdir", str(workdir),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, args.deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    """Set up SETUP_REPS times, run the ops, and assemble the workload's result."""
    workdir = OUT / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setups = [_child(args, "setup", workdir, rep) for rep in range(SETUP_REPS)]
    ops = _child(args, "ops", workdir)
    for scratch in ("data", "warmup", "check"):  # keep only the span files
        shutil.rmtree(workdir / scratch, ignore_errors=True)
    problems = list(ops["problems"])
    if len({s["digest"] for s in setups}) != 1:
        problems.append("set-up repetitions wrote different datasets")
    if args.trace:
        errors: dict = {}
        for part in (ops, *setups):
            for layer, n in part.get("errors", {}).items():
                errors[layer] = errors.get(layer, 0) + n
        setup_units = [u for s in setups for u in s["units"]]
        metrics = layer_metrics(ops["units"], setup_units, errors, ops["overhead_frac"])
    else:
        values = dict(ops["metrics"], setup_s=statistics.median(s["elapsed_s"] for s in setups))
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": ops["env"],
        "setup_digest": setups[0]["digest"],
        "sha256": ops.get("sha256"),
        "quality_ops": ops.get("quality_ops"),
        "hgmse_mean": ops.get("hgmse_mean"),
        "f1_by_config": ops.get("f1_by_config"),
        "problems": problems,
        "correct": not problems,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": metrics,
    }


def _print_report(res: dict) -> None:
    env = res["env"]
    print(f"== {res['workload']}  seed {res['seed']}  {res['seconds']} s  trace {res['trace']}")
    print(f"   nproc {env['nproc']} ({env['cpu']}), python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS threads {env['blas_threads']}")
    frac = res["failed"] / res["attempted"]
    print(f"   ops attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_ops_frac {frac:.6g}), correct {res['correct']}")
    for problem in res["problems"]:
        print(f"   problem: {problem}")
    for name, m in res["metrics"].items():
        print(f"   {name:45s} {m['value']:.6g} {m['unit']}")
    if res["sha256"]:
        print(f"   outputs of the first {res['quality_ops']} ops: "
              + ", ".join(f"{k} sha256 {v[:16]}" for k, v in res["sha256"].items()))
    if res["hgmse_mean"] is not None:
        print(f"   hgmse_mean (not bounded) {res['hgmse_mean']:.6g} over the first {res['quality_ops']} ops")
    for label, f1 in (res["f1_by_config"] or {}).items():
        print(f"   f1 {f1:.4f}  {label}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hyperinfer benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="about forty nodes per dataset; for the self-test")
    parser.add_argument("--phase", choices=("setup", "ops"), help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase:
        workdir = Path(args.workdir)
        result = phase_setup(args, workdir) if args.phase == "setup" else phase_ops(args, workdir)
        print(json.dumps(result))
        return 0
    if not (SRC / "hyperinfer" / "__init__.py").is_file():
        print(f"error: no hyperinfer source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    OUT.mkdir(exist_ok=True)
    for name in names:
        args.workload = name
        args.deadline = time.monotonic() + RUN_TIMEOUT_S
        res = run_workload(args)
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
        path.write_text(json.dumps(res, indent=2) + "\n")
        _print_report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
