"""Span tracing from outside the program, by wrapping module attributes.

hyperinfer's modules call each other through names bound at import time
(``from .smoothness import pairwise_sq_dists`` in ``inference``), so a call
from one layer into another goes through an attribute of the calling module.
``SITES`` lists those attributes for every call the benchmarked pipeline makes.
``Tracer.install`` replaces each one with a wrapper that records a span, so no
source file of the program changes.

A span holds its name, start, end, parent span and op id. Spans stay in memory
until the run ends. Self time is a span's duration minus the durations of its
child spans; because the program is single-threaded and calls nest, the self
times of all spans of an op add up to the op's own span.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "synth", "probmodel", "core", "smoothness", "inference",
    "metrics", "io", "cli", "experiments",
)

# The benchmark's own span around each op. Its self time is the time the
# benchmark spends inside the op outside every program call.
OP_SPAN = "bench.op"

# (calling module, attribute it calls through, span name = layer.function)
SITES = (
    ("experiments", "run_protocol", "experiments.run_protocol"),
    ("experiments", "make_dataset", "synth.make_dataset"),
    ("experiments", "normalize_features", "core.normalize_features"),
    ("experiments", "infer_hypergraph", "inference.infer_hypergraph"),
    ("experiments", "f1_exact", "metrics.f1_exact"),
    ("experiments", "hgmse", "metrics.hgmse"),
    ("experiments", "probability_separation", "metrics.probability_separation"),
    ("cli", "main", "cli.main"),
    ("cli", "read_features", "io.read_features"),
    ("cli", "write_features", "io.write_features"),
    ("cli", "read_hypergraph", "io.read_hypergraph"),
    ("cli", "write_hypergraph", "io.write_hypergraph"),
    ("cli", "write_candidates", "io.write_candidates"),
    ("cli", "load_candidates", "io.load_candidates"),
    ("cli", "write_manifest", "io.write_manifest"),
    ("cli", "write_metrics", "io.write_metrics"),
    ("cli", "normalize_features", "core.normalize_features"),
    ("cli", "infer_hypergraph", "inference.infer_hypergraph"),
    ("cli", "make_dataset", "synth.make_dataset"),
    ("cli", "f1_exact", "metrics.f1_exact"),
    ("cli", "hgmse", "metrics.hgmse"),
    ("cli", "probability_separation", "metrics.probability_separation"),
    ("synth", "generate_ground_truth", "synth.generate_ground_truth"),
    ("synth", "overlap_rate", "synth.overlap_rate"),
    ("synth", "build_hypergraph", "core.build_hypergraph"),
    ("synth", "incidence_laplacian", "probmodel.incidence_laplacian"),
    ("synth", "sample_features", "probmodel.sample_features"),
    ("probmodel", "incidence_matrix", "core.incidence_matrix"),
    ("inference", "as_features", "core.as_features"),
    ("inference", "build_hypergraph", "core.build_hypergraph"),
    ("inference", "pairwise_sq_dists", "smoothness.pairwise_sq_dists"),
    ("inference", "variant_edge_smoothness", "smoothness.variant_edge_smoothness"),
    ("inference", "generate_candidates", "inference.generate_candidates"),
    ("inference", "score_candidates", "inference.score_candidates"),
    ("inference", "infer_probabilities", "inference.infer_probabilities"),
    ("inference", "select_edges", "inference.select_edges"),
    ("smoothness", "as_features", "core.as_features"),
    ("core", "as_features", "core.as_features"),
    ("io", "as_features", "core.as_features"),
    ("io", "build_hypergraph", "core.build_hypergraph"),
)


def _count_as_features(counts, args, kwargs, result):
    counts["core.as_features.elements"] += result.size


def _count_pairwise(counts, args, kwargs, result):
    n = result.shape[0]
    counts["smoothness.pairwise_sq_dists.bytes_computed"] += 8 * n * n


def _count_sample_features(counts, args, kwargs, result):
    lap, cfg = args
    size = lap.size
    counts["probmodel.sample_features.flops_computed"] += size**3 / 3 + size**2 * cfg.dim
    counts["probmodel.sample_features.bytes_computed"] += 8 * size * size


def _count_read_features(counts, args, kwargs, result):
    counts["io.read_features.bytes"] += os.path.getsize(args[0])


def _count_write_candidates(counts, args, kwargs, result):
    counts["io.write_candidates.bytes"] += os.path.getsize(args[0])


def _count_pool(counts, args, kwargs, result):
    capacity = result.n * len(result.sizes)
    counts["inference.pool_size"] += len(result)
    counts["inference.pool_capacity"] += capacity
    counts["inference.duplicates_dropped"] += capacity - len(result)
    for k, c in result.size_counts().items():
        counts[f"inference.pool_size.k{k}"] += c


# Work counts taken at a layer boundary from the call's arguments and result.
# They are computed from shapes, so they repeat exactly from run to run.
COUNTERS = {
    "core.as_features": _count_as_features,
    "smoothness.pairwise_sq_dists": _count_pairwise,
    "probmodel.sample_features": _count_sample_features,
    "io.read_features": _count_read_features,
    "io.write_candidates": _count_write_candidates,
    "inference.generate_candidates": _count_pool,
}


# Spans whose peak allocation is measured. tracemalloc runs only inside them:
# tracing every allocation made planting ten times slower.
MEMORY_SPANS = frozenset({"inference.generate_candidates"})


class Tracer:
    """Records spans and counts while ``active``; a pass-through otherwise.

    A span named in ``MEMORY_SPANS`` also records the peak of memory allocated
    during it, from ``tracemalloc``, started on entry and stopped on exit.
    """

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[list] = []  # [name, start, end, parent, op, peak bytes]
        self.counts: dict = {}  # op id -> Counter
        self.errors: Counter = Counter()  # layer -> exceptions raised there
        self._stack: list[list] = []  # [span index, owns tracemalloc]
        self._installed: list[tuple] = []
        self._last_error = None

    def install(self, modules) -> None:
        """Wrap every call site in ``SITES``; ``modules`` maps names to module objects."""
        for mod_name, attr, name in SITES:
            module = modules[mod_name]
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(fn, name))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.exit()
                tracer.error(name, exc)
                raise
            tracer.exit()
            if count is not None:
                count(tracer.counts.setdefault(tracer.op, Counter()), args, kwargs, result)
            return result

        return traced

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        memory = name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        self.spans.append([name, 0.0, 0.0, parent, self.op, 0])
        self._stack.append([len(self.spans) - 1, memory])
        self.spans[-1][1] = time.perf_counter()

    def exit(self) -> None:
        end = time.perf_counter()
        index, memory = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        if memory:
            span[5] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def error(self, name: str, exc: BaseException) -> None:
        # An exception passes through every enclosing span; count it once, in
        # the layer it came out of first.
        if exc is not self._last_error:
            self.errors[name.split(".")[0]] += 1
            self._last_error = exc

    def begin_op(self, op) -> None:
        self.op = op
        self.active = True
        self.enter(OP_SPAN)

    def end_op(self) -> None:
        self.exit()
        self.active = False

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, peak) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op, "peak_bytes": peak}
                ) + "\n")


def summarize(spans, counts=None) -> dict:
    """Per op: every span name's total, self time, calls and peak, plus layer self times.

    ``spans`` is a list of [name, start, end, parent index, op, peak bytes].
    Returns {op: {"wall_s", "functions": {name: {...}}, "layers": {layer: self_s},
    "counts": {...}}}. ``wall_s`` is the duration of the op's root span.
    """
    self_s = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out: dict = {}
    for i, (name, start, end, parent, op, peak) in enumerate(spans):
        unit = out.setdefault(op, {"wall_s": 0.0, "functions": {}, "layers": {}, "counts": {}})
        if parent < 0:
            unit["wall_s"] += end - start
        fn = unit["functions"].setdefault(
            name, {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_mb": 0.0}
        )
        fn["s"] += end - start
        fn["self_s"] += self_s[i]
        fn["calls"] += 1
        fn["peak_mb"] = max(fn["peak_mb"], peak / 2**20)
        layer = name.split(".")[0]
        unit["layers"][layer] = unit["layers"].get(layer, 0.0) + self_s[i]
    for op, counter in (counts or {}).items():
        if op in out:
            out[op]["counts"] = dict(counter)
    return out
