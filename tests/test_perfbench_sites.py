"""The benchmark's tracer sites and output checks hold against the current package.

``perfbench/spans.py`` traces the pipeline by replacing module attributes listed
in its ``SITES`` and counts the pool from ``generate_candidates``' result;
``perfbench/workloads.py`` checks every op's outputs. A renamed function or a
changed pool shape would otherwise surface only when the benchmark runs, as
failed ops. These tests read those files and change nothing in them.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hyperinfer
from hyperinfer import generate_candidates

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves_to_a_callable(monkeypatch):
    spans = _load(monkeypatch, "spans")
    missing = [
        f"hyperinfer.{module}.{attr} (span {span})"
        for module, attr, span in spans.SITES
        if not callable(getattr(importlib.import_module(f"hyperinfer.{module}"), attr, None))
    ]
    assert spans.SITES
    assert missing == []


def test_every_import_is_used_exported_or_wrapped(monkeypatch):
    # A name only SITES keeps bound is allowed: today inference.build_hypergraph
    # and smoothness.as_features, which go once the benchmark stops wrapping them.
    wrapped = {(module, attr) for module, attr, _ in _load(monkeypatch, "spans").SITES}
    dead = []
    for path in sorted(Path(hyperinfer.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        kept = {node.id for node in nodes if isinstance(node, ast.Name)}
        kept.update(
            name
            for node in nodes
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
            for name in ast.literal_eval(node.value)
        )
        imported = [
            alias.asname or alias.name.partition(".")[0]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        dead += [
            f"{path.stem}.{name}"
            for name in imported
            if name not in kept and (path.stem, name) not in wrapped
        ]
    assert dead == []


def test_pool_counts_add_up_to_the_capacity(monkeypatch):
    spans = _load(monkeypatch, "spans")
    counts = Counter()
    x = np.random.default_rng(0).normal(size=(40, 3))
    spans._count_pool(counts, (), {}, generate_candidates(x, [3, 5]))
    assert counts["inference.pool_capacity"] == 80
    assert counts["inference.pool_size"] + counts["inference.duplicates_dropped"] == 80
    assert counts["inference.pool_size.k3"] + counts["inference.pool_size.k5"] == (
        counts["inference.pool_size"]
    )


@pytest.mark.parametrize("name", ["paper-sweep", "infer-csv", "synth-mixed"])
def test_one_tiny_cycle_passes_the_output_checks(tmp_path, monkeypatch, name):
    workloads = _load(monkeypatch, "workloads")
    wl = workloads.WORKLOADS[name](0, tmp_path, tiny=True)
    wl.setup(0)
    wl.load()
    for spec in wl.cycle(0):
        outcome = wl.check(spec, wl.run(spec))
        assert outcome.ok, outcome.problems
