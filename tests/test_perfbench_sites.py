"""The benchmark's tracer sites and output checks hold against the current package.

``perfbench/spans.py`` traces the pipeline by replacing module attributes listed
in its ``SITES`` and counts the pool from ``generate_candidates``' result;
``perfbench/workloads.py`` checks every op's outputs. A renamed function or a
changed pool shape would otherwise surface only when the benchmark runs, as
failed ops. These tests read those files and change nothing in them.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
