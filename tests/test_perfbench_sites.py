"""The benchmark tracer's call sites name attributes that exist.

``perfbench/spans.py`` traces the pipeline by replacing module attributes listed
in its ``SITES``. A renamed function would only surface when the benchmark runs
with ``--trace 1``; this test makes it fail here instead. It reads the file and
changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"hyperinfer.{module}.{attr} (span {span})"
        for module, attr, span in spans.SITES
        if not callable(getattr(importlib.import_module(f"hyperinfer.{module}"), attr, None))
    ]
    assert spans.SITES
    assert missing == []
