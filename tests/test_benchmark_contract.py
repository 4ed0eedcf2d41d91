"""The benchmark's tracer (perfbench/spans.py) wraps vg2s functions at the
names their callers bind, by replacing `holder.__dict__[attr]`.  A refactor
that drops or moves one of those names breaks every traced benchmark run;
this test catches it in the unit suite instead."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves():
    spans = _load_spans()
    missing = []
    for binding, _ in spans.WRAPS:
        holder, attr = spans._resolve(binding)
        if attr not in holder.__dict__:
            missing.append(binding)
    assert spans.WRAPS and missing == []
