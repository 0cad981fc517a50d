"""The benchmark's span tracer (`perfbench/spans.py`) wraps scamlens functions
by module and attribute name, and skips a name that no longer exists. A rename
in `scamlens` would then blank a per-layer metric without any error, so every
target must still resolve. The tracer module is loaded read-only."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves_to_a_scamlens_attribute(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        t.name
        for t in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"scamlens.{t.module}"), t.attr, None))
    ]
    assert missing == []
