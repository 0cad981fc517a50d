"""The benchmark (`perfbench/`) calls scamlens by module and attribute name.

Its span tracer (`perfbench/spans.py`) wraps functions by name and skips a
name that no longer exists, so a rename in `scamlens` would blank a per-layer
metric without any error; its input and workload modules
(`inputs.py`, `workload.py`) would fail only when the benchmark runs. Every
name they use must therefore still resolve. The benchmark files are read,
never changed."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scamlens import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_scamlens_attribute(spans):
    assert spans.TARGETS
    missing = [
        t.name
        for t in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"scamlens.{t.module}"), t.attr, None))
    ]
    assert missing == []


def _scamlens_attributes(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for each `module.attribute` in `path`, where
    `module` was imported by `from scamlens import module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scamlens"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


@pytest.mark.parametrize("name", ["inputs.py", "workload.py"])
def test_every_scamlens_name_the_benchmark_uses_resolves(name):
    used = _scamlens_attributes(PERFBENCH / name)
    assert used
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not hasattr(importlib.import_module(f"scamlens.{module}"), attr)
    ]
    assert missing == []


def test_every_wrapper_fires_on_a_mock_pipeline(spans, tmp_path):
    # A wrapper patched on the module fires only if the package calls the
    # function through the module attribute at run time; a by-name import
    # keeps the original and silently blanks the target's layer metric.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"synth": {"per_channel_per_label": 25}, "sample_fraction": 0.2}),
        encoding="utf-8",
    )
    tracer = spans.Tracer()
    with tracer.installed():
        argv = ["pipeline", "--config", str(config), "--mock", "--train", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 0
    assert tracer.missing == []
    fired = tracer.fired()
    silent = {t.name for t in spans.TARGETS if not fired[t.name]}
    # Only a corpus file and the remote endpoints are left out by this run.
    assert silent == {
        "corpus.load_jsonl",
        "generation.generate",
        "generation.generate_many",
        "evaluation.score_nli",
        "evaluation.score_nli_many",
    }
