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


def _silent_targets(spans, tmp_path, flags, **config):
    """Names of the span targets that no call reached in one `pipeline --train` run."""
    path = tmp_path / "config.json"
    config = {"synth": {"per_channel_per_label": 25}, "sample_fraction": 0.2, **config}
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer = spans.Tracer()
    with tracer.installed():
        argv = ["pipeline", "--config", str(path), "--train", "--out", str(tmp_path / "run"), *flags]
        assert cli.main(argv) == 0
    assert tracer.missing == []
    fired = tracer.fired()
    return {t.name for t in spans.TARGETS if not fired[t.name]}


def test_every_wrapper_fires_on_a_mock_pipeline(spans, tmp_path):
    # A wrapper patched on the module fires only if the package calls the
    # function through the module attribute at run time; a by-name import
    # keeps the original and silently blanks the target's layer metric.
    silent = _silent_targets(spans, tmp_path, ["--mock"])
    # Only a corpus file and the remote endpoints are left out by this run.
    assert silent == {
        "corpus.load_jsonl",
        "generation.generate",
        "generation.generate_many",
        "evaluation.score_nli",
        "evaluation.score_nli_many",
    }


def test_every_wrapper_fires_on_a_remote_pipeline(spans, tmp_path, stub_server, monkeypatch):
    # The remote clients call `generate` and `score_nli` on worker threads,
    # once per request, inside `generate_many` and `score_nli_many`.
    monkeypatch.setenv("STUB_LLM_KEY", "k1")
    def respond(path, body):
        if path == "/chat/completions":
            return {"choices": [{"message": {"content": "This urgent link is a scam."}}]}
        return {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}

    stub_server.script = [{"status": 200, "body": respond}]
    endpoint = {"base_url": stub_server.url, "max_retries": 0, "timeout": 10}
    silent = _silent_targets(
        spans,
        tmp_path,
        [],
        llm={**endpoint, "model_name": "stub-model", "api_key_env_var": "STUB_LLM_KEY"},
        nli=endpoint,
    )
    assert silent == {"corpus.load_jsonl", "generation.mock_generate", "evaluation.mock_score_nli"}
