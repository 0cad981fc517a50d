"""The package entry point: `python -m scamlens` runs `__main__.py`, which
reaches `cli.main` through the package's own `__init__.py`."""

from __future__ import annotations

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import scamlens
from conftest import subprocess_env

# One error type per module, and TransportError for the shared request path.
ERROR_TYPES = {
    "attribution.AttributionError",
    "cli.ConfigError",
    "cli.StageError",
    "corpus.CorpusError",
    "detector.DetectorError",
    "evaluation.EvaluationError",
    "generation.GenerationError",
    "generation.TransportError",
}


def test_module_entry_point_prints_the_version():
    result = subprocess.run(
        [sys.executable, "-m", "scamlens", "--version"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "scamlens 0.1.0\n"


def test_cli_import_leaves_requests_unloaded():
    code = "import sys, scamlens.cli; assert 'requests' not in sys.modules, 'requests imported'"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr



def _is_exception_base(base: ast.expr) -> bool:
    """A base named like an exception class, or a builtin exception."""
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    builtin_exception = isinstance(builtin, type) and issubclass(builtin, BaseException)
    return builtin_exception or name.endswith(("Error", "Exception"))


def test_each_module_defines_one_error_type():
    found = {
        f"{path.stem}.{node.name}"
        for path in Path(scamlens.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(map(_is_exception_base, node.bases))
    }
    assert found == ERROR_TYPES
