"""The package entry point: `python -m scamlens` runs `__main__.py`, which
reaches `cli.main` through the package's own `__init__.py`."""

from __future__ import annotations

import subprocess
import sys

from conftest import subprocess_env


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
