"""The package entry point: `python -m scamlens` runs `__main__.py`, which
reaches `cli.main` through the package's own `__init__.py`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import scamlens


def test_module_entry_point_prints_the_version():
    src = str(Path(scamlens.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "scamlens", "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "scamlens 0.1.0\n"
