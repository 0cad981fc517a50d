"""The package's public names: every name in `scamlens.__all__` must exist,
or `from scamlens import *` fails for every caller."""

from __future__ import annotations

import scamlens


def test_star_import_resolves_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from scamlens import *", namespace)
    assert set(scamlens.__all__) <= namespace.keys()
