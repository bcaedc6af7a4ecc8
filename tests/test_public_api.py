"""The package's public surface: every exported name exists."""

import mangledworlds


def test_every_export_resolves():
    missing = [name for name in mangledworlds.__all__
               if not hasattr(mangledworlds, name)]
    assert missing == []
