"""The package's public surface: ``__all__`` lists exactly the public names."""

import types

import mangledworlds


def test_every_export_resolves():
    missing = [name for name in mangledworlds.__all__
               if not hasattr(mangledworlds, name)]
    assert missing == []


def test_every_public_name_is_exported():
    # submodules are reachable as attributes once imported; they are not exports
    public = [name for name, value in vars(mangledworlds).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(set(public) - set(mangledworlds.__all__)) == []
