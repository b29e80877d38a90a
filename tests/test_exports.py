"""Every name a halfbubble module lists in __all__ resolves on the module,
so a deleted function cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import halfbubble

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(halfbubble.__path__, "halfbubble."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "repeated export"
    assert [e for e in exported if not hasattr(module, e)] == []
