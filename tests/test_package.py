import importlib
import pkgutil

import pytest

import matgauss

MODULES = sorted(m.name for m in pkgutil.iter_modules(matgauss.__path__, "matgauss."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
