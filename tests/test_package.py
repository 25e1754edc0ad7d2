import importlib
import pkgutil

import pytest

import spun4d

MODULES = ["spun4d"] + [f"spun4d.{m.name}" for m in pkgutil.iter_modules(spun4d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
