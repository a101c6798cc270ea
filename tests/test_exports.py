import importlib
import pkgutil

import pytest

import gmsteady

_MODULES = ["gmsteady"] + [f"gmsteady.{info.name}" for info in pkgutil.iter_modules(gmsteady.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
