"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import iiblab

MODULES = ["iiblab"] + [
    f"iiblab.{info.name}" for info in pkgutil.iter_modules(iiblab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
    assert not missing, f"{name}.__all__ names missing symbols: {missing}"
