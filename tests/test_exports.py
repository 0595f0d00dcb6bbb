"""Every name a ``dualitymap`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import dualitymap

MODULES = ["dualitymap"] + [
    f"dualitymap.{info.name}" for info in pkgutil.iter_modules(dualitymap.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing = [n for n in getattr(module, "__all__", ()) if n not in namespace]
    assert not missing
