from __future__ import annotations

import importlib
import pkgutil

import pytest

import scatterlab

MODULES = ["scatterlab"] + [
    f"scatterlab.{m.name}" for m in pkgutil.iter_modules(scatterlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
