"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import nuctrace

MODULES = ["nuctrace"] + [
    f"nuctrace.{info.name}"
    for info in pkgutil.iter_modules(nuctrace.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
