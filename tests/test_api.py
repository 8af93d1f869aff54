"""Every name the package and its modules export resolves, and so does
every entry point the benchmark tracer patches."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_every_traced_entry_point_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name, owner, attr, _ in tracer._targets(nuctrace) if not hasattr(owner, attr)]
    assert missing == []
