"""Every name the package and its modules export resolves, the package
declares each of them once, the README library map names each of them, each
of them has a caller outside the tests, no module imports a name it leaves
unused, every entry point the benchmark tracer patches exists and its count
hooks read what the library passes them, and the README's rep example
loads."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import orjson
import pytest

import nuctrace

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["nuctrace"] + [
    f"nuctrace.{info.name}"
    for info in pkgutil.iter_modules(nuctrace.__path__)
    if info.name != "__main__"
]

# the modules the package re-exports whole, in package order
LIBRARY = [nuctrace.exponents, nuctrace.seqspace, nuctrace.nuclear,
           nuctrace.factorization, nuctrace.spectra, nuctrace.harness]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_surface_is_the_module_surfaces():
    names = nuctrace.__all__
    assert len(names) == len(set(names))
    assert names == [n for m in LIBRARY for n in m.__all__] + ["cli_main", "__version__"]
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(nuctrace, name) is getattr(module, name), name
    assert nuctrace.cli_main is nuctrace.cli.cli_main


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_readme_library_map_names_every_export(module):
    """Each name in ``__all__`` opens a code span (`name` or `name(...)`) in
    the module's row of the README library map."""
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith(f"| `{module.__name__}`")]
    assert len(rows) == 1
    missing = [name for name in module.__all__
               if not re.search(rf"`{re.escape(name)}(?!\w)", rows[0])]
    assert missing == []


# exported names that no code outside the tests uses yet, each with its reason
UNCALLED = {
    "quasi_norm_value": "its first library caller is the suite gate on the paper's bound",
}


def _references(path: Path, strings: bool) -> set[str]:
    """Names ``path`` reads (``name`` or ``obj.name``), and with ``strings``
    its string constants too, which is how the tracer names its targets;
    definitions and ``__all__`` lists are not references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    """A name only the tests call is code the instrument does not need."""
    used = set()
    for folder in ("src/nuctrace", "demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _references(path, strings=folder == "perfbench")
    uncalled = [n for m in LIBRARY for n in m.__all__ if n not in used]
    assert sorted(uncalled) == sorted(UNCALLED)


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but neither uses nor lists in ``__all__``;
    star imports and ``from __future__`` are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


SOURCES = [path for folder in ("src/nuctrace", "demos", "tests")
           for path in sorted((ROOT / folder).glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_entry_point_exists():
    tracer = _load_tracer()
    missing = [name for name, owner, attr, _ in tracer._targets(nuctrace) if not hasattr(owner, attr)]
    assert missing == []


def test_traced_hooks_read_what_the_library_passes(tmp_path):
    # the hooks index their arguments (compose's ops[0], say), so a change
    # in what the library hands them raises here, not first in the benchmark
    tracer = _load_tracer().Tracer(nuctrace)
    config = nuctrace.ExperimentConfig(
        p=nuctrace.Exponent(2), family="random_unit", decay=nuctrace.DecayProfile(1.1, 4),
        ladder=(6,), seed=1, out_dir=str(tmp_path), cases_per_level=1)
    tracer.install()
    try:
        tracer.begin_pass(0)
        tracer.begin_op()
        rep = nuctrace.generate_family(config, 6)
        nuctrace.pipeline_to_json(nuctrace.build_pipeline(rep))
        nuctrace.spectral_report(rep)
        assert nuctrace.run_trace_suite(config).failed == 0
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    seen = {tracer.names[i] for i in spans["name"]}
    assert {"seqspace.compose", "seqspace.DenseOperator", "nuclear.NuclearRep",
            "factorization.build_pipeline", "factorization.pipeline_to_json",
            "spectra.eigen_spectrum", "harness.run_trace_suite"} <= seen
    assert not spans["err"].any()
    assert tracer.counters["seqspace.compose.gflop"] > 0
    assert tracer.counters["spectra.eigen_spectrum.gflop"] > 0


def test_readme_rep_example_loads():
    """The rep file shown under "Representations travel as JSON" keeps to
    the loader's rules (an order on the curve, numbers as JSON numbers)."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index("Representations travel as JSON"):]
    block = re.search(r"```json\n(.*?)```", after, re.S).group(1)
    rep = nuctrace.rep_from_json(orjson.loads(block))
    report = nuctrace.spectral_report(rep)
    assert report.matrix_trace == nuctrace.nuclear_trace(rep) == 1.0
    assert report.lidskii_residual == 0.0
