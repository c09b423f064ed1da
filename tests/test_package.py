"""Package hygiene: declared public names exist, private names stay private."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import certsurf

MODULES = ["certsurf"] + sorted(
    f"certsurf.{info.name}" for info in pkgutil.iter_modules(certsurf.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == [], f"{name}.__all__ lists names it does not define"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_cross_module_imports(name):
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{name} imports private names from sibling modules"


@pytest.mark.parametrize("name", MODULES)
def test_only_krawczyk_picks_preconditioners(name):
    # the Krawczyk kernel computes its own preconditioner; nobody passes one in
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    if name == "certsurf.krawczyk":
        assert "approx_inverse" in imported
    else:
        assert "approx_inverse" not in imported, f"{name} imports approx_inverse"


def _tracer_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "target", _tracer_targets(), ids=lambda t: ".".join(filter(None, t[1:4]))
)
def test_traced_names_resolve(target):
    # the benchmark tracer wraps these by name; a rename breaks --trace 1
    _, module_name, owner_name, attr, _ = target
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
    else:
        owner = getattr(module, owner_name)
        assert callable(vars(owner).get(attr)), f"{module_name}.{owner_name}.{attr} is gone"


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_import(path):
    # the example scripts take minutes to run, so no test runs them; importing
    # each one still catches a library name they use that is gone
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert callable(script.main)
