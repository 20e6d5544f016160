"""The runtime depends on numpy only: every module of the package may
import the standard library, numpy and the package itself, nothing else.
The modules that config checks and exact event-ready runs load import
numpy only inside the functions that build arrays."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stokesim"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stokesim"}


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_roots(tree) <= ALLOWED, sorted(imported_roots(tree) - ALLOWED)


def test_guard_sees_third_party_imports():
    tree = ast.parse("import scipy.linalg\nfrom numpy import fft\nfrom . import fock\nimport json\n")
    assert imported_roots(tree) - ALLOWED == {"scipy"}


#: modules that load without numpy, so that `validate`, config errors and exact
#: event-ready runs and sweeps never import it; `rng`, `metrics`, `sampling` and
#: `analysis` import numpy at the top, and the modules here import them only
#: where arrays are built
NUMPY_FREE = ("__init__", "__main__", "cli", "errors", "fock", "elements", "sources", "detection", "protocols")
#: what loads numpy: numpy itself, or the package modules that import it
NUMPY_LOADERS = {"numpy", "rng", "metrics", "sampling", "analysis"}


def import_time_modules(tree: ast.AST) -> set[str]:
    """Modules imported by the statements that run when the module is
    imported: the body and its blocks and class bodies, not function
    bodies.  Package modules are named without the package."""
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("stokesim.").split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("stokesim").lstrip(".")
            names.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_module_loads_numpy_only_inside_functions(name):
    path = SRC / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert import_time_modules(tree) & NUMPY_LOADERS == set()


def test_numpy_guard_sees_module_level_imports_only():
    tree = ast.parse(
        "import numpy.linalg\nfrom .rng import trial_rng\nif True:\n    from . import metrics\n"
        "class A:\n    import json\n"
        "def f():\n    import numpy as np\n    from . import rng\n"
    )
    assert import_time_modules(tree) == {"numpy", "rng", "metrics", "json"}


def test_the_package_exports_numpy_modules_and_their_names_on_first_read():
    import stokesim
    from stokesim import metrics, rng

    for name, value in [("metrics", metrics), ("rng", rng), ("purity", metrics.purity), ("trial_rng", rng.trial_rng)]:
        assert stokesim.__getattr__(name) is value
    with pytest.raises(AttributeError, match="no attribute 'numpy'"):
        stokesim.__getattr__("numpy")



#: module -> the names it held before they moved behind a lazy import, and where they live now
MOVED = {
    "fock": {"reduced_density": "metrics"},
    "detection": {"measure": "sampling", "_step_table": "sampling"},
    "protocols": {
        "_SampledProtocol": "sampling",
        "_cached_protocol": "sampling",
        "generate_entanglement": "analysis",
        "bell_decompose": "analysis",
    },
    "__init__": {
        "measure": "sampling",
        "reduced_density": "metrics",
        "generate_entanglement": "analysis",
        "bell_decompose": "analysis",
    },
}


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_names_still_resolve_from_the_module_that_held_them(name):
    import importlib

    module = importlib.import_module("stokesim" if name == "__init__" else f"stokesim.{name}")
    for attr, home in MOVED[name].items():
        assert getattr(module, attr) is getattr(importlib.import_module(f"stokesim.{home}"), attr)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        module.nothing
