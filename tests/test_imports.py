"""The runtime depends on numpy only: every module of the package may
import the standard library, numpy and the package itself, nothing else.
The modules that config checks and exact event-ready runs load import
numpy only inside the functions that build arrays."""

import ast
import importlib
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
    for name, home in stokesim._LAZY.items():
        module = importlib.import_module(f"stokesim.{home}")
        assert getattr(stokesim, name) is (module if name == home else getattr(module, name))


#: module -> the names it held before they moved behind a lazy import, and where they live now
MOVED = {
    "__init__": {
        "measure": "sampling",
        "reduced_density": "metrics",
        "generate_entanglement": "analysis",
        "bell_decompose": "analysis",
    },
}


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_names_still_resolve_from_the_module_that_held_them(name):
    module = importlib.import_module("stokesim" if name == "__init__" else f"stokesim.{name}")
    for attr, home in MOVED[name].items():
        assert getattr(module, attr) is getattr(importlib.import_module(f"stokesim.{home}"), attr)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        module.nothing


#: module -> the names it once forwarded to a module that now holds them alone
DROPPED = {
    "fock": {"reduced_density": "metrics"},
    "detection": {"measure": "sampling"},
    "protocols": {"generate_entanglement": "analysis", "bell_decompose": "analysis"},
}


@pytest.mark.parametrize("name", sorted(DROPPED))
def test_dropped_forwarders_leave_each_name_in_its_home_only(name):
    # the `__getattr__` guard below misses a plain re-import left in the old
    # module; this reads each name off the old module and off its home
    module = importlib.import_module(f"stokesim.{name}")
    for attr, home in DROPPED[name].items():
        assert hasattr(importlib.import_module(f"stokesim.{home}"), attr)
        with pytest.raises(AttributeError, match=f"no attribute '{attr}'"):
            getattr(module, attr)


def defines_module_getattr(tree: ast.Module) -> bool:
    """Whether a module defines a module-level `__getattr__` (PEP 562), by a
    `def` or by an assignment."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        if "__getattr__" in names:
            return True
    return False


def test_only_the_package_root_and_cli_define_a_module_getattr():
    # a name resolves from the module that holds it: the package root exports
    # the numpy modules' names lazily, and `cli` imports its process pool when
    # a pool first needs it; no other module forwards a name that moved away
    owners = {path.stem for path in SRC.glob("*.py") if defines_module_getattr(ast.parse(path.read_text(encoding="utf-8")))}
    assert owners == {"__init__", "cli"}


def test_getattr_guard_sees_defs_and_assignments_at_module_level_only():
    assert defines_module_getattr(ast.parse("def __getattr__(name):\n    pass\n"))
    assert defines_module_getattr(ast.parse("__getattr__ = forwarder(__name__, {})\n"))
    assert not defines_module_getattr(ast.parse("class A:\n    def __getattr__(self, name):\n        pass\n"))


def package_imports(tree: ast.AST) -> set[str]:
    """Package modules imported anywhere in a module, function bodies
    included, named without the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("stokesim.").split(".")[0] for alias in node.names if alias.name.startswith("stokesim"))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stokesim")):
            module = (node.module or "").removeprefix("stokesim").lstrip(".")
            names.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
    return names


def test_sampling_imports_neither_protocols_nor_cli():
    # the dependency runs one way: `protocols` drives sampled runs and imports
    # `sampling` lazily, and `sampling` holds only the Monte Carlo detection
    path = SRC / "sampling.py"
    assert package_imports(ast.parse(path.read_text(encoding="utf-8"))) & {"protocols", "cli"} == set()


def test_layering_guard_sees_imports_inside_functions():
    tree = ast.parse(
        "import numpy\nfrom .detection import FAIL\nimport stokesim.cli\n"
        "def f():\n    from . import protocols, rng\n    from stokesim.fock import Split\n"
    )
    assert package_imports(tree) == {"detection", "cli", "protocols", "rng", "fock"}
