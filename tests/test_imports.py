"""The runtime depends on numpy only: every module of the package may
import the standard library, numpy and the package itself, nothing else."""

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
