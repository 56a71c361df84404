"""The public surface holds together: every exported name exists, and the package re-exports only those."""

import ast
import importlib
from pathlib import Path

import pytest

import cvortho

MODULES = ("fock", "schemes", "phasespace", "homodyne")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"cvortho.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_all_names():
    tree = ast.parse(Path(cvortho.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert {module for module, _ in imported} == set(MODULES)
    stale = [f"{module}.{name}" for module, name in imported
             if name not in importlib.import_module(f"cvortho.{module}").__all__]
    assert stale == []
