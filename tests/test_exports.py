"""Every exported name resolves: a stale entry would break `from qgraph.x import *`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qgraph

MODULES = [m.name for m in pkgutil.iter_modules(qgraph.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    module = importlib.import_module(f"qgraph.{name}")
    namespace = {}
    exec(f"from qgraph.{name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(qgraph.__file__).read_text())
    imports = [
        (node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"qgraph.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(qgraph, name) is getattr(module, name)
