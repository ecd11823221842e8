"""Every exported name exists: each module's ``__all__`` and the package's imports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import onebitfb

MODULES = sorted(m.name for m in pkgutil.iter_modules(onebitfb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_name(name):
    module = importlib.import_module(f"onebitfb.{name}")
    namespace = {}
    exec(f"from onebitfb.{name} import *", namespace)  # AttributeError on a stale entry
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_package_imports_exist():
    tree = ast.parse(pathlib.Path(onebitfb.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"onebitfb.{node.module}")
        for alias in node.names:
            assert getattr(onebitfb, alias.asname or alias.name) is getattr(module, alias.name)
