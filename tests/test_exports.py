"""Every exported name exists and is read: each module's ``__all__`` and the package's imports."""

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


def _names_read(path: pathlib.Path) -> set[str]:
    """Every name and attribute ``path`` loads: no def, class, assignment, import or string."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_is_read():
    """Each ``__all__`` name is read by the package or by the acceptance suite."""
    files = [*pathlib.Path(onebitfb.__file__).parent.glob("*.py"),
             pathlib.Path(__file__).with_name("test_acceptance.py")]
    read = set().union(*map(_names_read, files))
    unread = [f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(f"onebitfb.{name}"), "__all__", ())
              if export not in read]
    assert unread == []
