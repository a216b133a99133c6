import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tvqueue

MODULES = sorted(m.name for m in pkgutil.iter_modules(tvqueue.__path__))


def _package_imports():
    """(module, name) of every `from .module import name` in tvqueue/__init__.py."""
    tree = ast.parse(Path(tvqueue.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"tvqueue.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"tvqueue.{module}")
        assert name in mod.__all__, f"tvqueue.{module}.{name}"
        assert getattr(tvqueue, name) is getattr(mod, name)
