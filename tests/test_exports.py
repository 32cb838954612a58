"""Every exported name resolves: each module's ``__all__`` and every name
the package imports into ``biscv``, so a deleted function cannot leave a
stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import biscv

MODULES = sorted(m.name for m in pkgutil.iter_modules(biscv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"biscv.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_imports_are_exported_by_their_modules():
    tree = ast.parse(Path(biscv.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"biscv.{node.module}")
        for alias in node.names:
            assert hasattr(biscv, alias.asname or alias.name)
            exported = getattr(module, "__all__", dir(module))
            assert alias.name in exported, (node.module, alias.name)
