"""Each module's ``__all__`` names only members the module has, and the
package imports only names its modules export, so a member that is
deleted or renamed cannot stay exported.
"""

import ast
import importlib
import pkgutil

import pytest

import passivebc

from conftest import ROOT

MODULES = sorted(m.name for m in pkgutil.iter_modules(passivebc.__path__))


def exported(module) -> list[str]:
    """The names ``from module import *`` binds: ``__all__``, or the
    public names of a module without one."""
    return getattr(module, "__all__",
                   [n for n in vars(module) if not n.startswith("_")])


def package_imports() -> list[tuple[str, str]]:
    """``(module, name)`` of each ``from .module import name`` in the
    package's ``__init__.py``."""
    tree = ast.parse((ROOT / "src" / "passivebc" / "__init__.py").read_text(
        encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names]


def test_package_imports_from_its_modules():
    assert len(package_imports()) >= 40


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"passivebc.{name}")
    assert [n for n in exported(module) if not hasattr(module, n)] == []


@pytest.mark.parametrize("module, name", package_imports())
def test_package_imports_only_exported_names(module, name):
    assert name in exported(importlib.import_module(f"passivebc.{module}"))
