"""The public API stays consistent with itself.

Every name a module lists in ``__all__`` must exist, and every name the
package imports into ``ateml`` must be listed in its module's ``__all__``,
so that deleting a function without its exports fails here at once.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ateml

MODULES = ("core", "learners", "superlearner", "balance", "estimators", "selection", "dgp")


def package_imports() -> list[tuple[str, str]]:
    """(module, name) for each ``from .module import name`` in ateml/__init__.py."""
    tree = ast.parse(Path(ateml.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"ateml.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"ateml.{module}.__all__ names missing objects: {missing}"


def test_package_imports_only_exported_names():
    imports = package_imports()
    unlisted = [f"{module}.{name}" for module, name in imports
                if name not in importlib.import_module(f"ateml.{module}").__all__]
    assert not unlisted, f"ateml imports names outside their module's __all__: {unlisted}"
    for _, name in imports:
        assert hasattr(ateml, name)
