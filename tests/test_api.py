"""The public surface: every name a ``sobcurve`` module exports resolves, and
no module keeps an import it never uses.

A name deleted from a module but still listed in its ``__all__`` fails here;
one still re-exported by ``sobcurve/__init__.py`` fails the import above.  An
import left behind by a deletion fails the unused-import check.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import sobcurve

MODULES = [f"sobcurve.{info.name}" for info in pkgutil.iter_modules(sobcurve.__path__)]
SOURCES = sorted(
    path for path in pathlib.Path(sobcurve.__path__[0]).glob("*.py") if path.name != "__init__.py"
)


def test_every_module_is_found():
    assert {"sobcurve.curve", "sobcurve.metric", "sobcurve.energy"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
