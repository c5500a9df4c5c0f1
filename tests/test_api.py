"""The public surface: every name a ``sobcurve`` module exports resolves, no
module keeps an import or a private helper it never uses, and every hidden
(underscore-prefixed) parameter of an exported function is on an allowlist
that says why it exists.

A name deleted from a module but still listed in its ``__all__`` fails here;
one still re-exported by ``sobcurve/__init__.py`` fails the import above.  An
import left behind by a deletion fails the unused-import check, and a private
helper left behind when its callers moved fails the dead-helper check.  A
new hidden parameter fails the allowlist check until it is listed with its
reason.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import sobcurve
from conftest import run_fresh

MODULES = [f"sobcurve.{info.name}" for info in pkgutil.iter_modules(sobcurve.__path__)]
SOURCES = sorted(
    path for path in pathlib.Path(sobcurve.__path__[0]).glob("*.py") if path.name != "__init__.py"
)


def test_the_package_loads_no_scipy():
    loaded = run_fresh(
        "import sys, sobcurve, sobcurve.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded.strip() == "[]"


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


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_private_helpers_are_used():
    # every top-level _name a module defines is read somewhere in the package:
    # by name, as a module attribute, or through an import
    paths = sorted(pathlib.Path(sobcurve.__path__[0]).glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    defined = {
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for node in tree.body
        for name in _top_level_names(node)
        if name.startswith("_") and not name.startswith("__")
    }
    assert sorted(d for d in defined if d.split(".", 1)[1] not in used) == []


#: Every underscore-prefixed parameter of a function in a module's __all__,
#: and why it exists.
HIDDEN_PARAMETERS = {
    "sobcurve.geodesic.el_step._blocks": (
        "the extension stacks of one nested quotient share their Hessian blocks; exp_k's "
        "steps and transport_path's extensions pass their chain's state, which holds the "
        "chain's stop tolerance, its reused preconditioner inverse and the contractions "
        "that predict its stops; exp_k keeps calling el_step by its module name, which "
        "the benchmark tracer rebinds to count steps"
    ),
    "sobcurve.geodesic.el_midpoint._blocks": (
        "the midpoint stacks of one nested quotient share their Hessian blocks; "
        "transport_path's midpoint solves pass their chain's state, which holds the "
        "chain's stop tolerance, its reused preconditioner inverse and the contractions "
        "that predict its stops"
    ),
}


def test_hidden_parameters_are_allowlisted():
    found = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", ()):
            fn = getattr(module, entry)
            if inspect.isfunction(fn):
                found |= {f"{name}.{entry}.{param}" for param in inspect.signature(fn).parameters
                          if param.startswith("_")}
    assert sorted(found) == sorted(HIDDEN_PARAMETERS)
