"""Every name a module exports exists, and something uses it."""

import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import iiblab

MODULES = ["iiblab"] + [
    f"iiblab.{info.name}" for info in pkgutil.iter_modules(iiblab.__path__)
]

SRC = pathlib.Path(iiblab.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
    assert not missing, f"{name}.__all__ names missing symbols: {missing}"


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as variables or attributes; definitions and strings do not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _package():
    """Parsed modules, the names ``__init__`` re-exports, and every name read."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    reexported = {
        alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(*(_referenced_names(t) for t in trees.values()))
    return trees, reexported, used


def test_every_exported_name_is_reachable():
    """A submodule export is read somewhere in the package.

    Imports alone do not count as a use, and neither does a re-export in
    ``__init__``: a name that only tests call belongs under ``tests/``.
    """
    trees, _, used = _package()
    orphans = [
        f"iiblab.{mod}.{sym}"
        for mod, tree in trees.items()
        if mod != "__init__"
        for sym in _dunder_all(tree)
        if sym not in used
    ]
    assert not orphans, f"exported but never used in src/iiblab: {orphans}"


def test_every_public_definition_is_reachable():
    """A public module-level function or class outside ``__all__`` is read
    in the package or re-exported: a helper that only tests call belongs
    under ``tests/``."""
    trees, reexported, used = _package()
    orphans = [
        f"iiblab.{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in _dunder_all(tree)
        and node.name not in used
        and node.name not in reexported
    ]
    assert not orphans, f"public but never read in src/iiblab: {orphans}"


def _public_members(cls):
    """Public methods and properties defined on the class itself."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or isinstance(
            member, (property, functools.cached_property, staticmethod, classmethod)
        ):
            yield name


def test_every_public_method_is_reachable():
    """A public method or property of a public class is read in the package.

    Operator methods (``__mul__`` and the like) are not public names and
    are not checked here.
    """
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    used = set().union(*(_referenced_names(t) for t in trees))
    orphans = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for sym in getattr(module, "__all__", ()):
            cls = getattr(module, sym)
            if not inspect.isclass(cls) or cls.__module__ != name:
                continue
            for member in _public_members(cls):
                if member not in used:
                    orphans.append(f"{name}.{sym}.{member}")
    assert not orphans, f"public but never read in src/iiblab: {orphans}"
