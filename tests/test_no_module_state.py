"""Per-field and per-prime data has owners (CarlitzTables, CycField and
the MuRing it keeps per precision): no module of the library keeps a cache or table of its
own in a module-level dict, set or list.  `__all__` is the one list, and
each name in it resolves."""

import ast
import pathlib

import pytest

import carlitz

SRC = pathlib.Path(carlitz.__file__).parent

DISPLAYS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp,
            ast.ListComp)


def _is_all(stmt):
    return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__all__")


def _module_level_displays(tree):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, DISPLAYS) and not (
                    _is_all(stmt) and isinstance(node, ast.List)):
                yield node


def test_no_module_level_containers():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = ["%s:%d" % (path.name, node.lineno) for path in paths
             for node in _module_level_displays(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, "module-level dict/set/list in src/carlitz: %s" % found


def test_all_names_resolve():
    # every public name is an attribute of the package
    missing = [name for name in carlitz.__all__
               if not hasattr(carlitz, name)]
    assert not missing, "carlitz.__all__ names no attribute: %s" % missing


def test_public_names_are_one_object_in_every_module():
    # the package reads a public name from the first of its modules that
    # binds it: each module that binds it binds the same object
    mods = [m for name, m in list(vars(carlitz).items())
            if getattr(m, "__name__", "") == "carlitz." + name]
    assert len(mods) >= 10
    for name in carlitz.__all__:
        found = {id(vars(m)[name]) for m in mods if name in vars(m)}
        assert found == {id(getattr(carlitz, name))}, name
    # names outside __all__ are not read through the package
    with pytest.raises(AttributeError):
        carlitz.d_inverses_mod_P
