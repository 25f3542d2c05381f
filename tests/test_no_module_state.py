"""Per-field and per-prime data has owners (CarlitzTables, CycField and
the MuRing it keeps per precision): no module of the library keeps a cache or table of its
own in a module-level dict, set or list.  `__all__` is the one list, and
each name in it resolves."""

import ast
import pathlib

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
