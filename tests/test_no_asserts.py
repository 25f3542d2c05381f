"""Checks in the library must survive `python -O`, which strips asserts,
and a failed mathematical claim raises ArithmeticError, not AssertionError."""

import ast
import pathlib

import carlitz

SRC = pathlib.Path(carlitz.__file__).parent


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def test_library_has_no_assert_statements():
    found = ["%s:%d" % (name, node.lineno) for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/carlitz: %s" % found


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_raises_no_assertion_error():
    found = ["%s:%d" % (name, node.lineno) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert not found, "raise AssertionError in src/carlitz: %s" % found
