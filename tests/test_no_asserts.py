"""Checks in the library must survive `python -O`, which strips asserts."""

import ast
import pathlib

import carlitz

SRC = pathlib.Path(carlitz.__file__).parent


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/carlitz: %s" % found
