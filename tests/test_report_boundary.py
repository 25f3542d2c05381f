"""report.py owns the check row: no other module of the library names a
row key or imports csv, so a row's keys and formats change in one
place."""

import ast
import pathlib

import carlitz

SRC = pathlib.Path(carlitz.__file__).parent
ROW_KEYS = {"lhs_precision", "rhs_precision"}


def _crossings(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ROW_KEYS:
            yield node.lineno, node.value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "csv":
                    yield node.lineno, "import csv"
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "csv":
            yield node.lineno, "from csv import"


def test_only_report_encodes_rows():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    found = ["%s:%d %s" % (path.name, line, what) for path in paths
             if path.name != "report.py"
             for line, what in _crossings(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, "row encoding outside report.py: %s" % found
    # the test sees what it looks for
    report = (SRC / "report.py").read_text()
    assert {what for _, what in _crossings(ast.parse(report))} == \
        ROW_KEYS | {"import csv"}
