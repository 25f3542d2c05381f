"""The reports of the benchmark's commands keep their recorded digests.

bench/golden.json maps each command to the SHA-256 that
bench/check_report.py computes for its JSON report (timing removed, keys
sorted).  Each command runs in process with --out to a temporary file,
and the checker must find no problem and the recorded digest.
"""

import importlib.util
import json
import pathlib

import pytest

from carlitz.cli import main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _check_report():
    spec = importlib.util.spec_from_file_location(
        "carlitz_bench_check_report", BENCH / "check_report.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.check


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_report_digest(tmp_path, command):
    path = tmp_path / "report.json"
    assert main(command.split() + ["--out", str(path)]) == 0
    problem, digest = _check_report()(str(path))
    assert problem is None
    assert digest == GOLDEN[command]
