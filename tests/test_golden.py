"""The reports of the benchmark's commands keep their recorded digests.

bench/golden.json maps each command to the SHA-256 that
bench/check_report.py computes for its JSON report (timing removed, keys
sorted).  Each command runs in process with --out to a temporary file,
and the checker must find no problem and the recorded digest.  The CSV
and text reports of the two benchmark scans, and reports at the cubic
desk pairs, which the benchmark does not run, are pinned below.
"""

import hashlib
import importlib.util
import json
import pathlib
import re

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


# The benchmark's scans in the formats it does not read: SHA-256 of the
# report's bytes, its text report's timing line read as 0 ms.
_SCANS = ("bc-scan --q 2 --P T^14+T^10+T^6+T+1",
          "bc-scan --q 3 --P T^9+2*T^6+2*T^4+2*T^3+2*T^2+1")
SCAN_DIGESTS = {
    _SCANS[0] + " --format csv":
        "03546b7c4e817eb8b1ceb3d5243f85e0a02f0af1bd162083f5b8c74c8149875c",
    _SCANS[1] + " --format csv":
        "cc4282b22fe2ea8df53173001ac720464597cc8dff4e4e35b0e4ab41f8b96082",
    _SCANS[0] + " --format text":
        "9592592eea656f8c3969fbfabd099c579529639a35d6202265bb754f885ce3a8",
    _SCANS[1] + " --format text":
        "a3e7e2ab14f9e3083aac109b08d1df6d2ad7dc82709e13871bb6ca7a608ae118",
}


@pytest.mark.parametrize("command", sorted(SCAN_DIGESTS))
def test_scan_csv_and_text_digest(tmp_path, command):
    path = tmp_path / "report"
    assert main(command.split() + ["--out", str(path)]) == 0
    data = re.sub(rb"(?m)^timing \d+ ms$", b"timing 0 ms",
                  path.read_bytes())
    assert hashlib.sha256(data).hexdigest() == SCAN_DIGESTS[command]


# `verify --suites cnf` at default flags where bench/golden.json does not
# look: (exit status, SHA-256 of the JSON report with timing_ms removed
# and keys sorted).  The cubic prime over F_3 has 22 indeterminate
# `index chi=...` checks and exits 1, so the digest is taken here, not by
# check_report.py.  ROADMAP item 1 (cnf certified at every desk pair)
# raises index precision there and will re-record these digests.
CNF_DIGESTS = {
    "2 T^3+T+1": (
        0, "830a5cc40442de8e2ddfe70a5bcbe1edd95fd431659485c68a78512c0dd918d8"),
    "3 T^3+2*T+1": (
        1, "2bc6ee745178876ea2a0883a2d8267e8d3f406d9c19041edaa9a5a8987cba15d"),
}


def _status_and_digest(tmp_path, argv):
    path = tmp_path / "report.json"
    status = main(argv + ["--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc.pop("timing_ms")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return status, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("pair", sorted(CNF_DIGESTS))
def test_cnf_report_digest(tmp_path, pair):
    q, P = pair.split()
    argv = ["verify", "--q", q, "--P", P, "--suites", "cnf"]
    assert _status_and_digest(tmp_path, argv) == CNF_DIGESTS[pair]


# The special points at (3, T^3+2T+1), digested the same way: anderson
# (L_1 .. L_5 at both places) and cnf at depth 24 (the Galois images of
# each L_{m*}, every index certified).
SPECIAL_POINT_DIGESTS = {
    "verify --q 3 --P T^3+2*T+1 --suites anderson": (
        0, "13f879136687c779a76bd25fc9802c3a787b45fedd3bf509cbeb173d09aa7669"),
    "verify --q 3 --P T^3+2*T+1 --suites cnf --depth 24": (
        0, "9d54e13af1e806ffc7e813e402c12f43de4da16471023725daeca214e96efbc2"),
}


@pytest.mark.parametrize("command", sorted(SPECIAL_POINT_DIGESTS))
def test_special_point_report_digest(tmp_path, command):
    assert _status_and_digest(tmp_path, command.split()) == \
        SPECIAL_POINT_DIGESTS[command]


# The congruence, the P-adic exp/log sample and the P-adic class sums at
# (3, T^3+2T+1), N = 12, digested the same way: cong reads BC'_k, the
# sample is drawn in O_{K,P}, and both P-adic commands expand the exact
# class-sum pairs.
PADIC_DIGESTS = {
    "verify --q 3 --P T^3+2*T+1 --suites cong,padic-explog --N 12": (
        0, "a2e26c6f584b4bb269bec4050f4d16445111ec1ce723afe43ed6e6d467bdaf48"),
    "l-values --q 3 --P T^3+2*T+1 --place P --N 12": (
        0, "9b88a4dfa35211a290e0e60dfd10234342b84b2b4a18fb19d837caa37b4c2bdc"),
    "fitting --q 3 --P T^3+2*T+1 --N 12": (
        0, "7dc7f2d390b6f4ff290dc45ea8fa222f8b4e083bb21cbc6555a8f680ed25aee3"),
}


@pytest.mark.parametrize("command", sorted(PADIC_DIGESTS))
def test_padic_report_digest(tmp_path, command):
    assert _status_and_digest(tmp_path, command.split()) == \
        PADIC_DIGESTS[command]
