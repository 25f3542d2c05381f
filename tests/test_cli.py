import csv
import io
import json

import pytest

from carlitz.cli import build_parser, main, make_config
from carlitz.cyclotomic import CycField, InftyEmbedding
from carlitz.lvalues import ClassSumTable


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bc_scan_json_schema(capsys):
    code, out = _run(capsys, "bc-scan", "--q", "3", "--P", "T^2+1",
                     "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "suite_results", "timing_ms"}
    assert doc["config"]["q"] == 3 and doc["config"]["digest"]
    checks = doc["suite_results"][0]["checks"]
    assert [c["id"] for c in checks] == ["n=2", "n=4", "n=6"]
    for c in checks:
        assert set(c) == {"id", "status", "lhs_precision", "rhs_precision",
                          "detail"}


def test_bc_scan_regular_prime_empty(capsys):
    code, out = _run(capsys, "bc-scan", "--q", "2", "--P", "T^2+T+1",
                     "--format", "json")
    doc = json.loads(out)
    assert doc["suite_results"][0]["params"]["irregular"] == "[]"


def test_l_values_padic_odd_rows_zero(capsys):
    code, out = _run(capsys, "l-values", "--q", "3", "--P", "T+1",
                     "--place", "P", "--N", "6", "--format", "json")
    assert code == 0
    for c in json.loads(out)["suite_results"][0]["checks"]:
        if c["detail"]["parity"] == "odd":
            assert c["detail"]["value"] == "0"
        else:
            assert c["detail"]["value"] != "0"


def test_l_values_inf_leading_coefficient_one(capsys):
    code, out = _run(capsys, "l-values", "--q", "3", "--P", "T^2+1",
                     "--depth", "8", "--format", "json")
    assert code == 0
    for c in json.loads(out)["suite_results"][0]["checks"]:
        lead = c["detail"]["leading"]
        first = lead.strip("[]' ").split(",")[0].split(":")[-1].strip("' ")
        assert first == "1", c["id"]


def test_verify_selected_suites_exit_zero(capsys):
    code, out = _run(capsys, "verify", "--q", "2", "--P", "T^2+T+1",
                     "--suites", "cong,euler", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["suite_results"]]
    assert names == ["cong", "euler"]
    assert all(c["status"] == "pass"
               for r in doc["suite_results"] for c in r["checks"])


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--P", "T^2+T+1", "--suites", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("q, P, why", [
    ("6", "T+1", "p must be prime"),
    ("3", "T^2+2", "P must be irreducible"),
    ("3", "2*T^2+1", "P must be monic"),
    ("3", "T^^2", "cannot parse"),
])
def test_bad_field_input_exits_2(capsys, q, P, why):
    with pytest.raises(SystemExit) as exc:
        main(["bc-scan", "--q", q, "--P", P])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert why in err and err.count("\n") == 1


def test_verify_builds_each_table_once(capsys, monkeypatch):
    # depth 10: cnf and b1 share the depth-10 class sums, euler uses its
    # own window of 8
    built = {ClassSumTable: 0, InftyEmbedding: 0}
    for cls in built:
        def counting(self, *a, _cls=cls, _init=cls.__init__, **k):
            built[_cls] += 1
            _init(self, *a, **k)
        monkeypatch.setattr(cls, "__init__", counting)
    monkeypatch.setattr(CycField, "_instances", {})
    _run(capsys, "verify", "--q", "3", "--P", "T^2+1", "--depth", "10",
         "--suites", "cnf,b1,euler", "--format", "json")
    assert built[ClassSumTable] == 2
    assert built[InftyEmbedding] <= 1


def test_fitting_report(capsys):
    code, out = _run(capsys, "fitting", "--q", "2", "--P", "T^2+T+1",
                     "--format", "json")
    assert code == 0
    checks = json.loads(out)["suite_results"][0]["checks"]
    trivial = [c for c in checks if c["id"] == "odd chi=0"]
    assert trivial and trivial[0]["detail"]["case"] == "trivial"


def test_csv_projection(capsys):
    code, out = _run(capsys, "verify", "--q", "2", "--P", "T^2+T+1",
                     "--suites", "cong", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "check", "status", "lhs_precision",
                       "rhs_precision", "detail"]
    assert all(r[2] == "pass" for r in rows[1:])


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["bc-scan", "--q", "3", "--P", "T+1", "--format", "json",
                 "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    json.loads(path.read_text())


def test_config_file_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 3\nP_text = T+1\ndepth = 9  # comment\n")
    args = build_parser().parse_args(["verify", "--config", str(cfgfile),
                                      "--suites", "cong"])
    cfg = make_config(args)
    assert cfg.q == 3 and cfg.P_text == "T+1" and cfg.depth == 9


def test_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 3\nP_text = T+1\ndepth = 9\n")
    args = build_parser().parse_args(["verify", "--config", str(cfgfile),
                                      "--depth", "12"])
    cfg = make_config(args)
    assert cfg.depth == 12


def test_missing_required_flags():
    args = build_parser().parse_args(["bc-scan"])
    with pytest.raises(SystemExit) as exc:
        make_config(args)
    assert exc.value.code == 2
