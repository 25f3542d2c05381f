import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from carlitz.cli import build_parser, main, make_config
from carlitz import cli, lvalues, special_points
from carlitz.cyclotomic import CycField, InftyEmbedding
from carlitz.fields import make_field
from carlitz.lvalues import ClassSumTable
from carlitz.polynomials import parse_poly
from carlitz.special_points import VerificationReport
from bc_oracle import hr_scan


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


@pytest.mark.parametrize("max_n", [3, 7, 10])
def test_bc_scan_window_below_the_largest_tap(capsys, max_n):
    # at (3, T^3+2T+1) the taps are s_1 = 1 and s_2 = 4: the windows
    # K = max_n // 2 of 3 and 7 stop short of s_2, that of 10 reaches the
    # irregular index 10
    P = parse_poly("T^3+2*T+1", make_field(3))
    code, out = _run(capsys, "bc-scan", "--q", "3", "--P", "T^3+2*T+1",
                     "--max-n", str(max_n), "--format", "json")
    assert code == 0
    want = [n for n in hr_scan(P, mode="exact-small") if n <= max_n]
    params = json.loads(out)["suite_results"][0]["params"]
    assert params["irregular"] == str(want)


def test_bc_scan_high_degree_small_window(capsys):
    # the padding once reached the largest tap (2^40 - 1 entries here),
    # and validating P once trial-divided by 2^20 monics
    code, out = _run(capsys, "bc-scan", "--q", "2", "--P", "T^41+T^3+1",
                     "--max-n", "10", "--format", "json")
    assert code == 0
    checks = json.loads(out)["suite_results"][0]["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 9


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


def test_golden_anderson_recognizes_each_point_once(capsys, monkeypatch):
    # the bench's special_points.recognize.attempts and .retries for the
    # verify-padic golden command: one recognition per m, none retried
    attempts, retries = [], []

    def counting(*a, _recognize=special_points.recognize_integral, **k):
        attempts.append(a[0])
        try:
            return _recognize(*a, **k)
        except ValueError:
            retries.append(a[0])
            raise
    monkeypatch.setattr(special_points, "recognize_integral", counting)
    code, _ = _run(capsys, "verify", "--q", "2", "--P", "T^3+T+1", "--N", "4",
                   "--suites", "anderson,padic-explog", "--format", "json")
    assert code == 0
    assert (len(attempts), len(retries)) == (5, 0)


def test_euler_builds_its_class_table_once(capsys, monkeypatch):
    # the symmetric functions of 1/f per residue class serve all 8
    # characters of (3, T^2+1) from one CycField.memo entry
    builds = []

    def counting(cyc, *a, _build=lvalues._class_symmetric):
        builds.append(cyc)
        return _build(cyc, *a)
    monkeypatch.setattr(lvalues, "_class_symmetric", counting)
    monkeypatch.setattr(CycField, "_instances", {})
    code, out = _run(capsys, "verify", "--q", "3", "--P", "T^2+1",
                     "--suites", "euler", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["suite_results"][0]["checks"]) == 8
    assert len(builds) == 1
    # window 8 at prec 9, held by the CycField
    assert builds[0].memo(("euler_symmetric", 8, 9), lambda: None)


def test_params_spell_P_as_format_poly_prints_it(capsys):
    # every suite and command prints P canonically; the config block
    # keeps the text of --P
    for argv in (["verify", "--suites", "all"], ["bc-scan"], ["l-values"],
                 ["l-values", "--place", "P"], ["fitting"]):
        main(argv + ["--q", "3", "--P", "T^2 + 1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["P"] == "T^2 + 1"
        assert [r["params"]["P"] for r in doc["suite_results"]] == \
            ["T^2+1"] * len(doc["suite_results"]), argv


@pytest.mark.parametrize("name,mutant,broken", [
    ("padic_log", lambda z: z, "log(exp(z)) = z on m^2 sample"),
    ("padic_exp", lambda z: z * z, "v_m(exp(z)) = v_m(z) on m^2 sample")])
def test_padic_explog_sample_catches_mutants(capsys, monkeypatch, name,
                                             mutant, broken):
    # log as the identity breaks the round trip, exp as squaring the
    # valuation: the sample in m^2 must see both
    monkeypatch.setattr(cli, name, mutant)
    assert main(["verify", "--q", "3", "--P", "T^3+2*T+1",
                 "--suites", "padic-explog", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["suite_results"][0]["checks"]
    assert {c["id"]: c["status"] for c in checks}[broken] == "fail"


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
    code = main(["bc-scan", "--q", "3", "--P", "T^2+1", "--format", "json",
                 "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["suite_results"][0]["checks"]


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


def test_config_file_suites_take_effect(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 2\nP_text = T^2+T+1\nsuites = cong\n")
    args = build_parser().parse_args(["verify", "--config", str(cfgfile)])
    assert make_config(args).suites == "cong"
    args = build_parser().parse_args(["verify", "--config", str(cfgfile),
                                      "--suites", "euler"])
    assert make_config(args).suites == "euler"


@pytest.mark.parametrize("text, why", [
    ("q = 3\nP = T^2+1\n", "unknown key 'P'"),
    ("q = 3\nP_text = T^2+1\nformat = xml\n", "format must be one of"),
])
def test_bad_config_file_exits_2(tmp_path, capsys, text, why):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfgfile), "--suites", "cong"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert why in err and err.count("\n") == 1
    if "unknown" in why:
        assert err.rstrip().endswith(
            "(valid: q, P_text, depth, N, guard, format, out, suites, "
            "max_deg_f, max_n)")


@pytest.mark.parametrize("argv, why", [
    (["verify", "--suites", "anderson", "--guard", "-5"], "guard must be >= 1"),
    (["verify", "--suites", "charpoly", "--max-deg-f", "0"],
     "max_deg_f must be >= 1"),
    (["bc-scan", "--max-n", "-4"], "max_n must be >= 2"),
    (["bc-scan", "--max-n", "1"], "max_n must be >= 2"),
    # the scan starts at max(2, q - 1) and ends at q^d - 2
    (["bc-scan", "--q", "5", "--P", "T^2+2", "--max-n", "3"],
     "nothing to scan"),
    (["bc-scan", "--q", "3", "--P", "T+1"], "nothing to scan"),
])
def test_out_of_range_integers_exit_2(capsys, argv, why):
    # (3, T^2+1) unless argv names its own pair, whose flags come later
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--q", "3", "--P", "T^2+1"] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert why in err and err.count("\n") == 1


@pytest.mark.parametrize("flags, cfgtext", [
    (["--suites", ""], ""),
    (["--suites", ","], ""),
    ([], "suites =\n"),
    (["--suites", "all,bogus"], ""),
    ([], "suites = bogus, all\n"),
], ids=["flag-empty", "flag-comma", "config-empty", "flag-all-bogus",
        "config-all-bogus"])
def test_empty_suite_list_exits_2(tmp_path, capsys, flags, cfgtext):
    # a run of no suite would pass vacuously; "all" names every suite and
    # does not excuse a name that is none
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 3\nP_text = T^2+1\n" + cfgtext)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfgfile)] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err and err.count("\n") == 1


_PAIR = ["--q", "3", "--P", "T^2+1"]


@pytest.mark.parametrize("argv, why", [
    (["verify", *_PAIR, "--depth", "x"], "depth must be an integer, got 'x'"),
    (["verify", *_PAIR, "--q", "x"], "q must be an integer, got 'x'"),
    (["verify", *_PAIR, "--q", "1"], "q must be >= 2, got 1"),
    (["verify", *_PAIR, "--format", "xml"],
     "format must be one of json, csv, text, got 'xml'"),
    (["l-values", *_PAIR, "--place", "Q"],
     "argument --place: invalid choice: 'Q'"),
    (["verify", *_PAIR, "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # a flag of another command
    (["verify", *_PAIR, "--max-n", "9"], "unrecognized arguments: --max-n 9"),
    (["verify", *_PAIR, "--depth"], "argument --depth: expected one argument"),
    ([], "the following arguments are required: command"),
], ids=["depth", "q", "q-bound", "format", "place", "unknown-flag",
        "foreign-flag", "no-value", "no-command"])
def test_malformed_flags_exit_2_in_one_line(capsys, argv, why):
    # a flag's value is checked as a config file's is, and argparse's own
    # errors are one line too, with no usage block
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("carlitz: error: ") and err.count("\n") == 1
    assert why in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: carlitz")


def test_config_only_settings_reach_the_config_block(tmp_path, capsys):
    # max_n and guard are not flags of verify, and cong reads neither: the
    # file's values are still the run's, and its digest covers them
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 3\nP_text = T^2+1\nmax_n = 9\nguard = 3\n")
    code, out = _run(capsys, "verify", "--config", str(cfgfile),
                     "--suites", "cong", "--format", "json")
    assert code == 0
    config = json.loads(out)["config"]
    want = {"q": 3, "P": "T^2+1", "depth": 16, "N": 6, "guard": 3,
            "threads": 1, "format": "json", "suites": "cong",
            "max_deg_f": 3, "max_n": 9}
    digest = config.pop("digest")
    assert list(config.items()) == list(want.items())
    canon = json.dumps(want, sort_keys=True).encode()
    assert digest == hashlib.sha256(canon).hexdigest()[:16]
    assert digest == "f070c2daaaaf199c"


def test_padic_explog_prints_the_N_it_samples_at(capsys):
    # the sample is drawn mod P^max(N, 3): at --N 2 it is the run at --N 3
    results = {}
    for N in ("2", "3"):
        code, out = _run(capsys, "verify", "--q", "2", "--P", "T^2+T+1",
                         "--N", N, "--suites", "padic-explog",
                         "--format", "json")
        assert code == 0
        results[N] = json.loads(out)["suite_results"]
    assert results["2"][0]["params"]["N"] == "3"
    assert results["2"] == results["3"]


def _formats(capsys, argv):
    """The exit status and checks of one run in each format, each check
    as (suite, id, status, lhs_precision, rhs_precision, detail) in the
    CSV's cells."""
    out = {}
    for fmt in ("json", "csv", "text"):
        out[fmt] = _run(capsys, *argv, "--format", fmt)
    doc = json.loads(out["json"][1])
    rows = [[r["name"], c["id"], c["status"],
             "" if c["lhs_precision"] is None else str(c["lhs_precision"]),
             "" if c["rhs_precision"] is None else str(c["rhs_precision"]),
             json.dumps(c["detail"], sort_keys=True)]
            for r in doc["suite_results"] for c in r["checks"]]
    assert list(csv.reader(io.StringIO(out["csv"][1])))[1:] == rows
    # text prints no precisions; the config digest covers the format
    lines = out["text"][1].splitlines()
    want = [lines[0]]
    assert lines[0].startswith("# carlitz run (digest ")
    for r in doc["suite_results"]:
        want.append("[%s] %s" % (r["name"], json.dumps(r["params"])))
        want += ["  %-12s %s %s" % (c["status"], c["id"], " ".join(
            "%s=%s" % kv for kv in c["detail"].items())) for c in r["checks"]]
    assert lines[:-1] == want and lines[-1].startswith("timing ")
    codes = {fmt: code for fmt, (code, _) in out.items()}
    assert len(set(codes.values())) == 1, codes
    return codes["json"], rows


def test_formats_print_one_document_and_one_exit_status(capsys, monkeypatch):
    base = ["verify", "--q", "2", "--P", "T^2+T+1"]
    code, rows = _formats(capsys, base + ["--suites", "cong,euler"])
    assert code == 0 and {r[2] for r in rows} == {"pass"}
    # depth 2 certifies too few coefficients for b1
    code, rows = _formats(capsys, base + ["--suites", "b1,cong",
                                          "--depth", "2"])
    assert code == 1 and "indeterminate" in {r[2] for r in rows}
    assert "fail" not in {r[2] for r in rows}
    # a right-hand side off by one P-adic digit fails anderson
    from carlitz import special_points
    from carlitz.padics import MuElem
    real = special_points.embed_padic

    def corrupted(x, N):
        y = real(x, N)
        return y + MuElem(y.ring, [1], N)
    monkeypatch.setattr(special_points, "embed_padic", corrupted)
    code, rows = _formats(capsys, ["verify", "--q", "2", "--P", "T^3+T+1",
                                   "--N", "4", "--suites", "anderson"])
    assert code == 1 and "fail" in {r[2] for r in rows}
    assert "indeterminate" not in {r[2] for r in rows}


def test_bc_scan_prints_one_document_in_every_format(capsys):
    code, rows = _formats(capsys, ["bc-scan", "--q", "3", "--P",
                                   "T^3+2*T+1"])
    assert code == 0 and {r[2] for r in rows} == {"pass"}
    assert [r[1] for r in rows] == ["n=%d" % n for n in range(2, 26, 2)]
    assert {r[3] for r in rows} == {""}


def _dict_render(cfg, reports, elapsed_ms):
    # the oracle: every check materialised as its dict, and one
    # json.dumps of the whole document
    results = [dict(r.as_dict(), checks=list(r.rows())) for r in reports]
    return json.dumps({"config": cfg.as_dict(), "suite_results": results,
                       "timing_ms": elapsed_ms}, check_circular=False) + "\n"


def test_bulk_json_is_the_json_of_the_dict_rows():
    cfg = make_config(build_parser().parse_args(
        ["bc-scan", "--q", "3", "--P", "T^2+1", "--format", "json"]))
    odd = ['a"b', "back\\slash", "50%", "%s%%d", "tab\tbell\x07nul\x00",
           "\u00e9\u03bb\u2202", "\U0001f600", "", "NaN"]
    mixed = VerificationReport("mixed", {"note": '"checks": NaN', "x": 1})
    mixed.add("first", True, lhs_prec=3, value="v")
    mixed.add_passed(["n=%d" % i for i in range(len(odd))], text=odd,
                     number=range(len(odd)), flag=[i % 2 == 0 for i in
                                                  range(len(odd))])
    mixed.add_passed(odd, **{"50%": odd[::-1], "%s": [None] * len(odd)})
    mixed.add("last", False, reason='why "not"')
    bare = VerificationReport("bare", {})
    bare.add_passed(["a", "b"])
    empty = VerificationReport("empty", {"checks": "NaN"})
    empty.add_passed([])
    empty.add_passed([], residue_zero=[])
    plain = VerificationReport("plain", {})
    plain.add("only", True, detail="\x01")
    cases = [[mixed], [bare], [empty], [plain], [mixed, plain, bare, empty],
             [empty, bare]]
    for reports in cases:
        assert cli.render(cfg, reports, 7) == _dict_render(cfg, reports, 7)
    assert [len(list(r.rows())) for r in (mixed, bare, empty)] == [20, 2, 0]
    # iterators, as bc-scan passes them, give their rows once
    once, lists = VerificationReport("s", {}), VerificationReport("s", {})
    once.add_passed(("n=%d" % n for n in range(3)),
                    residue_zero=(n == 1 for n in range(3)))
    lists.add_passed(["n=0", "n=1", "n=2"], residue_zero=[False, True, False])
    assert cli.render(cfg, [once], 7) == _dict_render(cfg, [lists], 7)
    assert list(once.rows()) == []


def test_bc_scan_report_peak_memory():
    # the peak of building and encoding the scan, as a multiple of the
    # report's length: 2.4 with bulk rows encoded through one template,
    # 5.4 when each check was a dict encoded by json.dumps
    cfg = make_config(build_parser().parse_args(
        ["bc-scan", "--q", "2", "--P", "T^14+T^10+T^6+T+1", "--format",
         "json"]))
    tracemalloc.start()
    try:
        text = cli.render(cfg, [cli.cmd_bc_scan(cfg)], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 * 10 ** 6
    assert peak < 4 * len(text), peak / len(text)


def test_missing_config_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bc-scan", "--config", str(tmp_path / "absent.cfg")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("target", ["dir", "missing/x.json"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, target):
    # a directory, or a file in a directory that does not exist: bad
    # input (status 2), not a failed check (status 1) or a traceback, and
    # found before any suite runs
    (tmp_path / "dir").mkdir()

    def refuse(cfg):
        raise AssertionError("run_suites reached")
    monkeypatch.setattr(cli, "run_suites", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--P", "T+1", "--suites", "cong",
              "--out", str(tmp_path / target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out" in err


def test_cli_runs_without_numpy():
    # the package needs only the standard library: a fresh interpreter
    # runs padic-explog, a suite of long prime-field products, and never
    # imports numpy
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys\n"
            "from carlitz.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['verify', '--q', '2', '--P', 'T^3+T+1',\n"
            "                   '--N', '4', '--suites', 'padic-explog'])\n"
            "print(status, 'numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0", "False"]


def test_cli_import_skips_dataclasses():
    # dataclasses imports inspect (and with it ast, dis and tokenize):
    # the report and config classes are plain classes, so a fresh
    # interpreter running the CLI loads neither
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import carlitz.cli\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "False"]


def test_cli_import_skips_csv():
    # csv is imported by the CSV branch of render alone
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import carlitz.cli\n"
            "print('csv' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False"]
