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

from carlitz.cli import FORMATS, main, make_config, parse_args
from carlitz import cli, core, lvalues, report, special_points
from carlitz.cyclotomic import CycField, InftyEmbedding
from carlitz.fields import make_field
from carlitz.lvalues import ClassSumTable
from carlitz.polynomials import parse_poly
from carlitz.report import VerificationReport
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
    # valuation: the sample in m^2 must see both; cli calls them through
    # core
    monkeypatch.setattr(core, name, mutant)
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
    args = parse_args(["verify", "--config", str(cfgfile), "--suites",
                       "cong"])
    cfg = make_config(args)
    assert cfg.q == 3 and cfg.P_text == "T+1" and cfg.depth == 9


def test_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 3\nP_text = T+1\ndepth = 9\n")
    args = parse_args(["verify", "--config", str(cfgfile), "--depth",
                       "12"])
    cfg = make_config(args)
    assert cfg.depth == 12


def test_missing_required_flags():
    args = parse_args(["bc-scan"])
    with pytest.raises(SystemExit) as exc:
        make_config(args)
    assert exc.value.code == 2


def test_config_file_suites_take_effect(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q = 2\nP_text = T^2+T+1\nsuites = cong\n")
    args = parse_args(["verify", "--config", str(cfgfile)])
    assert make_config(args).suites == "cong"
    args = parse_args(["verify", "--config", str(cfgfile), "--suites",
                       "euler"])
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
    # a flag's value is checked as a config file's is, and parse_args's
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


def test_fitting_prints_the_N_it_runs_at(capsys):
    # the odd part and the even ledger both run at max(N, 4): at --N 2
    # the report is the run at --N 4
    results = {}
    for N in ("2", "4"):
        code, out = _run(capsys, "fitting", "--q", "3", "--P", "T^2+1",
                         "--N", N, "--format", "json")
        assert code == 0
        results[N] = json.loads(out)["suite_results"]
    assert results["2"][0]["params"]["N"] == "4"
    assert results["2"] == results["4"]


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


def _first_difference(a, b):
    """None if a == b, else where they part, with a little of each: a
    failing == on long reports would have pytest diff them line by line,
    which takes minutes."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    return i, a[max(i - 40, 0):i + 40], b[max(i - 40, 0):i + 40]


def _dict_render(cfg, reports, elapsed_ms):
    # the oracle: every check materialised as its dict, and one
    # json.dumps of the whole document
    results = [dict(r.as_dict(), checks=list(r.rows())) for r in reports]
    return json.dumps({"config": cfg.as_dict(), "suite_results": results,
                       "timing_ms": elapsed_ms}, check_circular=False) + "\n"


def test_bulk_json_is_the_json_of_the_dict_rows():
    cfg = make_config(parse_args(
        ["bc-scan", "--q", "3", "--P", "T^2+1", "--format", "json"]))
    # id formats with quotes, backslashes, percent signs, control and
    # non-ASCII characters, over negative, zero and large keys
    odd = ['a"b %d', "back\\slash=%d", "50%% of %d", "%%s%%d%d",
           "tab\tbell\x07nul\x00%d", "éλ∂ %d",
           "\U0001f600%d", "%d", "NaN%d"]
    keys = [-5, -1, 0, 7, 10 ** 20]
    mixed = VerificationReport("mixed", {"note": '"checks": NaN', "x": 1})
    mixed.add("first", True, lhs_prec=3, value="v")
    for fmt in odd:
        mixed.add_passed(fmt, keys, number=range(5),
                         signed=[-3, 0, 2, -10 ** 30, 1],
                         flag=[i % 2 == 0 for i in range(5)])
    mixed.add_passed("k=%d", [-3, 4], **{"50%": [True, False],
                                         "%s": [-1, 2],
                                         'q"\\é': [0, 1]})
    mixed.add("last", False, reason='why "not"')
    bare = VerificationReport("bare", {})
    bare.add_passed("a%d", [1, 2])
    empty = VerificationReport("empty", {"checks": "NaN"})
    empty.add_passed("n=%d", [])
    empty.add_passed("n=%d", [], residue_zero=[])
    plain = VerificationReport("plain", {})
    plain.add("only", True, detail="\x01")
    cases = [[mixed], [bare], [empty], [plain], [mixed, plain, bare, empty],
             [empty, bare]]
    for reports in cases:
        assert cli.render(cfg, reports, 7) == _dict_render(cfg, reports, 7)
    assert [len(list(r.rows())) for r in (mixed, bare, empty)] == [49, 2, 0]
    assert [c["id"] for c in mixed.rows()][2:7] == [
        'a"b -5', 'a"b -1', 'a"b 0', 'a"b 7', 'a"b %d' % 10 ** 20]
    # iterators, as a caller may pass them, are read when the block is
    # added: the report reads the same rows every time
    once, lists = VerificationReport("s", {}), VerificationReport("s", {})
    once.add_passed("n=%d", iter(range(3)),
                    residue_zero=(n == 1 for n in range(3)),
                    character_exponent=(n * n for n in range(3)))
    lists.add_passed("n=%d", [0, 1, 2], residue_zero=[False, True, False],
                     character_exponent=[0, 1, 4])
    assert cli.render(cfg, [once], 7) == _dict_render(cfg, [lists], 7)
    assert list(once.rows()) == list(lists.rows())
    # bulk rows are joined BATCH at a time: a block of k rows around a
    # batch boundary, alone, between add rows and beside a second block
    B = report.BATCH

    def block(rep, k):
        rep.add_passed('v%%d"\\%d', range(-k, 0), value=range(k),
                       flag=[i % 3 == 0 for i in range(k)])
    for k in (0, 1, B - 1, B, B + 1, 2 * B + 1):
        alone, mixed = VerificationReport("alone", {}), \
            VerificationReport("mixed", {"k": k})
        block(alone, k)
        mixed.add("first", True, lhs_prec=2)
        block(mixed, k)
        mixed.add("after", False, reason="added after the block")
        block(mixed, B + 1 - k % B)
        for reports in ([alone], [mixed], [alone, mixed, plain]):
            assert _first_difference(cli.render(cfg, reports, 7),
                                     _dict_render(cfg, reports, 7)) is None
        assert len(list(mixed.rows())) == 2 + k + B + 1 - k % B


@pytest.mark.parametrize("fmt", ["%s", "n=%d %d", "50%", "n", "%%d", "%5d",
                                 "%(n)d", "%d%"])
def test_bulk_id_format_needs_one_int_conversion(fmt):
    # an id format holds one %d and otherwise only %% escapes, so that
    # the JSON of the format is the format of the JSON ids
    with pytest.raises(ValueError, match="exactly one"):
        VerificationReport("s", {}).add_passed(fmt, [1])


def test_bulk_column_name_is_not_the_template_mark():
    # the JSON template marks each cell with the text "\0": a column of
    # that name would shift the cells, and is refused
    with pytest.raises(ValueError, match="named"):
        VerificationReport("s", {}).add_passed("n=%d", [1], **{"\0": [1]})


_COLUMNS = [["x", "y"], [True, "y"], [1, "y"], [1.5, 2], [None, None],
            [3, True], [True, 5]]
_KEYS = [[2.5, True, 3], [2.5, 4, 6], [True, False, True], [2, True, 6],
         ["2", 4, 6], (2.0, 4.0, 6.0)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "keys,column",
    [([2, 4], c) for c in _COLUMNS] + [(k, [1, 2, 3]) for k in _KEYS],
    ids=["column%d" % i for i in range(len(_COLUMNS))]
    + ["keys%d" % i for i in range(len(_KEYS))])
def test_bulk_cell_of_another_kind_raises(capsys, monkeypatch, fmt, keys,
                                          column):
    # a column holds ints alone or truth values alone: a str (first or
    # later), a float, None, or ints mixed with truth values in either
    # order raise TypeError when the block is added, and nothing is
    # printed.  The keys are ints alone: a float, a truth value or a str
    # among them, or truth values alone, raise too
    def scan(cfg):
        rep = report.for_prime("bc-scan", cfg.P)
        rep.add_passed("n=%d", keys, residue_zero=[False, True, False],
                       value=column)
        return rep
    monkeypatch.setattr(cli, "cmd_bc_scan", scan)
    with pytest.raises(TypeError):
        main(["bc-scan", "--q", "3", "--P", "T^2+1", "--format", fmt])
    assert capsys.readouterr().out == ""


def test_bc_scan_report_peak_memory(tmp_path):
    # the peak of building and encoding the scan, as a multiple of the
    # report's length: 2.06 with bulk rows joined BATCH at a time into
    # pieces that are joined once (the pieces, then the report), 2.42
    # with a str per row, a joined block and its bracketed copy, and 5.4
    # when each check was a dict encoded by json.dumps
    cfg = make_config(parse_args(
        ["bc-scan", "--q", "2", "--P", "T^14+T^10+T^6+T+1", "--format",
         "json"]))
    tracemalloc.start()
    try:
        text = cli.render(cfg, [cli.cmd_bc_scan(cfg)], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 * 10 ** 6
    assert peak < 2.25 * len(text), peak / len(text)
    # writing it holds one slice and its encoding beyond the text, not an
    # encoded copy of the whole report
    path = tmp_path / "report.json"
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            cli._write(text, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _first_difference(path.read_text(), text) is None
    assert peak < 2.5 * cli.SLICE, peak / cli.SLICE


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_bc_scan_csv_and_text_peak_memory(fmt):
    # CSV and text are joined once from pieces of BATCH rows, as JSON
    # is: about 2.1 times the report's length, 2.87 (CSV) and 3.99 (text)
    # with a str per row before one join
    cfg = make_config(parse_args(
        ["bc-scan", "--q", "2", "--P", "T^14+T^10+T^6+T+1", "--format",
         fmt]))
    tracemalloc.start()
    try:
        text = cli.render(cfg, [cli.cmd_bc_scan(cfg)], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10 ** 6
    assert peak < 2.25 * len(text), peak / len(text)


def _row_render(cfg, reports, elapsed_ms):
    # the oracle for CSV and text: a str per row, joined once
    if cfg.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["suite", "check", "status", "lhs_precision",
                    "rhs_precision", "detail"])
        for r in reports:
            for c in r.rows():
                w.writerow([r.suite, c["id"], c["status"],
                            c["lhs_precision"], c["rhs_precision"],
                            json.dumps(c["detail"], sort_keys=True)])
        return buf.getvalue()
    lines = ["# carlitz run (digest %s)" % cfg.as_dict()["digest"]]
    for r in reports:
        lines.append("[%s] %s" % (r.suite, json.dumps(r.as_dict()["params"])))
        for c in r.rows():
            extra = " ".join("%s=%s" % kv for kv in c["detail"].items())
            lines.append("  %-12s %s %s" % (c["status"], c["id"], extra))
    lines.append("timing %d ms" % elapsed_ms)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_batches_are_the_rows(fmt):
    # a block of k rows around a batch boundary (the CSV header is a row
    # of the first batch), after an add row and beside a second report
    cfg = make_config(parse_args(
        ["bc-scan", "--q", "3", "--P", "T^2+1", "--format", fmt]))
    B = report.BATCH
    for k in (0, 1, B - 2, B - 1, B, B + 1, 2 * B + 1):
        rep = VerificationReport("scan", {"k": k})
        rep.add("first", True, lhs_prec=2, value='a,"b"')
        rep.add_passed('n,"%d\n', range(k), value=range(-k, 0),
                       flag=[i % 3 == 0 for i in range(k)])
        other = VerificationReport("other", {})
        other.add("last", False, reason="added after the block")
        for reports in ([rep], [rep, other], [other]):
            assert _first_difference(cli.render(cfg, reports, 7),
                                     _row_render(cfg, reports, 7)) is None


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_out_file_and_stdout_are_one_writer(tmp_path, capsysbinary,
                                            monkeypatch, fmt):
    # stdout and --out get the same bytes, written a slice at a time: the
    # report spans several slices in every format
    real = cli.render
    monkeypatch.setattr(cli, "render",
                        lambda cfg, reports, ms: real(cfg, reports, 0))
    argv = ["bc-scan", "--q", "2", "--P", "T^11+T^2+1", "--format", fmt]
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert _first_difference(path.read_bytes(), out) is None
    assert len(out) > cli.SLICE


def test_stdout_closed_early_is_quiet():
    # a reader that stops after a few bytes (`| head -c 10`) gets them,
    # and the run ends with its own status and nothing on stderr, as when
    # the report was written in one piece
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "carlitz.cli", "bc-scan", "--q", "2", "--P",
         "T^11+T^2+1", "--format", "json"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head == b'{"config":'
    assert (proc.returncode, err) == (0, b"")


def test_out_failing_while_writing_exits_2(tmp_path, capsys, monkeypatch):
    # a write that fails after the file opened (a full disk) is bad input
    # too: one stderr line, exit 2, no traceback
    class Full(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError(28, "No space left on device")
            return super().write(text)
    monkeypatch.setattr(cli, "open", lambda path, mode: Full(),
                        raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["bc-scan", "--q", "2", "--P", "T^11+T^2+1", "--out",
              str(tmp_path / "report.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "carlitz: error: --out %s: No space left on device\n" % (
        tmp_path / "report.txt")


@pytest.mark.parametrize("site", ["cmd_bc_scan", "render"])
def test_memory_error_exits_2_in_one_line(capsys, monkeypatch, site):
    # an input beyond the machine's memory is reported in one line; the
    # error is raised here, never provoked by exhausting memory
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(cli, site, exhausted)
    with pytest.raises(SystemExit) as exc:
        main(["bc-scan", "--q", "2", "--P", "T^3+T+1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("carlitz: error: bc-scan --q 2 --P 'T^3+T+1': "
                            "out of memory\n")


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


def test_cli_run_skips_hashlib_and_future():
    # the config digest takes SHA-256 from CPython's built-in module, not
    # from hashlib (which maps OpenSSL's libcrypto), no module imports
    # __future__, and parse_args needs neither argparse nor the gettext
    # it imports: a fresh interpreter importing carlitz.cli and running
    # bc-scan loads none of them
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys\n"
            "from carlitz.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['bc-scan', '--q', '3', '--P', 'T^2+1',\n"
            "                   '--format', 'json'])\n"
            "print(status, *(m in sys.modules\n"
            "                for m in ('hashlib', '_hashlib', '__future__',\n"
            "                          'argparse', 'gettext')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0"] + ["False"] * 5


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


@pytest.mark.parametrize("argv,random_loaded,lazy", [
    (["bc-scan"], False,
     ["cyclotomic", "equivariant", "laurent", "lvalues", "padics",
      "special_points"]),
    (["verify", "--N", "4"], True, []),
    (["l-values", "--place", "inf"], False,
     ["equivariant", "padics", "special_points"]),
    (["verify", "--suites", "cnf,b1,euler,charpoly,cong"], False,
     ["padics"]),
    (["fitting"], False, ["equivariant"])])
def test_each_command_runs_only_its_layers(argv, random_loaded, lazy):
    # import carlitz registers every module lazily: each is in sys.modules
    # from the start, and its type tells whether it has run.  bc-scan
    # runs none of the Laurent, cyclotomic and P-adic layers; the
    # infinite place runs no padics; the P-adic side runs no equivariant
    # (cnf's descent check); verify with every suite runs every layer.
    # Only the padic-explog sampler imports random.  -S: a site hook may
    # import random itself
    src = str(pathlib.Path(lvalues.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys, types\n"
            "from carlitz.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "mods = {m[8:]: type(v) for m, v in sys.modules.items()\n"
            "        if m.startswith('carlitz.')}\n"
            "print(status, 'random' in sys.modules)\n"
            "print(*sorted(mods))\n"
            "print(*sorted(m for m, t in mods.items()\n"
            "              if t is not types.ModuleType))\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv, "--q", "2", "--P",
         "T^3+T+1"], env=env, check=True, capture_output=True, text=True,
        timeout=120).stdout.split("\n")
    assert out[0].split() == ["0", str(random_loaded)]
    assert out[1].split() == [
        "cli", "core", "cyclotomic", "equivariant", "fields", "laurent",
        "lvalues", "padics", "polynomials", "report", "special_points"]
    assert out[2].split() == lazy
