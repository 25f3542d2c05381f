"""Command-line surface: scans, L-value tables, verification suites,
Fitting reports.

A run builds one document, {config, suite_results: [{name, params,
checks: [...]}], timing_ms}: JSON prints it, CSV flattens its checks to
rows, text is for eyeballs.  The exit status reads it too: 0 if and only
if every check in it is "pass", else 1 (and 2 for bad input).
"""

import argparse
import errno
import hashlib
import io
import json
import math
import os
import random
import sys
import time
import types

from .core import bc_stream_mod_P, padic_exp, padic_log
from .cyclotomic import CycField, all_characters
from .fields import make_field, residue_field
from .lvalues import euler_factor_charpoly, euler_product, l_inf, l_padic
from .padics import MuElem
from .polynomials import format_poly, parse_poly
from .special_points import (VerificationReport, odd_fitting_report,
                             padic_ledger, verify_anderson, verify_b1_formula,
                             verify_cnf, verify_congruence)

SUITES = ("cnf", "anderson", "b1", "cong", "euler", "charpoly",
          "padic-explog")
FORMATS = ("json", "csv", "text")
COMMAND_HELP = (("bc-scan", "Bernoulli-Carlitz irregular indices"),
                ("l-values", "per-character L-value table"),
                ("verify", "run verification suites"),
                ("fitting", "Fitting generators and P-adic ledger"))
COMMANDS = tuple(command for command, _ in COMMAND_HELP)

# Each setting once: its --config key, its flag, its default, its least
# value if it is an integer (None: text) and the commands whose flag sets
# it.  A flag and a config file both give text, which make_config checks
# alike.
SETTINGS = (
    ("q", "--q", None, 2, COMMANDS),
    ("P_text", "--P", None, None, COMMANDS),
    ("depth", "--depth", 16, 1, COMMANDS),
    ("N", "--N", 6, 1, COMMANDS),
    ("guard", "--guard", 6, 1, COMMANDS),
    ("format", "--format", "text", None, COMMANDS),
    ("out", "--out", None, None, COMMANDS),
    ("suites", "--suites", "all", None, ("verify",)),
    ("max_deg_f", "--max-deg-f", 3, 1, ("verify",)),
    # bc-scan starts at n = 2, so a smaller max_n scans nothing for any P
    ("max_n", "--max-n", None, 2, ("bc-scan",)),
)
KEYS = tuple(s[0] for s in SETTINGS)


class RunConfig(types.SimpleNamespace):
    """The run's settings, one attribute per key of SETTINGS, and P, the
    monic irreducible over F_q that P_text spells, which make_config
    parses once."""

    def as_dict(self):
        # every setting but out, P as --P spelled it, and "threads", a
        # constant left from a removed option: reports and their config
        # digest stay byte-identical to earlier runs, whose digests
        # bench/golden.json holds
        d = {}
        for k in KEYS:
            if k == "format":
                d["threads"] = 1
            if k != "out":
                d["P" if k == "P_text" else k] = getattr(self, k)
        canon = json.dumps(d, sort_keys=True)
        d["digest"] = hashlib.sha256(canon.encode()).hexdigest()[:16]
        return d


def _read_config_file(path):
    """key = value lines, '#' comments; the keys are those of SETTINGS."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        _usage_error("--config %s: %s" % (path, exc.strerror))
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        k, _, v = line.partition("=")
        k = k.strip().replace("-", "_")
        if k not in KEYS:
            _usage_error("unknown key %r in %s (valid: %s)"
                         % (k, path, ", ".join(KEYS)))
        out[k] = v.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own errors (an unknown flag, no command, a bad
        # --place) are bad input like any other
        _usage_error(message)


def build_parser():
    """The commands and their flags, which hold text as given: make_config
    checks it, as it checks a config file's values."""
    ap = _Parser(prog="carlitz")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, help in COMMAND_HELP:
        p = sub.add_parser(command, help=help)
        for key, flag, _, _, commands in SETTINGS:
            if command in commands:
                p.add_argument(flag, dest=key)
        p.add_argument("--config", help="key=value defaults file")
        if command == "l-values":
            p.add_argument("--place", choices=("inf", "P"), default="inf")
    return ap


def _usage_error(msg):
    """Bad input: one line on stderr and exit status 2, distinct from the
    status 1 of a failed check."""
    sys.stderr.write("carlitz: error: %s\n" % msg)
    raise SystemExit(2)


def _suite_names(text):
    """The suites a --suites list names, "all" standing for every one.
    A name that is neither, or a list that names nothing (whose run would
    pass vacuously), is bad input."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    for n in names or [text]:
        if n not in SUITES and n != "all":
            _usage_error("unknown suite %r (have: %s, all)"
                         % (n, ", ".join(SUITES)))
    return list(SUITES) if "all" in names else names


def make_config(args):
    """The run's configuration from flags over config-file defaults; all
    input is validated here, a flag's value as a config file's."""
    vals = _read_config_file(args.config) if args.config else {}
    vals.update((k, v) for k, v in vars(args).items()
                if k in KEYS and v is not None)
    for key, _, default, least, _ in SETTINGS:
        v = vals.setdefault(key, default)
        if least is None or v is None:
            continue
        try:
            v = vals[key] = int(v)
        except ValueError:
            _usage_error("%s must be an integer, got %r" % (key, v))
        if v < least:
            _usage_error("%s must be >= %d, got %d" % (key, least, v))
    cfg = RunConfig(**vals)
    if cfg.q is None or cfg.P_text is None:
        _usage_error("--q and --P are required (flag or config file)")
    if cfg.format not in FORMATS:
        _usage_error("format must be one of %s, got %r"
                     % (", ".join(FORMATS), cfg.format))
    _suite_names(cfg.suites)
    # the report is written after every suite has run: a path that cannot
    # be opened is bad input before any of them starts
    if cfg.out and os.path.isdir(cfg.out):
        _usage_error("--out %s: %s" % (cfg.out, os.strerror(errno.EISDIR)))
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        _usage_error("--out %s: %s" % (cfg.out, os.strerror(errno.ENOENT)))
    try:
        cfg.P = parse_poly(cfg.P_text, make_field(cfg.q))
        residue_field(cfg.P)
    except ValueError as exc:
        _usage_error("--q %s --P %r: %s" % (cfg.q, cfg.P_text, exc))
    if args.command == "bc-scan":
        ns = _scan_indices(cfg.q, int(cfg.P.degree), cfg.max_n)
        if not ns:
            # a scan of no index would pass vacuously
            _usage_error("--q %s --P %r: nothing to scan, no multiple of %d "
                         "lies in [%d, %d]" % (cfg.q, cfg.P_text, ns.step,
                                               ns.start, ns.stop - 1))
    return cfg


# -- suites wrapping the library verifiers ----------------------------------------


def _report(name, cfg, **params):
    """An empty report whose params lead with q and P as format_poly
    prints it, however --P spells it (the config block keeps that)."""
    return VerificationReport(name, dict(q=cfg.q, P=format_poly(cfg.P),
                                         **params))


def _suite_anderson(cyc, cfg):
    rep = _report("anderson", cfg, N=cfg.N, depth=cfg.depth)
    for m in range(1, 6):
        sub = verify_anderson(cyc, m, cfg.N, cfg.depth, guard=cfg.guard)
        rep.checks.extend(sub.checks)
    return rep


def _suite_b1(cyc, cfg):
    rep = _report("b1", cfg, depth=cfg.depth)
    for chi in all_characters(cyc):
        if not chi.is_odd():
            continue
        sub = verify_b1_formula(cyc, chi, cfg.depth)
        rep.checks.extend(sub.checks)
    return rep


def _suite_euler(cyc, cfg):
    B = min(cfg.depth, 8)
    rep = _report("euler", cfg, window=B)
    table = cyc.class_table(B)
    for chi in all_characters(cyc):
        direct = l_inf(cyc, chi, table)
        euler = euler_product(cyc, chi, B, B + 1)
        rep.add("euler-product chi=%d" % chi.n,
                euler.agrees_with(direct, upto=B + 1),
                lhs_prec=euler.prec, rhs_prec=direct.prec)
    return rep


def _suite_charpoly(cyc, cfg):
    rep = _report("charpoly", cfg, max_deg_f=cfg.max_deg_f)
    F = cyc.F
    for f in cyc.irreducibles(cfg.max_deg_f):
        fbar = f.evaluate(F.theta, target=F)
        for chi in all_characters(cyc):
            got = euler_factor_charpoly(cyc, chi, f)
            want = list(f.coeffs)
            want[0] = F.sub(want[0], chi(fbar))
            rep.add("charpoly f=%s chi=%d" % (format_poly(f), chi.n),
                    got == want)
    return rep


def _suite_padic_explog(cyc, cfg):
    """log(exp(z)) = z and v_m(exp(z)) = v_m(z) on 50 seeded random z in
    m^2 inside O_{K,P} mod P^N: L N mu-digits, digits 0 and 1 zero, at
    N = max(--N, 3), which the params print."""
    count, N = 50, max(cfg.N, 3)
    rep = _report("padic-explog", cfg, N=N, count=count)
    rng = random.Random(2026)
    ring = cyc.padic_ring(N)
    order = ring.F.order
    ok_round, ok_val = True, True
    for _ in range(count):
        z = MuElem(ring, [0, 0] + [rng.randrange(order)
                                   for _ in range(ring.L * N - 2)], N)
        if z.vm() is None:
            continue
        e = padic_exp(z)
        back = padic_log(e)
        if not back.agrees_with(z.truncate(back.prec)):
            ok_round = False
        if e.vm() != z.vm():
            ok_val = False
    rep.add("log(exp(z)) = z on m^2 sample", ok_round)
    rep.add("v_m(exp(z)) = v_m(z) on m^2 sample", ok_val)
    return rep


def run_suites(cfg):
    cyc = CycField(cfg.P)
    runners = {
        "cnf": lambda: verify_cnf(cyc, cfg.depth),
        "anderson": lambda: _suite_anderson(cyc, cfg),
        "b1": lambda: _suite_b1(cyc, cfg),
        "cong": lambda: verify_congruence(cyc),
        "euler": lambda: _suite_euler(cyc, cfg),
        "charpoly": lambda: _suite_charpoly(cyc, cfg),
        "padic-explog": lambda: _suite_padic_explog(cyc, cfg),
    }
    return [runners[n]() for n in _suite_names(cfg.suites)]


# -- commands ---------------------------------------------------------------------


def _scan_indices(q, d, max_n):
    """The n that bc-scan visits: multiples of q - 1 (BC'_n vanishes at
    the others) from max(2, q - 1) up to max_n and to q^d - 2, the end
    of the streaming recurrence."""
    n_hi = q ** d - 2 if max_n is None else min(max_n, q ** d - 2)
    return range(max(2, q - 1), n_hi + 1, q - 1)


def cmd_bc_scan(cfg):
    q, d = cfg.q, int(cfg.P.degree)
    L = q ** d - 1
    ns = _scan_indices(q, d, cfg.max_n)
    n_hi = ns.stop - 1
    stream = bc_stream_mod_P(cfg.P, n_hi)
    rep = _report("bc-scan", cfg, max_n=n_hi)
    rep.add_passed(("n=%d" % n for n in ns),
                   residue_zero=(stream[n] == 0 for n in ns),
                   character_exponent=((1 - n) % L for n in ns))
    rep.params["irregular"] = [n for n in ns if stream[n] == 0]
    return rep


def cmd_l_values(cfg, place):
    cyc = CycField(cfg.P)
    rep = _report("l-values", cfg, place=place)
    if place == "inf":
        table = cyc.class_table(cfg.depth)
        for chi in all_characters(cyc):
            v = l_inf(cyc, chi, table)
            window = ["%d:%s" % (n, v.coeff(n))
                      for n in range(v.val, min(v.prec, v.val + 8))]
            rep.add("chi=%d" % chi.n, True,
                    lhs_prec=v.prec, parity="odd" if chi.is_odd() else "even",
                    leading=window)
    else:
        table = cyc.padic_table(cfg.N)
        for chi in all_characters(cyc):
            v = l_padic(cyc, chi, table)
            rep.add("chi=%d" % chi.n, True, lhs_prec=cfg.N,
                    parity="odd" if chi.is_odd() else "even",
                    value=format_poly(table.ring.to_poly(v)),
                    vP=v.valuation())
    return rep


def cmd_fitting(cfg):
    cyc = CycField(cfg.P)
    rep = _report("fitting", cfg, N=cfg.N)
    for r in odd_fitting_report(cyc, N=max(cfg.N, 4)):
        rep.add("odd chi=%d" % r["chi_n"], True, case=r["case"],
                generator=r["generator"], vP_B1=r["vP_B1"],
                length=r["length"])
    for r in padic_ledger(cyc, cfg.N):
        rep.add("even chi=%d" % r["chi_n"], not r["indeterminate"],
                indeterminate=r["indeterminate"], vP_LP=r["vP"],
                note=r["note"], reason="L_P(1,chi) vanishes mod P^N")
    return rep


# -- serialization ----------------------------------------------------------------


def _checks_json(rep):
    """The JSON text of rep's checks, a bulk block encoded with no dict
    per row: through one template, json.dumps of a row whose values are
    a sentinel, so that keys, order and separators are the encoder's own
    bytes, with each value put in by encode_basestring_ascii, as
    json.dumps would."""
    sep, mark = json.JSONEncoder.item_separator, json.dumps("\0")
    encode = json.encoder.encode_basestring_ascii
    parts = [json.dumps(rep.checks)[1:-1]] if rep.checks else []
    for ids, columns in rep.bulk:
        skeleton = json.dumps(rep.row("\0", dict.fromkeys(columns, "\0")))
        template = "%s".join(s.replace("%", "%%")
                             for s in skeleton.split(mark))
        cells = zip(map(encode, ids), *(map(encode, map(str, column))
                                        for column in columns.values()))
        parts.append(sep.join(map(template.__mod__, cells)))
    return "[%s]" % sep.join(filter(None, parts))


def render(cfg, reports, elapsed_ms):
    """The run's document in cfg.format, as one str.  In JSON, each
    report's checks are NaN in the document, and _checks_json's text is
    spliced in there: no string or int encodes to `"checks": NaN`, as a
    quote inside a string is escaped."""
    config, results = cfg.as_dict(), [r.as_dict() for r in reports]
    if cfg.format == "json":
        for res in results:
            res["checks"] = math.nan
        doc = {"config": config, "suite_results": results,
               "timing_ms": elapsed_ms}
        key = json.dumps("checks") + json.JSONEncoder.key_separator
        # a fresh tree: no cycle to check for
        head, *tails = json.dumps(doc, check_circular=False).split(
            key + json.dumps(math.nan))
        parts = [head]
        for r, tail in zip(reports, tails):
            parts += [key, _checks_json(r), tail]
        return "".join(parts + ["\n"])
    if cfg.format == "csv":
        import csv  # only CSV runs pay for the import
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
    lines = ["# carlitz run (digest %s)" % config["digest"]]
    for r, res in zip(reports, results):
        lines.append("[%s] %s" % (r.suite, json.dumps(res["params"])))
        for c in r.rows():
            extra = " ".join("%s=%s" % kv for kv in c["detail"].items())
            lines.append("  %-12s %s %s" % (c["status"], c["id"], extra))
    lines.append("timing %d ms" % elapsed_ms)
    return "\n".join(lines) + "\n"


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = make_config(args)
    t0 = time.monotonic()
    if args.command == "bc-scan":
        reports = [cmd_bc_scan(cfg)]
    elif args.command == "l-values":
        reports = [cmd_l_values(cfg, args.place)]
    elif args.command == "verify":
        reports = run_suites(cfg)
    else:
        reports = [cmd_fitting(cfg)]
    elapsed = int((time.monotonic() - t0) * 1000)
    text = render(cfg, reports, elapsed)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _usage_error("--out %s: %s" % (cfg.out, exc.strerror))
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed() for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
