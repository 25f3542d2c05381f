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


class RunConfig:
    KEYS = ("q", "P_text", "depth", "N", "guard", "format", "out", "suites",
            "max_deg_f", "max_n")

    def __init__(self, q, P_text, depth=16, N=6, guard=6, format="text",
                 out=None, suites="all", max_deg_f=3, max_n=None):
        self.q, self.P_text, self.depth, self.N = q, P_text, depth, N
        self.guard, self.format, self.out = guard, format, out
        self.suites, self.max_deg_f, self.max_n = suites, max_deg_f, max_n

    def as_dict(self):
        # "threads" is a constant left from a removed option: reports and
        # their config digest stay byte-identical to earlier runs, whose
        # digests bench/golden.json holds
        d = {"q": self.q, "P": self.P_text, "depth": self.depth,
             "N": self.N, "guard": self.guard, "threads": 1,
             "format": self.format, "suites": self.suites,
             "max_deg_f": self.max_deg_f, "max_n": self.max_n}
        canon = json.dumps(d, sort_keys=True)
        d["digest"] = hashlib.sha256(canon.encode()).hexdigest()[:16]
        return d

    def build(self):
        """F_q and P; raises ValueError unless q is prime and P is a monic
        irreducible polynomial over F_q."""
        Fq = make_field(self.q)
        P = parse_poly(self.P_text, Fq)
        residue_field(P)
        return Fq, P


def _read_config_file(path):
    """key = value lines, '#' comments; the keys are RunConfig's fields."""
    keys = RunConfig.KEYS
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
        if k not in keys:
            _usage_error("unknown key %r in %s (valid: %s)"
                         % (k, path, ", ".join(keys)))
        out[k] = v.strip()
    return out


def _add_common(sp):
    sp.add_argument("--q", type=int)
    sp.add_argument("--P", dest="P_text")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--guard", type=int)
    sp.add_argument("--format", choices=FORMATS)
    sp.add_argument("--out")
    sp.add_argument("--config", help="key=value defaults file")


def build_parser():
    ap = argparse.ArgumentParser(prog="carlitz")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bc-scan", help="Bernoulli-Carlitz irregular indices")
    _add_common(p)
    p.add_argument("--max-n", dest="max_n", type=int)

    p = sub.add_parser("l-values", help="per-character L-value table")
    _add_common(p)
    p.add_argument("--place", choices=("inf", "P"), default="inf")

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suites")
    p.add_argument("--max-deg-f", dest="max_deg_f", type=int)

    p = sub.add_parser("fitting", help="Fitting generators and P-adic ledger")
    _add_common(p)
    return ap


def _usage_error(msg):
    """Bad input: one line on stderr and exit status 2, distinct from the
    status 1 of a failed check."""
    sys.stderr.write("carlitz: error: %s\n" % msg)
    raise SystemExit(2)


def _suite_names(text):
    names = [s.strip() for s in text.split(",") if s.strip()]
    return list(SUITES) if "all" in names else names


def make_config(args):
    """The run's configuration from flags over config-file defaults; all
    input is validated here."""
    vals = {}
    if getattr(args, "config", None):
        vals.update(_read_config_file(args.config))
    for k in RunConfig.KEYS:
        v = getattr(args, k, None)
        if v is not None:
            vals[k] = v
    ints = ("q", "depth", "N", "guard", "max_deg_f", "max_n")
    for k in ints:
        if k in vals and vals[k] is not None:
            try:
                vals[k] = int(vals[k])
            except ValueError:
                _usage_error("%s must be an integer, got %r" % (k, vals[k]))
    if "q" not in vals or "P_text" not in vals:
        _usage_error("--q and --P are required (flag or config file)")
    cfg = RunConfig(**vals)
    # bc-scan starts at n = 2, so a smaller max_n scans nothing for any P
    for k, least in (("depth", 1), ("N", 1), ("guard", 1), ("max_deg_f", 1),
                     ("max_n", 2)):
        v = getattr(cfg, k)
        if v is not None and v < least:
            _usage_error("%s must be >= %d, got %d" % (k, least, v))
    if cfg.format not in FORMATS:
        _usage_error("format must be one of %s, got %r"
                     % (", ".join(FORMATS), cfg.format))
    # a list that names no suite would pass vacuously: it is unknown
    for n in _suite_names(cfg.suites) or [cfg.suites]:
        if n not in SUITES:
            _usage_error("unknown suite %r (have: %s, all)"
                         % (n, ", ".join(SUITES)))
    # the report is written after every suite has run: a path that cannot
    # be opened is bad input before any of them starts
    if cfg.out and os.path.isdir(cfg.out):
        _usage_error("--out %s: %s" % (cfg.out, os.strerror(errno.EISDIR)))
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        _usage_error("--out %s: %s" % (cfg.out, os.strerror(errno.ENOENT)))
    try:
        _, P = cfg.build()
    except ValueError as exc:
        _usage_error("--q %s --P %r: %s" % (cfg.q, cfg.P_text, exc))
    if args.command == "bc-scan":
        ns = _scan_indices(cfg.q, int(P.degree), cfg.max_n)
        if not ns:
            # a scan of no index would pass vacuously
            _usage_error("--q %s --P %r: nothing to scan, no multiple of %d "
                         "lies in [%d, %d]" % (cfg.q, cfg.P_text, ns.step,
                                               ns.start, ns.stop - 1))
    return cfg


# -- suites wrapping the library verifiers ----------------------------------------


def _report(name, cfg, P, **params):
    """An empty report whose params lead with q and P as format_poly
    prints it, however --P spells it (the config block keeps that)."""
    return VerificationReport(name, dict(q=cfg.q, P=format_poly(P), **params))


def _suite_anderson(cyc, cfg):
    rep = _report("anderson", cfg, cyc.P, N=cfg.N, depth=cfg.depth)
    for m in range(1, 6):
        sub = verify_anderson(cyc, m, cfg.N, cfg.depth, guard=cfg.guard)
        rep.checks.extend(sub.checks)
    return rep


def _suite_b1(cyc, cfg):
    rep = _report("b1", cfg, cyc.P, depth=cfg.depth)
    for chi in all_characters(cyc):
        if not chi.is_odd():
            continue
        sub = verify_b1_formula(cyc, chi, cfg.depth)
        rep.checks.extend(sub.checks)
    return rep


def _suite_euler(cyc, cfg):
    B = min(cfg.depth, 8)
    rep = _report("euler", cfg, cyc.P, window=B)
    table = cyc.class_table(B)
    for chi in all_characters(cyc):
        direct = l_inf(cyc, chi, table)
        euler = euler_product(cyc, chi, B, B + 1)
        rep.add("euler-product chi=%d" % chi.n,
                euler.agrees_with(direct, upto=B + 1),
                lhs_prec=euler.prec, rhs_prec=direct.prec)
    return rep


def _suite_charpoly(cyc, cfg):
    rep = _report("charpoly", cfg, cyc.P, max_deg_f=cfg.max_deg_f)
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
    m^2 inside O_{K,P} mod P^N: L N mu-digits, digits 0 and 1 zero."""
    count = 50
    rep = _report("padic-explog", cfg, cyc.P, N=cfg.N, count=count)
    rng = random.Random(2026)
    N = max(cfg.N, 3)
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
    Fq, P = cfg.build()
    cyc = CycField(P)
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
    Fq, P = cfg.build()
    q, d = cfg.q, int(P.degree)
    L = q ** d - 1
    ns = _scan_indices(q, d, cfg.max_n)
    n_hi = ns.stop - 1
    stream = bc_stream_mod_P(P, n_hi)
    rep = _report("bc-scan", cfg, P, max_n=n_hi)
    rep.add_passed(("n=%d" % n for n in ns),
                   residue_zero=(stream[n] == 0 for n in ns),
                   character_exponent=((1 - n) % L for n in ns))
    rep.params["irregular"] = [n for n in ns if stream[n] == 0]
    return rep


def cmd_l_values(cfg, place):
    Fq, P = cfg.build()
    cyc = CycField(P)
    rep = _report("l-values", cfg, P, place=place)
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
    Fq, P = cfg.build()
    cyc = CycField(P)
    rep = _report("fitting", cfg, P, N=cfg.N)
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
