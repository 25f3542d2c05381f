"""Command-line surface: scans, L-value tables, verification suites,
Fitting reports.

JSON is the canonical report shape:
  {config, suite_results: [{name, params, checks: [...]}], timing_ms}
CSV flattens the checks to rows, text is for eyeballs.  The process
exits 0 only when every check passed and none was indeterminate.
"""

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass

from .core import bc_stream_mod_P, padic_exp, padic_log
from .cyclotomic import CycField, all_characters
from .fields import make_field, residue_field
from .lvalues import euler_factor_charpoly, euler_product, l_inf, l_padic
from .polynomials import Poly, format_poly, parse_poly
from .special_points import (VerificationReport, odd_fitting_report,
                             padic_ledger, verify_anderson, verify_b1_formula,
                             verify_cnf, verify_congruence)

SUITES = ("cnf", "anderson", "b1", "cong", "euler", "charpoly",
          "padic-explog")


@dataclass
class RunConfig:
    q: int
    P_text: str
    depth: int = 16
    N: int = 6
    guard: int = 6
    format: str = "text"
    out: str = None
    suites: str = "all"
    max_deg_f: int = 3
    max_n: int = None

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
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            k, _, v = line.partition("=")
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _add_common(sp):
    sp.add_argument("--q", type=int)
    sp.add_argument("--P", dest="P_text")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--guard", type=int)
    sp.add_argument("--format", choices=("json", "csv", "text"))
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
    p.add_argument("--suites", default="all")
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
    for k in ("q", "P_text", "depth", "N", "guard", "format",
              "out", "suites", "max_deg_f", "max_n"):
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
    cfg = RunConfig(**{k: v for k, v in vals.items()
                       if k in RunConfig.__dataclass_fields__})
    if cfg.depth < 1 or cfg.N < 1:
        _usage_error("depths must be >= 1")
    for n in _suite_names(cfg.suites):
        if n not in SUITES:
            _usage_error("unknown suite %r (have: %s, all)"
                         % (n, ", ".join(SUITES)))
    try:
        cfg.build()
    except ValueError as exc:
        _usage_error("--q %s --P %r: %s" % (cfg.q, cfg.P_text, exc))
    return cfg


# -- suites wrapping the library verifiers ----------------------------------------


def _suite_anderson(cyc, cfg):
    rep = VerificationReport("anderson", {"q": cfg.q, "P": cfg.P_text,
                                          "N": cfg.N, "depth": cfg.depth})
    for m in range(1, 6):
        sub = verify_anderson(cyc, m, cfg.N, cfg.depth, guard=cfg.guard)
        rep.checks.extend(sub.checks)
    return rep


def _suite_b1(cyc, cfg):
    rep = VerificationReport("b1", {"q": cfg.q, "P": cfg.P_text,
                                    "depth": cfg.depth})
    for chi in all_characters(cyc):
        if not chi.is_odd():
            continue
        sub = verify_b1_formula(cyc, chi, cfg.depth)
        rep.checks.extend(sub.checks)
    return rep


def _suite_euler(cyc, cfg):
    B = min(cfg.depth, 8)
    rep = VerificationReport("euler", {"q": cfg.q, "P": cfg.P_text,
                                       "window": B})
    table = cyc.class_table(B)
    for chi in all_characters(cyc):
        direct = l_inf(cyc, chi, table)
        euler = euler_product(cyc, chi, B, B + 1)
        rep.add("euler-product chi=%d" % chi.n,
                euler.agrees_with(direct, upto=B + 1),
                lhs_prec=euler.prec, rhs_prec=direct.prec)
    return rep


def _suite_charpoly(cyc, cfg):
    rep = VerificationReport("charpoly", {"q": cfg.q, "P": cfg.P_text,
                                          "max_deg_f": cfg.max_deg_f})
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


def _suite_padic_explog(cyc, cfg, count=50, seed=2026):
    rep = VerificationReport("padic-explog", {"q": cfg.q, "P": cfg.P_text,
                                              "N": cfg.N, "count": count})
    rng = random.Random(seed)
    N = max(cfg.N, 3)
    ring = cyc.padic_ring(N)
    ctx = ring.ctx
    Fq = cyc.Fq
    ok_round, ok_val = True, True
    for _ in range(count):
        coords = [_random_poly(rng, Fq, ctx.d * N) for _ in range(cyc.L)]
        # force membership in m^2: lambda-coordinate i needs v_P >= the
        # ceiling of (2 - i)/L, so only the first two coordinates move
        coords[0] = coords[0] * ctx.P * ctx.P
        if cyc.L > 1:
            coords[1] = coords[1] * ctx.P
        z = ring.elem(coords, N)
        if z.vm() is None or z.vm() < 2:
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


def _random_poly(rng, Fq, deg_lt):
    return Poly(Fq, [rng.randrange(Fq.order) for _ in range(deg_lt)])


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


def cmd_bc_scan(cfg):
    Fq, P = cfg.build()
    q, d = cfg.q, int(P.degree)
    L = q ** d - 1
    n_hi = L - 1 if cfg.max_n is None else min(cfg.max_n, L - 1)
    stream = bc_stream_mod_P(P, n_hi)
    rep = VerificationReport("bc-scan", {"q": q, "P": cfg.P_text,
                                         "max_n": n_hi})
    irregular = []
    for n in range(2, n_hi + 1):
        if (q - 1) and n % (q - 1) != 0:
            continue
        is_zero = stream[n] == 0
        if is_zero:
            irregular.append(n)
        rep.add("n=%d" % n, True, residue_zero=is_zero,
                character_exponent=(1 - n) % L)
    rep.params["irregular"] = irregular
    return [rep], 0


def cmd_l_values(cfg, place):
    Fq, P = cfg.build()
    cyc = CycField(P)
    rep = VerificationReport("l-values", {"q": cfg.q, "P": cfg.P_text,
                                          "place": place})
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
            rep.add("chi=%d" % chi.n, True, lhs_prec=v.prec,
                    parity="odd" if chi.is_odd() else "even",
                    value=format_poly(v.value), vP=v.valuation())
    return [rep], 0


def cmd_verify(cfg):
    reports = run_suites(cfg)
    bad = any(c.status != "pass" for r in reports for c in r.checks)
    return reports, (1 if bad else 0)


def cmd_fitting(cfg):
    Fq, P = cfg.build()
    cyc = CycField(P)
    rep = VerificationReport("fitting", {"q": cfg.q, "P": cfg.P_text,
                                         "N": cfg.N})
    for r in odd_fitting_report(cyc, N=max(cfg.N, 4)):
        rep.add("odd chi=%d" % r["chi_n"], True, case=r["case"],
                generator=r["generator"], vP_B1=r["vP_B1"],
                length=r["length"])
    for r in padic_ledger(cyc, cfg.N):
        rep.add("even chi=%d" % r["chi_n"], not r["indeterminate"],
                indeterminate=r["indeterminate"], vP_LP=r["vP"],
                note=r["note"])
    return [rep], (0 if rep.passed() else 1)


# -- serialization ----------------------------------------------------------------


def render(cfg, reports, elapsed_ms):
    doc = {"config": cfg.as_dict(),
           "suite_results": [r.as_dict() for r in reports],
           "timing_ms": elapsed_ms}
    if cfg.format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if cfg.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["suite", "check", "status", "lhs_precision",
                    "rhs_precision", "detail"])
        for r in reports:
            for c in r.checks:
                cd = c.as_dict()
                w.writerow([r.suite, cd["id"], cd["status"],
                            cd["lhs_precision"], cd["rhs_precision"],
                            json.dumps(cd["detail"], sort_keys=True)])
        return buf.getvalue()
    lines = ["# carlitz run (digest %s)" % doc["config"]["digest"]]
    for r in reports:
        lines.append("[%s] %s" % (r.suite, json.dumps(
            {k: str(v) for k, v in r.params.items()})))
        for c in r.checks:
            cd = c.as_dict()
            extra = " ".join("%s=%s" % kv for kv in cd["detail"].items())
            lines.append("  %-12s %s %s" % (cd["status"], cd["id"], extra))
    lines.append("timing %d ms" % elapsed_ms)
    return "\n".join(lines) + "\n"


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = make_config(args)
    t0 = time.monotonic()
    if args.command == "bc-scan":
        reports, status = cmd_bc_scan(cfg)
    elif args.command == "l-values":
        reports, status = cmd_l_values(cfg, args.place)
    elif args.command == "verify":
        reports, status = cmd_verify(cfg)
    else:
        reports, status = cmd_fitting(cfg)
    elapsed = int((time.monotonic() - t0) * 1000)
    text = render(cfg, reports, elapsed)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    indet = any(c.status == "indeterminate"
                for r in reports for c in r.checks)
    return status or (1 if indet else 0)


if __name__ == "__main__":
    sys.exit(main())
