"""Command-line surface: scans, L-value tables, verification suites,
Fitting reports.

A run builds one document of reports, which report.pieces prints in
the chosen format.  The exit status reads it too: 0 if and only if
every check in it is "pass", else 1 (and 2 for bad input).
"""

import errno
import itertools
import json
import os
import re
import sys
import time
import types

# the digest needs SHA-256 alone: CPython's built-in module has it, and
# hashlib would map OpenSSL's libcrypto, 3.4 MB of resident memory
try:
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import (core, cyclotomic, fields, lvalues, padics, polynomials,
               report, special_points)

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

# every report is written SLICE characters at a time: the encoder never
# holds a copy of the whole report
SLICE = 1 << 16


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
        d["digest"] = sha256(canon.encode()).hexdigest()[:16]
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


def _option(arg, flags):
    """What arg is among a parser's option strings `flags` (each mapped
    to its key), read as argparse reads it: None for a value, else (key,
    flag, the text after '=' or None), key None for an unknown option.
    A long option may be any prefix that names only it."""
    if not arg.startswith("-"):
        return None
    if arg in flags:
        return flags[arg], arg, None
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return flags[name], name, value
    if arg[1] == "-":
        hits = [(flags[f], f, value if eq else None) for f in flags
                if f.startswith(name)]
    else:
        # -h joined to more text
        hits = [(flags[arg[:2]], arg[:2], arg[2:])] if arg[:2] in flags \
            else []
    if len(hits) > 1:
        _usage_error("ambiguous option: %s could match %s"
                     % (arg, ", ".join(h[1] for h in hits)))
    if hits:
        return hits[0]
    # a negative number or text with a space is a value
    if " " in arg or re.match(r"-\d+$|-\d*\.\d+$", arg):
        return None
    return None, arg, None


def _help(command, flag, extra):
    """-h/--help: the usage text of the command (None: of carlitz) on
    stdout and exit status 0.  Text after '=' is an error, and so is
    text joined to -h, unless it is more h's."""
    if flag == "-h" and extra:
        extra = extra.lstrip("h") or None
    if extra is not None:
        _usage_error("argument -h/--help: ignored explicit argument %r"
                     % extra)
    if command is None:
        text = "usage: carlitz [-h] {%s} ...\n\ncommands:\n" % ",".join(
            COMMANDS) + "".join("  %-10s %s\n" % ch for ch in COMMAND_HELP)
    else:
        lines = [(name, key.upper(), ("integer >= %d" % least if least
                                      else "text")
                  + ("" if default is None else ", default %s" % default))
                 for key, name, default, least, commands in SETTINGS
                 if command in commands]
        lines.append(("--config", "CONFIG", "key = value defaults file"))
        if command == "l-values":
            lines.append(("--place", "{inf,P}", "default inf"))
        text = "usage: carlitz %s [-h] %s\n\noptions:\n" % (
            command, " ".join("[%s %s]" % line[:2] for line in lines)) + \
            "".join("  %-22s %s\n" % ("%s %s" % line[:2], line[2])
                    for line in lines)
    sys.stdout.write(text)
    raise SystemExit(0)


def parse_args(argv=None):
    """The command and its flags, as text: one attribute per key of the
    command's flags (None when not given), config, and place for
    l-values.  make_config checks the values, as it checks a config
    file's.  Flags take `--flag value` or `--flag=value` and any unique
    prefix; a repeated flag keeps its last value.  Input is read as
    argparse reads it, and each error is argparse's, in one line."""
    args = sys.argv[1:] if argv is None else list(argv)
    extras, top, command = [], {"-h": "help", "--help": "help"}, None
    for i, arg in enumerate(args):
        opt = None if arg == "--" else _option(arg, top)
        if opt is None:
            # the command, which a '--' before it would be, as in argparse
            if args[i:] != ["--"]:
                command, rest = arg, args[i + 1:]
            break
        if opt[0] is None:
            extras.append(arg)
        else:
            _help(None, *opt[1:])
    if command is None:
        _usage_error("the following arguments are required: command")
    if command not in COMMANDS:
        _usage_error("argument command: invalid choice: %r (choose from %s)"
                     % (command, ", ".join(map(repr, COMMANDS))))
    own = [(flag, key) for key, flag, _, _, commands in SETTINGS
           if command in commands] + [("--config", "config")]
    ns = {key: None for _, key in own}
    if command == "l-values":
        own.append(("--place", "place"))
        ns["place"] = "inf"
    flags = dict(top, **dict(own))
    # every option is read before any is taken, as argparse does: an
    # ambiguous prefix is the first error
    end = rest.index("--") if "--" in rest else len(rest)
    opts = [_option(arg, flags) for arg in rest[:end]]
    i = 0
    while i < end:
        opt, i = opts[i], i + 1
        if opt is None or opt[0] is None:
            extras.append(rest[i - 1])
            continue
        key, flag, value = opt
        if key == "help":
            _help(command, flag, value)
        if value is None:
            if i == end or opts[i] is not None:
                _usage_error("argument %s: expected one argument" % flag)
            value, i = rest[i], i + 1
        if key == "place" and value not in ("inf", "P"):
            _usage_error("argument --place: invalid choice: %r (choose "
                         "from 'inf', 'P')" % value)
        ns[key] = value
    extras += rest[end:]
    if extras:
        _usage_error("unrecognized arguments: %s" % " ".join(extras))
    return types.SimpleNamespace(command=command, **ns)


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
        cfg.P = polynomials.parse_poly(cfg.P_text, fields.make_field(cfg.q))
        fields.residue_field(cfg.P)
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


def _suite_anderson(cyc, cfg):
    rep = report.for_prime("anderson", cfg.P, N=cfg.N, depth=cfg.depth)
    for m in range(1, 6):
        sub = special_points.verify_anderson(cyc, m, cfg.N, cfg.depth,
                                             guard=cfg.guard)
        rep.checks.extend(sub.checks)
    return rep


def _suite_b1(cyc, cfg):
    rep = report.for_prime("b1", cfg.P, depth=cfg.depth)
    for chi in cyclotomic.all_characters(cyc):
        if not chi.is_odd():
            continue
        sub = special_points.verify_b1_formula(cyc, chi, cfg.depth)
        rep.checks.extend(sub.checks)
    return rep


def _suite_euler(cyc, cfg):
    B = min(cfg.depth, 8)
    rep = report.for_prime("euler", cfg.P, window=B)
    table = cyc.class_table(B)
    for chi in cyclotomic.all_characters(cyc):
        direct = lvalues.l_inf(cyc, chi, table)
        euler = lvalues.euler_product(cyc, chi, B, B + 1)
        # both sides hold B + 1 digits, so agreeing on them passes
        rep.compare("euler-product chi=%d" % chi.n, euler, direct, 0)
    return rep


def _suite_charpoly(cyc, cfg):
    rep = report.for_prime("charpoly", cfg.P, max_deg_f=cfg.max_deg_f)
    F = cyc.F
    for f in cyc.irreducibles(cfg.max_deg_f):
        fbar = f.evaluate(F.theta, target=F)
        for chi in cyclotomic.all_characters(cyc):
            got = lvalues.euler_factor_charpoly(cyc, chi, f)
            want = list(f.coeffs)
            want[0] = F.sub(want[0], chi(fbar))
            rep.add("charpoly f=%s chi=%d"
                    % (polynomials.format_poly(f), chi.n), got == want)
    return rep


def _suite_padic_explog(cyc, cfg):
    """log(exp(z)) = z and v_m(exp(z)) = v_m(z) on 50 seeded random z in
    m^2 inside O_{K,P} mod P^N: L N mu-digits, digits 0 and 1 zero, at
    N = max(--N, 3), which the params print."""
    count, N = 50, max(cfg.N, 3)
    rep = report.for_prime("padic-explog", cfg.P, N=N, count=count)
    import random  # only this sampler draws at random
    rng = random.Random(2026)
    ring = cyc.padic_ring(N)
    order = ring.F.order
    ok_round, ok_val = True, True
    for _ in range(count):
        z = padics.MuElem(ring, [0, 0] + [rng.randrange(order)
                                          for _ in range(ring.L * N - 2)], N)
        if z.vm() is None:
            continue
        e = core.padic_exp(z)
        back = core.padic_log(e)
        if not back.agrees_with(z.truncate(back.prec)):
            ok_round = False
        if e.vm() != z.vm():
            ok_val = False
    rep.add("log(exp(z)) = z on m^2 sample", ok_round)
    rep.add("v_m(exp(z)) = v_m(z) on m^2 sample", ok_val)
    return rep


def run_suites(cfg):
    cyc = cyclotomic.CycField(cfg.P)
    runners = {
        "cnf": lambda: special_points.verify_cnf(cyc, cfg.depth),
        "anderson": lambda: _suite_anderson(cyc, cfg),
        "b1": lambda: _suite_b1(cyc, cfg),
        "cong": lambda: special_points.verify_congruence(cyc),
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
    stream = core.bc_stream_mod_P(cfg.P, n_hi)
    zero = [not v for v in itertools.islice(stream, ns.start, ns.stop,
                                            ns.step)]
    rep = report.for_prime("bc-scan", cfg.P, max_n=n_hi)
    # the exponent (1 - n) mod L is L + 1 - n, as 2 <= n < L
    rep.add_passed("n=%d", ns, residue_zero=zero, character_exponent=range(
        L + 1 - ns.start, L + 1 - ns.stop, -ns.step))
    rep.params["irregular"] = list(itertools.compress(ns, zero))
    return rep


def cmd_l_values(cfg, place):
    cyc = cyclotomic.CycField(cfg.P)
    rep = report.for_prime("l-values", cfg.P, place=place)
    if place == "inf":
        table = cyc.class_table(cfg.depth)
        for chi in cyclotomic.all_characters(cyc):
            v = lvalues.l_inf(cyc, chi, table)
            window = ["%d:%s" % (n, v.coeff(n))
                      for n in range(v.val, min(v.prec, v.val + 8))]
            rep.add("chi=%d" % chi.n, True,
                    lhs_prec=v.prec, parity="odd" if chi.is_odd() else "even",
                    leading=window)
    else:
        table = cyc.padic_table(cfg.N)
        for chi in cyclotomic.all_characters(cyc):
            v = lvalues.l_padic(cyc, chi, table)
            rep.add("chi=%d" % chi.n, True, lhs_prec=cfg.N,
                    parity="odd" if chi.is_odd() else "even",
                    value=polynomials.format_poly(table.ring.to_poly(v)),
                    vP=v.valuation())
    return rep


def cmd_fitting(cfg):
    """Both parts run at N = max(--N, 4), which the params print: at
    --N 2 the report is the one at --N 4."""
    cyc = cyclotomic.CycField(cfg.P)
    N = max(cfg.N, 4)
    rep = report.for_prime("fitting", cfg.P, N=N)
    for r in special_points.odd_fitting_report(cyc, N=N):
        rep.add("odd chi=%d" % r["chi_n"], True, case=r["case"],
                generator=r["generator"], vP_B1=r["vP_B1"],
                length=r["length"])
    for r in special_points.padic_ledger(cyc, N):
        rep.add("even chi=%d" % r["chi_n"], not r["indeterminate"],
                indeterminate=r["indeterminate"], vP_LP=r["vP"],
                note=r["note"], reason="L_P(1,chi) vanishes mod P^N")
    return rep


# -- serialization ----------------------------------------------------------------


def render(cfg, reports, elapsed_ms):
    """The run's document in cfg.format, as one str joined once from
    report.pieces: no list holds a str per row."""
    return "".join(report.pieces(cfg.format, reports, cfg.as_dict(),
                                 elapsed_ms))


def _write(text, fh):
    """Write text to fh SLICE characters at a time, so that encoding it
    holds one slice's bytes, not a copy of the whole report."""
    for i in range(0, len(text), SLICE):
        fh.write(text[i:i + SLICE])


def main(argv=None):
    args = parse_args(argv)
    cfg = make_config(args)
    t0 = time.monotonic()
    try:
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
    except MemoryError:
        # an input whose tables or report do not fit in memory
        _usage_error("%s --q %s --P %r: out of memory"
                     % (args.command, cfg.q, cfg.P_text))
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                _write(text, fh)
        except OSError as exc:
            _usage_error("--out %s: %s" % (cfg.out, exc.strerror))
    else:
        try:
            _write(text, sys.stdout)
        except BrokenPipeError:
            # the reader stopped reading (`| head`) and wants no more of
            # the report; stdout goes to devnull, so that flushing it at
            # exit does not fail too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r.passed() for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
