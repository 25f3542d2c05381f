"""Benchmark of the carlitz command line, driven from outside as a user runs it.

    python3 bench/run.py --workload verify-inf --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Run from the repository root; the program is used from ``src/`` as it is,
with no install step.  Every timed invocation is a fresh interpreter running
the ``carlitz`` console entry point, because the library's process-global
caches (``CycField._instances``, ``CarlitzTables._instances``,
``core._bc_streams``) are never warm for a CLI user.  The load is a closed
loop: one client runs one invocation at a time.  One pass runs each of the
workload's invocations once; passes repeat until ``--seconds`` is used up
(at least two passes).  Between passes, fresh interpreters time
``import carlitz.cli``: ``SETUP_SAMPLES`` probes per run, paced so that they
spread evenly over its measured time.

Workloads (the seed maps each named prime P to an image P(a*T + c), see
``pick_primes``; seed 0 gives the primes written below):

* verify-inf: ``verify --q 3 --P T^2+1 --suites cnf,b1,euler,charpoly,cong``
  at default flags.  The infinite place in odd characteristic: F_9 adds,
  class-sum tables, Laurent inverses, trial division in the Euler product.
* verify-padic: ``(2, T^3+T+1)`` with ``--N 4``: ``verify --suites
  anderson,padic-explog``, ``l-values --place P`` and ``fitting``.  The
  finite place in characteristic 2: Newton inverses mod P^N, so polynomial
  mul/divmod and F_2 adds; also recognition and exp at both places.
* scan-stretch: ``bc-scan`` of ``T^9+2*T^6+2*T^4+2*T^3+2*T^2+1`` over F_3
  and of ``T^14+T^10+T^6+T+1`` over F_2.  Huge residue fields and 6.6 MB of
  JSON; no Laurent, P-adic, class-sum or cyclotomic work at all.

With ``--trace 0`` a run reports the end-to-end metrics of the untraced
passes: ``wall_ref_s`` (median over passes of the pass's wall time at the
reference host speed), ``setup_s`` (median import time at the reference
host speed) and ``peak_rss_mb`` (median over passes of the largest RSS of
any invocation in the pass).  The speed of a shared host swings by up to
half, within a second and over minutes, with other tenants' load, and it
slows this program and a plain Python loop alike.  So a fixed pure-Python
loop, the host probe, is timed in the harness for about 0.4 s before and
after every invocation and after every batch of import probes, and each
time is scaled by ``REF_PROBE_S`` / (the probe's time next to it): the time
it would take at the speed at which one repetition of the probe takes
``REF_PROBE_S``.  The unscaled median pass time (``wall_s``) and import
time are printed as well, but not gated.
With ``--trace 1`` it makes one untraced pass and one pass under
``bench/tracer.py`` and reports the per-layer metrics.

Every invocation's report is checked (by ``bench/check_report.py``): exit
status 0 and every check ``pass``; at seed 0 also equality, apart from
``timing_ms``, with the copy digested in ``bench/golden.json`` (recorded
from the seed commit); in traced passes also equality with the untraced
pass.  A scan's prime is also checked once per run, outside the timed
region, with ``special_points.hr_dual_check``.  Each failed invocation,
import probe or dual check counts in the result line's ``failed`` (the
failed ratio is ``failed / attempted``); an invocation still running at the
run's deadline is killed and fails as a timeout.  A traced run whose tracer
misses a binding site, or whose per-layer counters break the zero / nonzero
predictions in ``WORKLOADS``, is not ``correct`` either.

Per-run metadata (git SHA when there is one, the line count of ``src/``,
Python and numpy versions, CPU count) is printed on the ``{"info": ...}``
line.  The result is the last line of standard output.
"""

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "carlitz-bench"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
MIN_PASSES = 2
# import probes per run, spread evenly over its measured time
SETUP_SAMPLES = 15
# a run must end within 180 s: an invocation still running at the run's
# deadline is killed and counted as a timeout
RUN_DEADLINE_S = 170.0

ENTRY = "import sys; from carlitz.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import carlitz.cli; "
                "t1 = time.perf_counter(); import json, numpy; "
                "print(json.dumps({'import_s': t1 - t0, "
                "'numpy': numpy.__version__}))")
DUAL_CHECK = ("import sys, json; from carlitz.fields import make_field; "
              "from carlitz.polynomials import parse_poly; "
              "from carlitz.special_points import hr_dual_check; "
              "print(json.dumps(hr_dual_check(parse_poly(sys.argv[2], "
              "make_field(int(sys.argv[1]))))))")


@dataclass(frozen=True)
class Workload:
    name: str
    primes: tuple        # (q, P at the default seed) per prime
    commands: object     # [(q, P text), ...] -> list of CLI argument lists
    dual_check: bool     # run hr_dual_check on each prime
    # per-layer counters predicted nonzero / zero on this workload
    nonzero: tuple = ()
    zero: tuple = ()


def _verify_inf(ps):
    (q, P), = ps
    return [["verify", "--q", str(q), "--P", P,
             "--suites", "cnf,b1,euler,charpoly,cong"]]


def _verify_padic(ps):
    (q, P), = ps
    common = ["--q", str(q), "--P", P, "--N", "4"]
    return [["verify", *common, "--suites", "anderson,padic-explog"],
            ["l-values", *common, "--place", "P"],
            ["fitting", *common]]


def _scan(ps):
    return [["bc-scan", "--q", str(q), "--P", P] for q, P in ps]


_LAURENT = ("laurent.self_s", "laurent.mul.calls", "laurent.inv.calls")
_TABLES = ("lvalues.self_s", "lvalues.class_table.built",
           "lvalues.class_table.distinct", "lvalues.class_table.s",
           "lvalues.padic_table.built", "lvalues.padic_table.distinct",
           "lvalues.padic_table.s", "lvalues.euler_product.s")
_INF_SUITES = ("suite.cnf.s", "suite.b1.s", "suite.euler.s",
               "suite.charpoly.s", "suite.cong.s")
_PADIC_SUITES = ("suite.anderson.s", "suite.padic-explog.s")

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-inf", ((3, "T^2+1"),), _verify_inf, False,
        nonzero=("fields.add.calls", "fields.mul.calls",
                 "polynomials.mul.calls", "polynomials.divmod.calls",
                 "polynomials.monic_irreducibles.calls",
                 "laurent.mul.calls", "laurent.inv.calls",
                 "lvalues.class_table.built", "lvalues.class_table.s",
                 "lvalues.euler_product.s", "cyclotomic.infty_embedding.built",
                 "equivariant.self_s", "special_points.self_s")
        + _INF_SUITES,
        zero=("lvalues.padic_table.built", "core.padic_explog.s",
              "core.bc_stream.s", "special_points.recognize.attempts")
        + _PADIC_SUITES),
    Workload(
        "verify-padic", ((2, "T^3+T+1"),), _verify_padic, False,
        nonzero=("fields.add.calls", "polynomials.mul.calls",
                 "polynomials.divmod.calls", "padics.self_s",
                 "lvalues.padic_table.built", "lvalues.padic_table.s",
                 "core.exp_eval.s", "core.padic_explog.s",
                 "special_points.recognize.attempts") + _PADIC_SUITES,
        zero=("lvalues.euler_product.s", "core.bc_stream.s")
        + _INF_SUITES),
    Workload(
        "scan-stretch",
        ((3, "T^9+2*T^6+2*T^4+2*T^3+2*T^2+1"), (2, "T^14+T^10+T^6+T+1")),
        _scan, True,
        nonzero=("fields.add.calls", "fields.mul.calls", "core.bc_stream.s",
                 "cli.render.s", "cli.report_bytes"),
        zero=_LAURENT + _TABLES + _INF_SUITES + _PADIC_SUITES
        + ("padics.self_s", "cyclotomic.self_s",
           "cyclotomic.infty_embedding.built", "equivariant.self_s",
           "core.exp_eval.s", "core.padic_explog.s",
           "special_points.recognize.attempts")),
)}

# every counter the tracer emits, in the order they are reported
COUNTERS = (
    "fields.add.calls", "fields.mul.calls",
    "polynomials.mul.calls", "polynomials.divmod.calls",
    "polynomials.monic_irreducibles.calls",
    "laurent.mul.calls", "laurent.inv.calls",
    "core.exp_eval.s", "core.padic_explog.s", "core.bc_stream.s",
    "cyclotomic.infty_embedding.built",
    "lvalues.class_table.built", "lvalues.class_table.distinct",
    "lvalues.class_table.s",
    "lvalues.padic_table.built", "lvalues.padic_table.distinct",
    "lvalues.padic_table.s", "lvalues.euler_product.s",
    "special_points.recognize.attempts", "special_points.recognize.retries",
) + _INF_SUITES + _PADIC_SUITES + ("cli.render.s", "cli.report_bytes")


def _unit(name):
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- inputs: affine images of the named primes -----------------------------------
#
# T -> a*T + c (a in F_p^*, c in F_p) is an automorphism of A = F_p[T] that
# maps the Carlitz module to itself up to the unit a ([k] = T^(p^k) - T goes
# to a*[k]), so it carries a prime P to a prime of the same degree with the
# same arithmetic.  Each seed therefore runs a different prime but the same
# amount of work: over the whole (q, deg P) class the cost of a bc-scan
# varies by up to 60% (field adds per scan, measured with bench/tracer.py),
# which would swamp any change a later commit makes.  The orbits are all of
# (3, deg 2) and (2, deg 3), and two primes each for the scan primes.


def parse_poly(text, p):
    """Coefficients, low to high, of a polynomial written as format_poly
    writes it."""
    coeffs = {}
    for term in text.split("+"):
        c, _, mono = term.rpartition("*") if "*" in term else (
            ("1", "", term) if "T" in term else (term, "", ""))
        k = 0 if not mono else int(mono.partition("^")[2] or 1)
        coeffs[k] = int(c) % p
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def affine_image(f, a, c, p):
    """The monic polynomial f(a*T + c) / lead over F_p."""
    out = [0]
    for coef in reversed(f):                  # Horner: out = out*(aT+c) + coef
        nxt = [0] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i + 1] = (nxt[i + 1] + x * a) % p
            nxt[i] = (nxt[i] + x * c) % p
        nxt[0] = (nxt[0] + coef) % p
        out = nxt
    while out[-1] == 0:
        out.pop()
    inv = pow(out[-1], p - 2, p)
    return [x * inv % p for x in out]


def format_poly(f):
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        mono = "" if k == 0 else ("T" if k == 1 else "T^%d" % k)
        coef = str(c) if (c != 1 or k == 0) else ""
        terms.append(coef + ("*" if coef and mono else "") + mono)
    return "+".join(terms)


def pick_primes(workload, seed):
    """(q, P text) for each prime of the workload."""
    if seed == DEFAULT_SEED:
        return list(workload.primes)
    rng = random.Random("%s:%d" % (workload.name, seed))
    return [(q, format_poly(affine_image(parse_poly(P, q), rng.randrange(1, q),
                                         rng.randrange(q), q)))
            for q, P in workload.primes]


# -- invocations -------------------------------------------------------------------


@dataclass
class Outcome:
    args: list
    wall_s: float
    rss_mb: float
    cpu_s: float
    probe_s: float        # mean of the host probes before and after it
    problem: str = None   # None when the invocation succeeded
    digest: str = None    # canonical report digest


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    complete: bool = True

    @property
    def wall_s(self):
        return sum(o.wall_s for o in self.outcomes)

    @property
    def ref_s(self):
        return sum(o.wall_s * REF_PROBE_S / o.probe_s for o in self.outcomes)

    @property
    def rss_mb(self):
        return max((o.rss_mb for o in self.outcomes), default=0.0)

    @property
    def cpu_s(self):
        return sum(o.cpu_s for o in self.outcomes)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, out_path, deadline):
    """Run argv with stdout to out_path; return (wall, rss_mb, cpu, status),
    status None when the process was killed at the deadline."""
    cap = max(0.0, deadline - time.monotonic())
    killed = []
    lock = threading.Lock()
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env())

        def kill():
            with lock:
                if proc.returncode is None:
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                        killed.append(True)
                    except ProcessLookupError:
                        pass

        # wait4, not Popen.wait, because it also gives the child's rusage
        timer = threading.Timer(cap, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with lock:
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    cpu = ru.ru_utime + ru.ru_stime
    return wall, ru.ru_maxrss / 1024.0, cpu, (None if killed else
                                              proc.returncode)


def golden_key(args):
    return " ".join(args)


def check_report(out_path, status, deadline):
    """(problem or None, canonical digest) for one finished invocation."""
    if status is None:
        return "timeout", None
    if status != 0:
        return "exit status %d" % status, None
    verdict = WORK / "check.json"
    _, _, _, rc = spawn([sys.executable, str(BENCH / "check_report.py"),
                         str(out_path)], verdict, deadline)
    if rc != 0:
        return "report check did not finish (status %s)" % rc, None
    res = json.loads(verdict.read_text())
    return res["problem"], res["digest"]


def run_pass(commands, deadline, golden, tag, trace_dir=None, before=None):
    """One pass over the workload's invocations.  With trace_dir, each runs
    under the tracer and leaves its counters in trace_dir.  `before` is a
    host probe just taken, if there is one."""
    result = Pass()
    if before is None:
        before = host_probe()
    for i, args in enumerate(commands):
        if time.monotonic() >= deadline:
            result.complete = False
            break
        out_path = WORK / ("%s-%d.json" % (tag, i))
        if trace_dir is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    str(trace_dir / ("%d.json" % i)), *args]
        wall, rss, cpu, status = spawn(argv, out_path, deadline)
        after = host_probe()
        problem, digest = check_report(out_path, status, deadline)
        if problem is None and golden is not None:
            want = golden.get(golden_key(args))
            if digest != want:
                problem = "report differs from golden copy"
        result.outcomes.append(Outcome(args, wall, rss, cpu,
                                       (before + after) / 2, problem, digest))
        before = after
        if status is None:
            result.complete = False
    return result


def probe_import(deadline):
    """(result, problem): the import time of carlitz.cli in a fresh
    interpreter and numpy's version, or why the probe failed."""
    out_path = WORK / "import-probe.json"
    _, _, _, status = spawn([sys.executable, "-c", IMPORT_PROBE],
                            out_path, deadline)
    if status is None:
        return None, "import probe: timeout"
    if status != 0:
        err = Path(str(out_path) + ".err").read_text()[-300:]
        return None, "import probe: status %d: %s" % (status, err)
    return json.loads(out_path.read_text()), None


# The host probe (see the module docstring).  An invocation's time is
# scaled by REF_PROBE_S / (the mean of the probes before and after it).  A
# probe shorter than about 0.25 s lands too often in a single fast or slow
# spell of the host to stand for the seconds around it; REF_PROBE_S is
# about one repetition's time on an unloaded 2-vCPU Xeon VM, so that scaled
# times come out near the wall times seen there.
_PROBE_POLYS = ((2, parse_poly("T^14+T^10+T^6+T+1", 2)),
                (3, parse_poly("T^9+2*T^6+2*T^4+2*T^3+2*T^2+1", 3)))
PROBE_REPS = 70
REF_PROBE_S = 0.005


def host_probe():
    """Mean seconds of one repetition of the probe loop."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        for _ in range(150):
            for p, f in _PROBE_POLYS:
                affine_image(f, p - 1, 1, p)
    return (time.perf_counter() - t0) / PROBE_REPS


def dual_checks(primes, deadline):
    """hr_dual_check on each prime: list of problems (None when ok)."""
    out = []
    for q, P in primes:
        out_path = WORK / "dual-check.json"
        _, _, _, status = spawn([sys.executable, "-c", DUAL_CHECK, str(q), P],
                                out_path, deadline)
        if status != 0:
            out.append("hr_dual_check(%s): %s" % (
                P, "timeout" if status is None else "status %d" % status))
            continue
        res = json.loads(out_path.read_text())
        out.append(None if res.get("ok") else
                   "hr_dual_check(%s) failed: %s" % (P, res))
    return out


# -- metadata --------------------------------------------------------------------


def metadata(numpy_version):
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {"git_sha": git_sha, "src_lines": lines,
            "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count()}


# -- runs ------------------------------------------------------------------------


def _failures(passes):
    """One line per failed invocation."""
    return [("%s: %s" % (golden_key(o.args), o.problem))
            for p in passes for o in p.outcomes if o.problem]


def _prepare(workload, seed):
    """Inputs and the untimed checks shared by both kinds of run: (deadline,
    primes, commands, metadata, failed checks, checks attempted)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    primes = pick_primes(workload, seed)
    commands = [a + ["--format", "json"] for a in workload.commands(primes)]
    res, problem = probe_import(deadline)    # also byte-compiles
    meta = metadata(res and res["numpy"])
    checks = [problem]
    if workload.dual_check:
        checks += dual_checks(primes, deadline)
    return (deadline, primes, commands, meta, [c for c in checks if c],
            len(checks))


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seed, seconds, golden):
    """The untraced run: end-to-end metrics."""
    deadline, primes, commands, meta, failures, attempted = _prepare(
        workload, seed)
    t_start = time.monotonic()
    end = t_start + seconds
    setups, setups_ref, passes = [], [], []

    def probe(target):
        # import probes until `target` samples are taken, then a host probe
        nonlocal attempted
        batch = []
        while len(setups) + len(batch) < target and time.monotonic() < deadline:
            attempted += 1
            res, problem = probe_import(deadline)
            if problem:
                failures.append(problem)
                break
            batch.append(res["import_s"])
        host = host_probe()
        setups.extend(batch)
        setups_ref.extend(t * REF_PROBE_S / host for t in batch)
        return host

    while True:
        share = min((time.monotonic() - t_start) / seconds, 1.0)
        host = probe(max(1, math.ceil(SETUP_SAMPLES * share)))
        t_pass = time.monotonic()
        p = run_pass(commands, deadline, golden, "pass", before=host)
        passes.append(p)
        now = time.monotonic()
        if not p.complete or now >= deadline:
            break
        if len(passes) >= MIN_PASSES and 2 * now - t_pass > end:
            break
    probe(SETUP_SAMPLES)
    full = [p for p in passes if p.complete] or passes
    attempted += sum(len(p.outcomes) for p in passes)
    metrics = {
        "wall_ref_s": _median([p.ref_s for p in full]),
        "setup_s": _median(setups_ref),
        "peak_rss_mb": _median([p.rss_mb for p in full]),
    }
    info = {"workload": workload.name, "seed": seed, "primes": primes,
            "passes": len(full), "pass_wall_s": [p.wall_s for p in full],
            "wall_s": _median([p.wall_s for p in full]),
            "pass_ref_s": [p.ref_s for p in full],
            "probe_s": [o.probe_s for p in full for o in p.outcomes],
            "import_s": setups, "setup_raw_s": _median(setups),
            "meta": meta,
            "measured_s": time.monotonic() - t_start}
    return metrics, attempted, failures + _failures(passes), [], info


def _load_trace(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def measure_traced(workload, seed, golden):
    """One untraced and one traced pass: per-layer metrics."""
    deadline, primes, commands, meta, failures, attempted = _prepare(
        workload, seed)
    plain = run_pass(commands, deadline, golden, "plain")
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    traced = run_pass(commands, deadline, golden, "traced", trace_dir)
    for a, b in zip(plain.outcomes, traced.outcomes):
        if a.digest and b.digest and a.digest != b.digest:
            b.problem = "traced report differs from untraced"
    failures += _failures([plain, traced])
    problems = []   # tracer and coverage self-check

    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNTERS, 0.0)
    for i in range(len(traced.outcomes)):
        tr = _load_trace(trace_dir / ("%d.json" % i))
        if tr is None:
            problems.append("no trace for invocation %d" % i)
            continue
        for layer, v in tr["self_s"].items():
            self_s[layer] += v
        for name, v in tr["counts"].items():
            if name not in counts:
                problems.append("tracer counter %s is not reported" % name)
                continue
            counts[name] += v
        for site in tr["unpatched"]:
            problems.append("tracer left %s unwrapped" % site)
        for site in tr["unhooked"]:
            problems.append("tracer found no function for %s" % site)

    metrics = {"%s.self_s" % layer: v for layer, v in self_s.items()}
    metrics.update(counts)
    metrics["proc.cpu_s"] = plain.cpu_s
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s
                                       if plain.wall_s else 0.0)
    if not (traced.complete and plain.complete):
        problems.append("coverage: not checked, a pass did not complete")
    else:
        for name in workload.nonzero:
            if not metrics[name]:
                problems.append("coverage: %s is 0, predicted nonzero" % name)
        for name in workload.zero:
            if metrics[name]:
                problems.append("coverage: %s is %r, predicted 0"
                                % (name, metrics[name]))
    attempted += len(plain.outcomes) + len(traced.outcomes)
    info = {"workload": workload.name, "seed": seed, "primes": primes,
            "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
            "meta": meta}
    return metrics, attempted, failures, problems, info


def result_line(metrics, attempted, failures, problems):
    return {"correct": not (failures or problems), "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": _unit(k)}
                        for k, v in metrics.items()}}


def load_golden():
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit("cannot read %s: %s" % (GOLDEN, exc))


def tail_percentile(xs):
    """(p, value) for the highest of the p50/p90/p99 that has at least ten
    samples above it (nearest rank), or None when there are too few."""
    xs = sorted(xs)
    ps = [p for p in (50, 90, 99) if len(xs) * (100 - p) >= 1000]
    if not ps:
        return None
    return ps[-1], xs[math.ceil(ps[-1] * len(xs) / 100) - 1]


def print_run(workload, metrics, attempted, failures, problems, info):
    print(json.dumps({"info": info}, sort_keys=True))
    for p in failures + problems:
        print("FAILED %s: %s" % (workload.name, p))
    for k, v in metrics.items():
        print("%-14s %-40s %14.6g %s" % (workload.name, k, v, _unit(k)))
    if "pass_wall_s" in info:
        n = len(info["pass_wall_s"])
        tail = tail_percentile(info["pass_wall_s"])
        print("%-14s %-40s %14.6g s, median of %d passes, unscaled" % (
            workload.name, "wall_s", info["wall_s"], n))
        print("%-14s %-40s %14.6g s, median of %d probes, unscaled" % (
            workload.name, "import_s", info["setup_raw_s"],
            len(info["import_s"])))
        print("%-14s %-40s %s" % (
            workload.name, "wall_s tail",
            "p%d %.6g s of %d passes" % (tail[0], tail[1], n) if tail else
            "none: %d passes, a percentile needs 10 above it" % n))
    print("%-14s %-40s %14.6g ratio (%d of %d operations)" % (
        workload.name, "failed_ratio", len(failures) / attempted,
        len(failures), attempted))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "carlitz" / "cli.py").is_file():
        print("no carlitz sources under %s" % SRC, file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    golden = load_golden() if args.seed == DEFAULT_SEED else None
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, table = {}, []
    for name in names:
        w = WORKLOADS[name]
        if args.trace:
            run = measure_traced(w, args.seed, golden)
        else:
            run = measure(w, args.seed, args.seconds, golden)
        metrics, attempted, failures, problems, info = run
        print_run(w, *run)
        results[name] = result_line(metrics, attempted, failures, problems)
        table.append((name, metrics, info, attempted, len(failures)))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print()
    if not args.trace:
        print("%-14s %12s %12s %12s %14s %14s" % (
            "workload", "wall_ref_s", "wall_s", "setup_s", "peak_rss_mb",
            "failed_ratio"))
        for name, m, info, attempted, failed in table:
            print("%-14s %10.3f s %10.3f s %10.3f s %11.1f MB %14.4f" % (
                name, m["wall_ref_s"], info["wall_s"], m["setup_s"],
                m["peak_rss_mb"], failed / attempted))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
