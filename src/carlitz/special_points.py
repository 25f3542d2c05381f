"""Special points of the cyclotomic Carlitz module and the verification
suites built on them.

The module M generated by the points

    L_m = sum over unit classes sigma of sigma(lambda)^m (x) sum 1/a

ties the infinity-adic L-values to the lattice of integers: per
character, e_chi M = L(1,chi) e_chi O_K.  The P-adic counterparts
L_{m,P} live in m^2 and satisfy exp_{C,P} L_{m,P} = exp_C L_m, an
identity between a P-adic and an infinity-adic computation that can
only be checked through an exact integral middleman.  The functions
below compute both sides and the recognition step, plus the congruence,
Fitting-ideal and irregular-index reports.

Convention note: the sums defining L_m range over residue classes in
(A/PA)^x only, so the trivial-character component carries the L-value
with the Euler factor at P removed, i.e. (1 - 1/P) L(1,1).  The q=2
closed form L(1,1) = pi_bar/(T^2+T) refers to the inclusive value.
"""

from dataclasses import dataclass, field as dc_field
import random

from .core import (CarlitzTables, bc_exact, bc_stream_mod_P, carlitz_act,
                   exp_eval, padic_exp)
from .cyclotomic import (Character, CycElem, all_characters, b1, embed_padic,
                         exact_ratio_to_tau, gauss_thakur, idempotent_project,
                         project_vector)
from .equivariant import EquivariantElem, lattice_index
from .fields import residue_field
from .laurent import LaurentSeries, RamifiedElem
from .lvalues import l_inf, l_padic
from .padics import _poly_tensor_image
from .polynomials import Poly, RatFunc, format_poly, rat_reduce_mod_P


# -- reports ----------------------------------------------------------------------


@dataclass
class CheckResult:
    id: str
    status: str                   # "pass" | "fail" | "indeterminate"
    lhs_precision: object = None
    rhs_precision: object = None
    detail: dict = dc_field(default_factory=dict)

    def as_dict(self):
        return {"id": self.id, "status": self.status,
                "lhs_precision": self.lhs_precision,
                "rhs_precision": self.rhs_precision,
                "detail": {k: str(v) for k, v in self.detail.items()}}


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list = dc_field(default_factory=list)

    def add(self, check_id, ok, lhs_prec=None, rhs_prec=None,
            indeterminate=False, **detail):
        status = "indeterminate" if indeterminate else \
            ("pass" if ok else "fail")
        self.checks.append(CheckResult(check_id, status, lhs_prec,
                                       rhs_prec, detail))

    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def as_dict(self):
        return {"name": self.suite,
                "params": {k: str(v) for k, v in self.params.items()},
                "checks": [c.as_dict() for c in self.checks]}


# -- the points -------------------------------------------------------------------


@dataclass
class SpecialPointInf:
    m: int
    depth: int
    values: dict                  # place rep -> RamifiedElem


@dataclass
class SpecialPointPadic:
    m: int
    N: int
    value: object                 # PadicCycElem in m^2
    truncation_blocks: int


def special_point_inf(cyc, m, depth):
    """L_m at every infinite place, certified to the table depth."""
    table = cyc.class_table(depth)
    emb = cyc.infty_embedding(cyc.Fq, depth)
    values = {}
    for bplace in emb.reps:
        acc = None
        for sigma in cyc.units():
            c = table.unit_class_total(sigma)
            if c.is_zero():
                continue
            row = [RatFunc.from_poly(p) for p in cyc.sigma_power(sigma, m)]
            term = emb.embed_coords(row, bplace).mul_laurent(c)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = RamifiedElem.zero(cyc.q, emb.field, (cyc.q - 1) * depth)
        values[bplace] = acc
    return SpecialPointInf(m, depth, values)


def special_point_padic(cyc, m, N):
    """L_{m,P} mod P^N; membership in m^2 is asserted, not assumed."""
    table = cyc.padic_table(N)
    ring = cyc.padic_ring(N)
    PN = table.ctx.P_pow(N)
    coords = [Poly.zero(cyc.Fq) for _ in range(cyc.L)]
    for sigma in cyc.units():
        s = table.unit_class_total(sigma)
        if s.is_zero():
            continue
        for i, p in enumerate(cyc.sigma_power(sigma, m)):
            if not p.is_zero():
                coords[i] = (coords[i] + p * s) % PN
    value = ring.elem(coords, N)
    vm = value.vm()
    assert vm is None or vm >= 2, \
        "L_{%d,P} escapes m^2 (v_m = %r): class table is wrong" % (m, vm)
    return SpecialPointPadic(m, N, value, table.n_max)


# -- integral recognition ---------------------------------------------------------


def recognize_integral(cyc, values, emb, guard=6):
    """Exact element of A[lambda] matching per-place analytic values.

    Solves the square k_inf-linear system over the embedded basis
    lambda^i (one scalar equation per place and Y-component), rounds
    each coordinate to its polynomial part and certifies by residual
    valuation >= guard.  Raises ValueError when the residual is too
    large; callers retry at higher depth.
    """
    q, L = cyc.q, cyc.L
    rows = []
    for bplace in emb.reps:
        pows = emb.lambda_powers(bplace)
        x = values[bplace]
        for j in range(q - 1):
            rows.append([pows[i].comps[j] for i in range(L)] + [x.comps[j]])
    if len(rows) != L:
        raise ValueError("need exactly %d scalar equations, got %d"
                         % (L, len(rows)))
    # Gauss-Jordan over F_q((1/T)); pivot by least valuation for stability
    for col in range(L):
        piv, pv = None, None
        for i in range(col, L):
            v = rows[i][col].valuation()
            if v is not None and (pv is None or v < pv):
                piv, pv = i, v
        if piv is None:
            raise ValueError("singular place-embedding matrix at column %d"
                             % col)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [e * inv for e in rows[col]]
        for i in range(L):
            if i == col:
                continue
            f = rows[i][col]
            if f.is_zero():
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    coords = [rows[i][L].polynomial_part(cyc.Fq) for i in range(L)]
    coords_rf = [RatFunc.from_poly(p) for p in coords]
    wguard = (q - 1) * guard
    for bplace in emb.reps:
        resid = values[bplace] - emb.embed_coords(coords_rf, bplace)
        wv = resid.wval()
        if wv is not None and wv < wguard:
            raise ValueError("recognition residual w=%d below guard %d at "
                             "place %d" % (wv, wguard, bplace))
    return CycElem.from_A_coords(cyc, cyc.Fq, coords)


# -- verification suites ----------------------------------------------------------


# recognition retries of verify_anderson, doubling the depth each time
ANDERSON_ATTEMPTS = 3


def verify_anderson(cyc, m, N, depth, guard=6):
    """exp_{C,P} L_{m,P} = exp_C L_m, compared through the recognized
    integral point; m = 1 goes through the phi_P-multiplied variant."""
    if m < 1:
        raise ValueError("Anderson identity needs m >= 1")
    report = VerificationReport(
        "anderson", {"q": cyc.q, "P": format_poly(cyc.P), "m": m, "N": N, "depth": depth})
    q = cyc.q
    u = None
    attempt_depth = depth
    for _ in range(ANDERSON_ATTEMPTS):
        try:
            sp = special_point_inf(cyc, m, attempt_depth)
            exps = {b: exp_eval(v, v.wprec()) for b, v in sp.values.items()}
            u = recognize_integral(
                cyc, exps, cyc.infty_embedding(cyc.Fq, attempt_depth),
                guard=guard)
            break
        except ValueError as exc:
            last_error = exc
            attempt_depth *= 2
    if u is None:
        report.add("recognize-exp-L_%d" % m, False, error=last_error)
        return report
    report.add("recognize-exp-L_%d" % m, True,
               lhs_prec=(q - 1) * attempt_depth)

    spp = special_point_padic(cyc, m, N)
    lhs = padic_exp(spp.value)
    if m == 1:
        lhs = carlitz_act(cyc.P, lhs)
        rhs = embed_padic(carlitz_act(cyc.P, u), N)
        check_id = "P.exp_P(L_1P) = P.exp(L_1)"
    else:
        rhs = embed_padic(u, N)
        check_id = "exp_P(L_%dP) = exp(L_%d)" % (m, m)
    prec = min(lhs.prec, rhs.prec)
    if prec < 1:
        report.add(check_id, False, indeterminate=True,
                   lhs_prec=lhs.prec, rhs_prec=rhs.prec)
        return report
    ok = lhs.agrees_with(rhs)
    detail = {}
    if not ok:
        mod = lhs.ctx.P_pow(prec)
        for i, (a, b) in enumerate(zip(lhs.coords, rhs.coords)):
            if (a - b) % mod != Poly.zero(cyc.Fq):
                detail["first_bad_coord"] = i
                break
    report.add(check_id, ok, lhs_prec=lhs.prec, rhs_prec=rhs.prec, **detail)
    return report


def lambda_power_ratio(cyc, chi, m):
    """c_{m,chi} in F[T] with e_chi(1 (x) lambda^m) = c_{m,chi} tau(chi)."""
    F = cyc.F
    coords = [Poly.zero(cyc.Fq)] * cyc.L
    coords = coords[:m] + [Poly.one(cyc.Fq)] + coords[m + 1:]
    lam_m = CycElem.from_A_coords(cyc, F, coords)
    proj = idempotent_project(chi, lam_m)
    return exact_ratio_to_tau(proj, gauss_thakur(chi))


def _special_point_coords(cyc, m, table, field):
    """lambda-coordinates of L_m as Laurent series over field."""
    prec = table.prec
    coords = [None] * cyc.L
    for sigma in cyc.units():
        c = table.unit_class_total(sigma)
        if c.is_zero():
            continue
        cF = c.map_coeffs(field, lambda x: x)
        for i, p in enumerate(cyc.sigma_power(sigma, m)):
            if p.is_zero():
                continue
            pl = LaurentSeries.from_poly_in(p, field, prec + int(p.degree) + 2,
                                            lambda x: x)
            term = cF * pl
            coords[i] = term if coords[i] is None else coords[i] + term
    return coords


def _laurent_ratio_to_tau(cyc, coords, tau, prec):
    """Analytic counterpart of exact_ratio_to_tau: Laurent coords
    against the exact tau coords, consistency across coordinates."""
    F = cyc.F
    ratio = None
    for v, t in zip(coords, tau.coords):
        if t.is_zero():
            if v is not None and not v.is_zero():
                raise ArithmeticError("analytic projection escapes the "
                                      "tau(chi) line")
            continue
        if v is None:
            v = LaurentSeries.zero(F, prec)
        tl = LaurentSeries.from_ratfunc(t, prec + cyc.d + 2, field=F,
                                        embed=lambda x: x)
        r = v * tl.inv()
        if ratio is None:
            ratio = r
        elif not ratio.agrees_with(r):
            raise ArithmeticError("inconsistent analytic ratio")
    return ratio


def coprime_l_inf(cyc, chi, table):
    """L(1,chi) with the Euler factor at P removed for trivial chi; this
    is the value the special-point sums actually carry."""
    val = l_inf(cyc, chi, table)
    if chi.is_trivial():
        val = val - table.zero_class_total().map_coeffs(cyc.F, lambda x: x)
    return val


def verify_cnf(cyc, depth, min_coeffs=10):
    """Per-character lattice identity e_chi M = L(1,chi) e_chi O_K.

    Three sub-checks per character: unit content gcd of the exact
    c_{m,chi}; agreement of the analytic index with the L-value; and
    Frobenius descent of the assembled index family.
    """
    report = VerificationReport("cnf", {"q": cyc.q, "P": format_poly(cyc.P),
                                        "depth": depth})
    F = cyc.F
    table = cyc.class_table(depth)
    index_family = {}
    for chi in all_characters(cyc):
        tau = gauss_thakur(chi)
        cs, mstar, cstar = [], None, None
        ok_poly = True
        for m in range(cyc.L):
            c = lambda_power_ratio(cyc, chi, m)
            if c is None:
                continue
            if not c.is_poly():
                ok_poly = False
                break
            cs.append(c.num)
            if mstar is None:
                mstar, cstar = m, c
        g = None
        if ok_poly and cs:
            g = cs[0]
            for c in cs[1:]:
                g = g.gcd(c)
        gcd_unit = g is not None and int(g.degree) == 0
        report.add("content-gcd chi=%d" % chi.n, ok_poly and gcd_unit,
                   gcd=g)
        if mstar is None:
            report.add("index chi=%d" % chi.n, False,
                       detail_reason="no nonzero c_{m,chi}")
            continue

        coords = _special_point_coords(cyc, mstar, table, F)
        prec = table.prec

        def mul_poly(v, p, _F=F):
            return v * LaurentSeries.from_poly_in(
                p, _F, v.prec + int(p.degree) + 2, lambda x: x)

        proj = project_vector(chi, coords, mul_poly, lambda v, c: v.scale(c))
        analytic = _laurent_ratio_to_tau(cyc, proj, tau, prec)
        cl = LaurentSeries.from_ratfunc(cstar, prec + cyc.d + 2, field=F,
                                        embed=lambda x: x)
        index = analytic * cl.inv()
        target = coprime_l_inf(cyc, chi, table)
        overlap = min(index.prec, target.prec)
        agree = (index - target).is_zero()
        report.add("index chi=%d" % chi.n, agree and overlap >= min_coeffs,
                   lhs_prec=index.prec, rhs_prec=target.prec,
                   indeterminate=agree and overlap < min_coeffs)
        index_family[chi.n] = index
    if len(index_family) == cyc.L:
        one = LaurentSeries.const(F, 1, depth + 1)
        fam = lattice_index(cyc, {n: one for n in index_family}, index_family)
        report.add("index-descends", fam.descends())
    else:
        report.add("index-descends", False, indeterminate=True)
    return report


def verify_b1_formula(cyc, chi, depth, min_coeffs=12):
    """L(1,chi) against (1 (x) pi_bar/P) B_{1,chi^{-1}} tau(chi^{-1}) at
    the distinguished infinite place; q=2 trivial chi against the
    closed form pi_bar/(T^2+T)."""
    if not chi.is_odd():
        raise ValueError("the B_1 formula applies to odd characters only")
    F = cyc.F
    q = cyc.q
    report = VerificationReport("b1-formula", {"q": q, "P": format_poly(cyc.P),
                                               "chi": chi.n, "depth": depth})
    lhs_scalar = l_inf(cyc, chi, cyc.class_table(depth))
    lhs = RamifiedElem.from_laurent(lhs_scalar, q)
    emb = cyc.infty_embedding(F, depth)
    if chi.is_trivial():
        # only odd when q = 2; inclusive L-value has the closed form
        den = Poly(cyc.Fq, [0, 1]) * Poly(cyc.Fq, [1, 1])  # T^2 + T
        rhs = emb.pib.mul_laurent(LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(cyc.Fq), den), depth + 3, field=F,
            embed=lambda x: x))
        check_id = "L(1,1) = pi_bar/(T^2+T)"
    else:
        chinv = chi.inv()
        bval = b1(chinv)
        tauv = emb.embed(gauss_thakur(chinv), 1)
        bl = LaurentSeries.from_ratfunc(bval, depth + cyc.d + 3, field=F,
                                        embed=lambda x: x)
        rhs = (tauv * emb.pib_over_P).mul_laurent(bl)
        check_id = "L(1,chi) = (pi_bar/P) B_1 tau"
    diff = lhs - rhs
    wneed = (q - 1) * min_coeffs
    overlap = min(lhs.wprec(), rhs.wprec())
    wv = diff.wval()
    agree = wv is None or wv >= overlap
    report.add(check_id, agree and overlap >= wneed,
               lhs_prec=lhs.wprec(), rhs_prec=rhs.wprec(),
               indeterminate=agree and overlap < wneed)
    return report


# -- congruences and scans --------------------------------------------------------


def congruence_rows(cyc):
    """B_{1,omega^{-n}} = Pi(q^d-1-n)/Pi(q^d-n) BC_{q^d-n} mod P, for
    0 < n <= q^d-1, n != 1.  Yields (n, lhs residue, rhs residue)."""
    F = cyc.F
    tab = CarlitzTables(cyc.Fq)
    qd = cyc.q ** cyc.d
    for n in range(2, cyc.L + 1):
        lhs = rat_reduce_mod_P(b1(Character(cyc, -n)), F)
        k = qd - n
        ratio = RatFunc(tab.factorial(cyc.L - n), tab.factorial(k))
        rhs = rat_reduce_mod_P(ratio * bc_exact(k, cyc.Fq).bc, F)
        yield n, lhs, rhs


def verify_congruence(cyc):
    report = VerificationReport("cong", {"q": cyc.q, "P": format_poly(cyc.P)})
    for n, lhs, rhs in congruence_rows(cyc):
        report.add("B_1(omega^-%d) vs BC_%d" % (n, cyc.q ** cyc.d - n),
                   lhs == rhs, lhs_res=lhs, rhs_res=rhs)
    return report


def hr_scan(P, mode="streaming", work_limit=512):
    """Irregular indices: n with (q-1) | n, 1 < n < q^d - 1 and
    v_P(BC'_n) > 0; each flags a nontrivial omega^{1-n} eigenspace of
    the class module mod P."""
    Fq = P.field
    q = Fq.order
    L = q ** int(P.degree) - 1
    ns = [n for n in range(2, L) if n % (q - 1) == 0]
    if mode == "streaming":
        stream = bc_stream_mod_P(P, L - 1)
        return [n for n in ns if stream[n] == 0]
    if mode == "exact-small":
        F = residue_field(P)
        out = []
        for n in ns:
            bcp = bc_exact(n, Fq, work_limit=work_limit).bc_prime
            if bcp.is_zero() or rat_reduce_mod_P(bcp, F) == 0:
                out.append(n)
        return out
    raise ValueError("unknown scan mode %r" % mode)


def hr_dual_check(P, sample_frac=0.01, seed=2026, exact_cap=96):
    """Cross-checks of the streaming residues.

    Two independent validations: the defining series identity
    exp_C(X) (X / exp_C X) = X at a random sample of coefficients
    (catches indexing slips across the whole range), and the exact
    rational oracle on a sample inside its feasible window.
    """
    Fq = P.field
    q = Fq.order
    d = int(P.degree)
    L = q ** d - 1
    F = residue_field(P)
    stream = bc_stream_mod_P(P, L - 1)
    rng = random.Random(seed)

    theta_pows = [F.theta]
    for _ in range(d):
        theta_pows.append(F.pow(theta_pows[-1], q))
    dinv = [1]
    for i in range(1, d):
        val = 1
        for j in range(i):
            val = F.mul(val, F.sub(theta_pows[i], theta_pows[j]))
        dinv.append(F.inv(val))

    pool = list(range(1, L))
    k = max(8, int(len(pool) * sample_frac))
    sample = sorted(rng.sample(pool, min(k, len(pool))))
    identity_ok = True
    for n in sample:
        acc = 0
        i = 0
        while q ** i <= n:
            acc = F.add(acc, F.mul(stream[n - q ** i], dinv[i]))
            i += 1
        if acc != (1 if n == 1 else 0):
            identity_ok = False
            break

    window = [n for n in range(2, min(exact_cap, L - 1) + 1)]
    wk = max(4, int(len(window) * sample_frac * 4))
    wsample = sorted(rng.sample(window, min(wk, len(window))))
    exact_ok = True
    for n in wsample:
        bcp = bc_exact(n, Fq).bc_prime
        res = 0 if bcp.is_zero() else rat_reduce_mod_P(bcp, F)
        if res != stream[n]:
            exact_ok = False
            break
    return {"identity_sample": len(sample), "identity_ok": identity_ok,
            "exact_sample": len(wsample), "exact_ok": exact_ok,
            "ok": identity_ok and exact_ok}


# -- Fitting ideals and P-adic lengths -------------------------------------------


def odd_fitting_report(cyc, N=8):
    """Per odd character: generator of the Fitting ideal of the
    chi-eigenspace of the class module, and the P-adic length.

    Cases: I = (1) for trivial chi (q=2); I = ((1(x)T - chi(T)(x)1)
    B_{1,chi^{-1}}) when chi extends to a ring homomorphism; else
    I = (B_{1,chi^{-1}}).  Length = v_P(B_{1,chi^{-1}}) + [chi = omega].
    """
    F = cyc.F
    ctx = cyc.padic_ring(N).ctx

    def lift(c):
        return cyc.teichmuller(c, N)
    rows = []
    for chi in all_characters(cyc):
        if not chi.is_odd():
            continue
        if chi.is_trivial():
            rows.append({"chi_n": 0, "case": "trivial",
                         "generator": RatFunc.one(F), "vP_B1": None,
                         "length": 0})
            continue
        bval = b1(chi.inv())
        j = chi.ring_hom_power()
        if j is not None:
            tfac = RatFunc.from_poly(
                Poly(F, [F.neg(chi.at_T()), 1]))  # 1(x)T - chi(T)(x)1
            gen = tfac * bval
            case = "ring-hom j=%d" % j
        else:
            gen = bval
            case = "generic"
        # B_1 may have a pole at P (the chi = omega case), so take the
        # valuation as v_P(num) - v_P(den) rather than dividing
        vn = _poly_tensor_image(bval.num, ctx, lift).valuation()
        vd = _poly_tensor_image(bval.den, ctx, lift).valuation()
        if vn is None or vd is None:
            raise ValueError("v_P(B_1) undetermined for chi=omega^%d: raise N"
                             % chi.n)
        v = vn - vd
        rows.append({"chi_n": chi.n, "case": case, "generator": gen,
                     "vP_B1": v, "length": v + (1 if chi.n == 1 else 0)})
    return rows


def padic_ledger(cyc, N):
    """v_P(L_P(1,chi)) for even chi.  Each value is the sum of the two
    P-adic lengths in the even-part class number formula; the summands
    are not separated by this computation."""
    table = cyc.padic_table(N)
    rows = []
    for chi in all_characters(cyc):
        if chi.is_odd():
            continue
        v = l_padic(cyc, chi, table).valuation()
        rows.append({"chi_n": chi.n, "vP": v, "indeterminate": v is None,
                     "note": "sum of the unit-index and class lengths; "
                             "not decomposed here"})
    return rows
