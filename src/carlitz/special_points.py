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

# padics and equivariant as modules, read by special_point_padic and
# verify_cnf alone: the suites at the infinite place never compile
# padics, and the P-adic side never compiles equivariant
from . import equivariant, padics
from .core import (CarlitzTables, bc_stream_mod_P, carlitz_act,
                   d_inverses_mod_P, exp_eval, padic_exp)
from .cyclotomic import (Character, CycElem, all_characters, b1, embed_padic,
                         galois_images, gauss_thakur, project_vector)
from .fields import residue_field
from .laurent import LaurentSeries, RamifiedElem
from .lvalues import l_inf, l_padic
from .polynomials import Poly, RatFunc, rat_reduce_mod_P
from .report import for_prime


# -- the points -------------------------------------------------------------------


def special_point_inf(cyc, m, depth):
    """L_m at every infinite place, certified to the table depth: a dict
    from place rep to RamifiedElem.  The sum over sigma is taken on the
    lambda-coordinates, which are then embedded once per place."""
    table = cyc.class_table(depth)
    emb = cyc.infty_embedding(depth)
    coords = _special_point_coords(cyc, m, table)
    return {bplace: emb.embed_coords(coords, bplace) for bplace in emb.reps}


def special_point_padic(cyc, m, N):
    """L_{m,P} mod P^N in the uniformizer model (padics.MuRing), from the
    P-adic L-values: sigma_b(mu) = b mu and sigma_b fixes F, so with
    lambda^m = sum_i l_i mu^i,

        L_{m,P} = sum_sigma T_sigma sigma(lambda^m)
                = sum_i l_i mu^i S_{i mod L},  S_r = l_padic(omega^r).

    The S_r, in mu-digits, serve every m.  Membership in m^2 is checked,
    not assumed."""
    table, ring, F, L = cyc.padic_table(N), cyc.padic_ring(N), cyc.F, cyc.L
    S = cyc.memo(("padic_character_sums", N), lambda: [
        ring.in_mu(l_padic(cyc, Character(cyc, r), table)) for r in range(L)])
    digits = [0] * (L * N)
    for i, li in enumerate(ring.elem(cyc.sigma_power(1, m), N).digits):
        if li:
            s = S[i % L]
            for k in range(i, L * N, L):
                digits[k] = F.add(digits[k], F.mul(li, s[k - i]))
    value = padics.MuElem(ring, digits, N)
    vm = value.vm()
    if vm is not None and vm < 2:
        raise ArithmeticError(
            "L_{%d,P} escapes m^2 (v_m = %r): class table is wrong" % (m, vm))
    return value


# -- integral recognition ---------------------------------------------------------


class PrecisionShortfall(ValueError):
    """A coordinate or a residual is short of its precision: raise the depth."""


def recognize_integral(cyc, values, emb, guard=6):
    """Exact element of A[lambda] matching per-place analytic values.

    By Euler's lemma and lambda psi_P'(lambda) = P, the trace-dual basis
    of the lambda-powers is w_j / P, w_j = sum_{k>j} a_k lambda^{k-j} for
    psi_P = sum a_k X^k (w_0 = -P).  So coordinate j is
        c_j = (1/P) sum_b Tr(x_b w_j) = -(1/P) sum_b (Y^0 part of x_b w_j)
    over the places b (InftyEmbedding.coords_of), as Tr Y^i = 0 for
    0 < i < q - 1.  Each c_j is rounded to its polynomial part and the
    result certified by residual w-valuation >= (q-1) guard at every
    place.  Raises PrecisionShortfall when a c_j is not certified to T^0
    or a residual is zero only to below the guard, and ValueError when a
    residual is nonzero below it; callers retry at a larger depth.
    """
    coords = []
    for j, c in enumerate(emb.coords_of(values)):
        if c.prec <= 0:
            raise PrecisionShortfall("coordinate %d not certified to T^0" % j)
        coords.append(c.polynomial_part(cyc.Fq))
    wguard = (cyc.q - 1) * guard
    for bplace in emb.reps:
        resid = values[bplace] - emb.embed_coords(coords, bplace)
        wv = resid.wval()
        if wv is not None and wv < wguard:
            raise ValueError("recognition residual w=%d below guard %d at "
                             "place %d" % (wv, wguard, bplace))
        if resid.wprec() < wguard:
            raise PrecisionShortfall(
                "recognition residual known to w=%d, below guard %d at "
                "place %d" % (resid.wprec(), wguard, bplace))
    return CycElem.from_A_coords(cyc, cyc.Fq, coords)


# -- verification suites ----------------------------------------------------------


# recognition retries of verify_anderson, doubling the depth each time
ANDERSON_ATTEMPTS = 3


def verify_anderson(cyc, m, N, depth, guard=6):
    """exp_{C,P} L_{m,P} = exp_C L_m, compared through the recognized
    integral point; m = 1 goes through the phi_P-multiplied variant."""
    if m < 1:
        raise ValueError("Anderson identity needs m >= 1")
    report = for_prime("anderson", cyc.P, m=m, N=N, depth=depth)
    q = cyc.q
    for attempt in range(ANDERSON_ATTEMPTS):
        attempt_depth = depth << attempt
        try:
            exps = {b: exp_eval(v, v.wprec()) for b, v in
                    special_point_inf(cyc, m, attempt_depth).items()}
            u = recognize_integral(
                cyc, exps, cyc.infty_embedding(attempt_depth),
                guard=guard)
            break
        except ValueError as exc:
            last_error = exc
    else:
        short = isinstance(last_error, PrecisionShortfall)
        report.add("recognize-exp-L_%d" % m, False, indeterminate=short,
                   reason="%s at depth %d; raise the depth"
                   % (last_error, attempt_depth) if short else last_error)
        return report
    report.add("recognize-exp-L_%d" % m, True,
               lhs_prec=(q - 1) * attempt_depth)

    lhs = padic_exp(special_point_padic(cyc, m, N))
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
                   lhs_prec=lhs.prec, rhs_prec=rhs.prec,
                   reason="no P-adic digit certified on both sides")
        return report
    bad = lhs.first_difference(rhs)
    ok = bad is None
    detail = {} if ok else {"first_bad_digit": bad}
    report.add(check_id, ok, lhs_prec=lhs.prec, rhs_prec=rhs.prec, **detail)
    return report


def _special_point_coords(cyc, m, table):
    """lambda-coordinates of L_m = sum_sigma sigma(lambda)^m T_sigma as
    Laurent series over F_q: the class totals T_sigma and the coordinates
    of (sigma lambda)^m both are."""
    prec = table.prec
    coords = [None] * cyc.L
    for sigma in cyc.units():
        c = table.class_total(sigma)
        if c.is_zero():
            continue
        for i, p in enumerate(cyc.sigma_power(sigma, m)):
            if p.is_zero():
                continue
            pl = LaurentSeries.from_poly(p, prec + int(p.degree) + 2)
            term = c * pl
            coords[i] = term if coords[i] is None else coords[i] + term
    return coords


def _laurent_ratio_to_tau(cyc, coords, tau, prec):
    """c with coords = c tau(chi): Laurent coords against the exact tau
    coords, consistency across coordinates."""
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
        tl = LaurentSeries.from_poly(t, prec + cyc.d + 2, F)
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
        val = val - table.class_total(0).map_coeffs(cyc.F, lambda x: x)
    return val


def verify_cnf(cyc, depth, min_coeffs=10):
    """Per-character lattice identity e_chi M = L(1,chi) e_chi O_K.

    Three sub-checks per character: unit content gcd of the exact
    c_{m,chi} with e_chi(1 (x) lambda^m) = c_{m,chi} tau(chi), read from
    CycField.tau_dual; agreement of the analytic index with the L-value;
    and Frobenius descent of the assembled index family.
    """
    report = for_prime("cnf", cyc.P, depth=depth)
    F = cyc.F
    table = cyc.class_table(depth)
    dual = cyc.tau_dual()
    index_family = {}
    images = {}  # m* -> the Galois images of L_{m*}, shared by characters

    def mul_poly(v, p):
        return v * LaurentSeries.from_poly(p, v.prec + int(p.degree) + 2)
    for chi in all_characters(cyc):
        tau = gauss_thakur(chi)
        cs, mstar, cstar = [], None, None
        ok_poly = True
        for m in range(cyc.L):
            c = dual[m][chi.n]
            if c.is_zero():
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
                       reason="no nonzero c_{m,chi}")
            continue

        if mstar not in images:
            # over F_q; into F once, for project_vector's chi^{-1}(b)
            images[mstar] = [
                [None if v is None else v.map_coeffs(F, int) for v in image]
                for image in galois_images(cyc, _special_point_coords(
                    cyc, mstar, table), mul_poly)]
        prec = table.prec
        proj = project_vector(chi, images[mstar])
        analytic = _laurent_ratio_to_tau(cyc, proj, tau, prec)
        cl = LaurentSeries.from_ratfunc(cstar, prec + cyc.d + 2, field=F)
        index = analytic * cl.inv()
        report.compare("index chi=%d" % chi.n, index,
                       coprime_l_inf(cyc, chi, table), min_coeffs)
        index_family[chi.n] = index
    if len(index_family) == cyc.L:
        report.add("index-descends",
                   equivariant.descends(cyc, index_family))
    else:
        report.add("index-descends", False, indeterminate=True,
                   reason="index known for %d of %d characters"
                   % (len(index_family), cyc.L))
    return report


def verify_b1_formula(cyc, chi, depth, min_coeffs=12):
    """L(1,chi) against (1 (x) pi_bar/P) B_{1,chi^{-1}} tau(chi^{-1}) at
    the distinguished infinite place; q=2 trivial chi against the
    closed form pi_bar/(T^2+T)."""
    if not chi.is_odd():
        raise ValueError("the B_1 formula applies to odd characters only")
    F = cyc.F
    q = cyc.q
    report = for_prime("b1-formula", cyc.P, chi=chi.n, depth=depth)
    lhs_scalar = l_inf(cyc, chi, cyc.class_table(depth))
    lhs = RamifiedElem.from_laurent(lhs_scalar, q)
    emb = cyc.infty_embedding(depth)
    if chi.is_trivial():
        # only odd when q = 2; inclusive L-value has the closed form
        den = Poly(cyc.Fq, [0, 1]) * Poly(cyc.Fq, [1, 1])  # T^2 + T
        rhs = emb.pib.mul_laurent(LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(cyc.Fq), den), depth + 3, field=F))
        check_id = "L(1,1) = pi_bar/(T^2+T)"
    else:
        chinv = chi.inv()
        bval = b1(chinv)
        tauv = emb.embed_coords(gauss_thakur(chinv).coords, 1)
        bl = LaurentSeries.from_ratfunc(bval, depth + cyc.d + 3, field=F)
        rhs = (tauv * emb.pib_over_P).mul_laurent(bl)
        check_id = "L(1,chi) = (pi_bar/P) B_1 tau"
    # in 1/Y-digits, as both sides are
    report.compare(check_id, lhs.s, rhs.s, (q - 1) * min_coeffs)
    return report


# -- congruences and scans --------------------------------------------------------


def verify_congruence(cyc):
    """B_{1,omega^{-n}} = Pi(q^d-1-n)/Pi(q^d-n) BC_{q^d-n} mod P, for
    1 < n <= q^d - 1.  With k = q^d - n, BC_k = BC'_k Pi(k), so Pi(k)
    cancels and the right side is Pi(q^d-1-n) BC'_k.  Both factors are
    P-integral: Pi(q^d-1-n) and the denominator of BC'_k (k < q^d - 1,
    so its D_i have q^i - 1 <= k, that is i < d) are products of D_i with
    i < d, which are P-units, so each factor reduces mod P on its own."""
    F = cyc.F
    tab = CarlitzTables(cyc.Fq)
    report = for_prime("cong", cyc.P)
    for n in range(2, cyc.L + 1):
        k = cyc.L + 1 - n
        lhs = rat_reduce_mod_P(b1(Character(cyc, -n)), F)
        rhs = F.mul(tab.factorial(cyc.L - n).evaluate(F.theta, target=F),
                    rat_reduce_mod_P(tab.bc_prime(k), F))
        report.add("B_1(omega^-%d) vs BC_%d" % (n, k), lhs == rhs,
                   lhs_res=lhs, rhs_res=rhs)
    return report


def hr_dual_check(P):
    """Cross-checks of the streaming residues.

    Two independent validations: the defining series identity
    exp_C(X) (X / exp_C X) = X at a random 1% sample of coefficients
    (at least 8; catches indexing slips across the whole range), and
    the exact rational oracle at 4 indices of its feasible window
    n <= 96.  The samples are seeded, so reproducible.
    """
    Fq = P.field
    q = Fq.order
    d = int(P.degree)
    L = q ** d - 1
    F = residue_field(P)
    stream = bc_stream_mod_P(P, L - 1)
    import random  # only this sample draws at random
    rng = random.Random(2026)
    dinv = d_inverses_mod_P(P)

    pool = list(range(1, L))
    k = max(8, int(len(pool) * 0.01))
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

    window = list(range(2, min(96, L - 1) + 1))
    wsample = sorted(rng.sample(window, min(4, len(window))))
    exact_ok = True
    tab = CarlitzTables(Fq)
    for n in wsample:
        if rat_reduce_mod_P(tab.bc_prime(n), F) != stream[n]:
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
    ring = cyc.padic_ring(N)
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
        vn = ring.expand(bval.num).valuation()
        vd = ring.expand(bval.den).valuation()
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
