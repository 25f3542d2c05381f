import pytest

from carlitz.core import CarlitzTables, exp_eval
from carlitz.cyclotomic import (Character, CycElem, CycField, InftyEmbedding,
                                _sigma_coords, all_characters, b1,
                                galois_images, gauss_thakur, project_vector)
from carlitz.fields import make_field
from carlitz.laurent import LaurentSeries
from carlitz.lvalues import ClassSumTable, padic_block_valuation
from carlitz.polynomials import Poly, RatFunc, parse_poly, rat_reduce_mod_P
from carlitz.report import VerificationReport
from carlitz import special_points
from carlitz.special_points import (_laurent_ratio_to_tau, coprime_l_inf,
                                    hr_dual_check, odd_fitting_report,
                                    padic_ledger, PrecisionShortfall,
                                    recognize_integral,
                                    special_point_inf, special_point_padic,
                                    verify_anderson, verify_b1_formula,
                                    verify_cnf, verify_congruence)
from bc_oracle import hr_scan
from galois_oracle import special_point_coords
from enumeration import brute_blocks
from recognize_oracle import comps

F2 = make_field(2)
F3 = make_field(3)


def _cyc(Pstr, Fq):
    return CycField(parse_poly(Pstr, Fq))


def test_sigma_power_extends_table():
    # the power list of each unit, below L and past it, against repeated
    # CycElem products of sigma_b(lambda) over F_q
    for Pstr, Fq in [("T^2+1", F3), ("T^2+T+1", F2)]:
        cyc = _cyc(Pstr, Fq)
        for b in cyc.units():
            slam = CycElem(cyc, Fq, cyc.sigma_lambda(b))
            x = CycElem.one(cyc, Fq)
            for m in range(2 * cyc.L + 2):
                assert cyc.sigma_power(b, m) == x.coords, (Pstr, b, m)
                x = x * slam


def test_special_points_build_only_the_powers_they_read(monkeypatch):
    # L_1 .. L_5 read (sigma lambda)^m for m <= 5: six entries per unit,
    # not the L = 26 of the Galois action
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = _cyc("T^3+2*T+1", F3)
    for m in range(1, 6):
        special_point_inf(cyc, m, 8)
    lists = {k[1]: v for k, v in cyc._cache.items() if k[0] == "sigma_power"}
    assert sorted(lists) == list(cyc.units())
    assert {len(v) for v in lists.values()} == {6}


def test_special_point_zero_is_scalar():
    # lambda^0 = 1 collapses the sigma-sum to one k_inf value per place
    cyc = _cyc("T^2+1", F3)
    vals = list(special_point_inf(cyc, 0, 10).values())
    for v in vals:
        for comp in comps(v)[1:]:
            assert comp.is_zero()
    for v in vals[1:]:
        assert (v - vals[0]).wval() is None


def test_special_point_inf_precision_sound():
    # each place's value at depth <= 8 keeps the window it claims against
    # depth 24; a coordinate that is zero only to its precision bounds it
    for Pstr, Fq in [("T^2+T+1", F2), ("T^3+T+1", F2), ("T^2+1", F3)]:
        cyc = _cyc(Pstr, Fq)
        for m in range(6):
            ref = special_point_inf(cyc, m, 24)
            for depth in range(1, 9):
                for b, v in special_point_inf(cyc, m, depth).items():
                    assert ref[b].wprec() >= v.wprec(), (Pstr, m, depth, b)
                    assert v.agrees_with(ref[b]), (Pstr, m, depth, b)


def test_recognize_round_trip_basis_power():
    cyc = _cyc("T^3+T+1", F2)
    emb = InftyEmbedding(cyc, 14)
    coords = [Poly.zero(F2)] * cyc.L
    coords[3] = Poly.one(F2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    u = recognize_integral(cyc, vals, emb)
    assert list(u.coords) == coords


def test_recognize_round_trip_scalar_coefficient():
    cyc = _cyc("T^2+1", F3)
    emb = InftyEmbedding(cyc, 14)
    t = Poly.x(F3)
    coords = [Poly.zero(F3), t] + [Poly.zero(F3)] * (cyc.L - 2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    u = recognize_integral(cyc, vals, emb)
    assert u.coords[1] == t
    assert all(c.is_zero() for i, c in enumerate(u.coords) if i != 1)


def test_recognize_rejects_perturbed_input():
    cyc = _cyc("T^2+T+1", F2)
    emb = InftyEmbedding(cyc, 14)
    coords = [Poly.zero(F2)] * cyc.L
    coords[1] = Poly.one(F2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    # inject an error well inside the guard window
    b0 = emb.reps[0]
    noise = LaurentSeries.from_ratfunc(
        RatFunc(Poly.one(F2), Poly.x(F2) ** 3), 15, field=F2)
    vals[b0] = vals[b0].mul_laurent(LaurentSeries.const(F2, 1, 15) + noise)
    with pytest.raises(ValueError):
        recognize_integral(cyc, vals, emb)


def test_recognize_rejects_singular_system():
    # a stub embedding whose places all repeat the lambda-powers of the
    # first one: its dual basis pairs wrongly, and the residual shows it
    cyc = _cyc("T^3+T+1", F2)
    emb = InftyEmbedding(cyc, 14)
    coords = [Poly.one(F2)] + [Poly.zero(F2)] * (cyc.L - 1)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    pows = emb.lambda_powers(emb.reps[0])
    stub = InftyEmbedding(cyc, 14)
    stub.lambda_powers = lambda b: pows
    with pytest.raises(ValueError, match="recognition residual w=.* below guard"):
        recognize_integral(cyc, vals, stub)


def test_exp_of_special_point_is_integral():
    # full pipeline: class sums -> L_2 -> exp -> exact O_K element
    cyc = _cyc("T^2+T+1", F2)
    depth = 20
    emb = cyc.infty_embedding(depth)
    exps = {b: exp_eval(v, v.wprec())
            for b, v in special_point_inf(cyc, 2, depth).items()}
    u = recognize_integral(cyc, exps, emb)
    assert all(isinstance(c, Poly) and c.field == F2 for c in u.coords)
    # and it embeds back onto the analytic values
    for b in emb.reps:
        resid = exps[b] - emb.embed_coords(u.coords, b)
        assert resid.wval() is None or resid.wval() >= 6


def test_special_point_identity_all_characters_all_powers():
    # e_chi(1 (x) L_m) = L(1,chi) c_{m,chi} tau(chi), every chi and m;
    # the trivial-character component carries the P-coprime value
    for Pstr, Fq, depth in [("T^2+T+1", F2, 14), ("T+1", F3, 14)]:
        cyc = _cyc(Pstr, Fq)
        F = cyc.F
        table = ClassSumTable(cyc.P, depth)
        for chi in all_characters(cyc):
            tau = gauss_thakur(chi)
            lval = coprime_l_inf(cyc, chi, table)
            for m in range(cyc.L):
                c = cyc.tau_dual()[m][chi.n]
                coords = special_point_coords(cyc, m, table, F)

                def mul_poly(v, p, _F=F):
                    return v * LaurentSeries.from_poly(
                        p, v.prec + int(p.degree) + 2, _F)

                proj = project_vector(
                    chi, galois_images(cyc, coords, mul_poly))
                ratio = _laurent_ratio_to_tau(cyc, proj, tau, table.prec)
                if c.is_zero():
                    assert ratio is None or ratio.is_zero(), (chi.n, m)
                    continue
                cl = LaurentSeries.from_ratfunc(c, table.prec + cyc.d + 2,
                                                field=F)
                assert ratio.agrees_with(lval * cl), (Pstr, chi.n, m)


def _project_vector_oracle(chi, coords, mul_poly):
    """e_chi with sigma_b applied once per (chi, b), summed in the order
    of cyc.units()."""
    cyc = chi.cyc
    out = None
    for b in cyc.units():
        c = chi.inv()(b)
        scaled = [None if v is None else v.scale(c)
                  for v in _sigma_coords(cyc, b, coords, mul_poly)]
        if out is None:
            out = scaled
        else:
            out = [a if b_ is None else (b_ if a is None else a + b_)
                   for a, b_ in zip(out, scaled)]
    return [None if v is None else v.scale(cyc.F.neg(1)) for v in out]


@pytest.mark.parametrize("Pstr,Fq", [("T^2+T+1", F2), ("T^3+T+1", F2),
                                     ("T^2+1", F3), ("T^3+2*T+1", F3)])
def test_cnf_indices_match_per_character_projection(monkeypatch, Pstr, Fq):
    # verify_cnf shares the Galois images of L_{m*} among the characters
    # with that m*; the oracle projects every character on its own.  A
    # fresh CycField: no deeper class table left by an earlier test
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = _cyc(Pstr, Fq)
    F, depth = cyc.F, 16
    family = {}
    descends = special_points.equivariant.descends
    monkeypatch.setattr(special_points.equivariant, "descends",
                        lambda c, fam: family.update(fam) or descends(c, fam))
    report = verify_cnf(cyc, depth)
    assert len(family) == cyc.L
    table, dual = cyc.class_table(depth), cyc.tau_dual()

    def mul_poly(v, p):
        return v * LaurentSeries.from_poly(p, v.prec + int(p.degree) + 2, F)
    for chi in all_characters(cyc):
        mstar = next(m for m in range(cyc.L) if not dual[m][chi.n].is_zero())
        coords = special_point_coords(cyc, mstar, table, F)
        proj = _project_vector_oracle(chi, coords, mul_poly)
        analytic = _laurent_ratio_to_tau(cyc, proj, gauss_thakur(chi),
                                         table.prec)
        cl = LaurentSeries.from_ratfunc(dual[mstar][chi.n],
                                        table.prec + cyc.d + 2, field=F)
        index = analytic * cl.inv()
        got = family[chi.n]
        assert (got.val, got.coeffs, got.prec) == \
            (index.val, index.coeffs, index.prec), (Pstr, chi.n)
    assert len(report.checks) == 2 * cyc.L + 1


def test_padic_special_point_in_m_squared():
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        d = cyc.d
        cut = max(n for n in range(N * d + 1)
                  if padic_block_valuation(Fq, d, n) < N)
        for m in (1, 2, 3):
            vm = special_point_padic(cyc, m, N).vm()
            assert vm is None or vm >= 2
        table = cyc.padic_table(N)
        assert table.n_max == cut
        # the old bound kept every block up to N*d: the ones past the new
        # cut vanish mod P^N, by the closed form and by enumeration
        for n in range(cut + 1, N * d + 1):
            assert all(s.is_zero() for s in table.blocks(n).values()), n
            assert all(s.is_zero()
                       for s in brute_blocks(cyc.P, n, N=N).values()), n


def test_padic_odd_part_collapse_mod_P():
    # e_chi L_{m,P} = 0 for odd chi, m >= 2; checked mod P, where sigma_b
    # multiplies the mu-digit k by b^k (sigma_b(mu) = b mu), so
    # sum_b chi(b)^{-1} sigma_b(x) keeps digit k times sum_b b^{k - n}
    cyc = _cyc("T^2+1", F3)
    F = cyc.F
    for m in (2, 3):
        sp = special_point_padic(cyc, m, 1)
        for chi in all_characters(cyc):
            if not chi.is_odd():
                continue
            proj = [0] * cyc.L
            for bb in cyc.units():
                w = chi.inv()(bb)
                proj = [F.add(a, F.mul(w, F.mul(F.pow(bb, k), x)))
                        for k, (a, x) in enumerate(zip(proj, sp.digits))]
            assert not any(proj), (m, chi.n)
            assert sp.digits[chi.n] == 0, (m, chi.n)


def test_anderson_identity_m_one_through_five():
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        for m in range(1, 6):
            rep = verify_anderson(cyc, m, N, 12)
            assert rep.passed(), (Pstr, m, rep.checks)


def test_anderson_failure_names_the_first_bad_digit(monkeypatch):
    # a right-hand side off by mu^k fails, and the report names digit k
    from carlitz import special_points
    from carlitz.padics import MuElem
    cyc = _cyc("T^3+T+1", F2)
    real = special_points.embed_padic

    def corrupted(x, N):
        y = real(x, N)
        digits = [0] * len(y.digits)
        digits[k] = 1
        return y + MuElem(y.ring, digits, N)
    monkeypatch.setattr(special_points, "embed_padic", corrupted)
    for m, k in ((1, 9), (2, 20)):
        rep = verify_anderson(cyc, m, 4, 12)
        check = rep.checks[-1]
        assert check["status"] == "fail", (m, check)
        assert check["detail"] == {"first_bad_digit": str(k)}, (m, check)


def test_recognition_short_of_T0_is_indeterminate():
    # at depth 1 (retried at 2 and 4) some solved coordinate of exp(L_m)
    # is not certified down to T^0: no polynomial part can be read.  At
    # the cubic prime over F_3 the place embedding loses most digits,
    # which is a shortfall, not a singular system
    for Pstr, Fq, N, ms in [("T^3+T+1", F2, 1, (1, 3, 5)),
                            ("T+1", F2, 6, (5,)),
                            ("T^3+2*T+1", F3, 2, (1, 2, 3, 4, 5))]:
        cyc = _cyc(Pstr, Fq)
        for m in ms:
            (check,) = verify_anderson(cyc, m, N, 1).checks
            assert check["status"] == "indeterminate", (Pstr, m, check)
            reason = check["detail"]["reason"]
            assert reason.endswith("at depth 4; raise the depth"), reason


def test_residual_short_of_the_guard_is_retried():
    # at depth 8 the residual of exp(L_m), m <= 4, is known only to w < 6,
    # below the guard: a shortfall, retried, and certified at depth 16
    cyc = _cyc("T^3+T+1", F2)
    emb = cyc.infty_embedding(8)
    for m in range(1, 5):
        exps = {b: exp_eval(v, v.wprec())
                for b, v in special_point_inf(cyc, m, 8).items()}
        with pytest.raises(PrecisionShortfall,
                           match="recognition residual known to w=[0-5],"):
            recognize_integral(cyc, exps, emb)
        check = verify_anderson(cyc, m, 4, 8).checks[0]
        assert check["status"] == "pass" and check["lhs_precision"] == 16, \
            (m, check)


def test_recognition_error_fails_with_its_reason(monkeypatch):
    from carlitz import special_points

    def mismatch(*a, **k):
        raise ValueError("recognition residual w=2 below guard 6 at place 1")
    monkeypatch.setattr(special_points, "recognize_integral", mismatch)
    (check,) = verify_anderson(_cyc("T^2+T+1", F2), 2, 4, 12).checks
    assert check["status"] == "fail"
    assert check["detail"] == {
        "reason": "recognition residual w=2 below guard 6 at place 1"}


def test_cnf_suite_passes():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]:
        rep = verify_cnf(_cyc(Pstr, Fq), 16)
        assert rep.passed(), (Pstr, rep.checks)


def test_cnf_degenerate_degree_one():
    # d=1: Delta = F_q^*, two characters, indices still line up
    rep = verify_cnf(_cyc("T+1", F3), 16)
    assert rep.passed()


def test_b1_formula_all_odd_characters():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3)]:
        cyc = _cyc(Pstr, Fq)
        for chi in all_characters(cyc):
            if not chi.is_odd():
                continue
            rep = verify_b1_formula(cyc, chi, 16)
            assert rep.passed(), (Pstr, chi.n)


def test_b1_formula_rejects_even_character():
    cyc = _cyc("T^2+1", F3)
    with pytest.raises(ValueError):
        verify_b1_formula(cyc, Character(cyc, 2), 12)


def test_indeterminate_check_states_its_reason():
    # depth 8 certifies fewer coefficients than the 40 asked for
    cyc = _cyc("T^2+1", F3)
    chi = next(c for c in all_characters(cyc) if c.is_odd())
    (check,) = verify_b1_formula(cyc, chi, 8, min_coeffs=40).checks
    assert check["status"] == "indeterminate"
    assert "needed" in check["detail"]["reason"]
    rep = VerificationReport("s", {})
    with pytest.raises(ValueError, match="no reason"):
        rep.add("c", False, indeterminate=True)
    rep.add("c", True, reason="unused")
    assert rep.checks[-1]["detail"] == {}
    # b1 compares 1/Y-digits, (q - 1) per coefficient asked for
    overlap = min(check["lhs_precision"], check["rhs_precision"])
    assert check["detail"] == {"reason": "the sides agree to precision %d, "
                               "80 needed; raise the depth" % overlap}
    # cnf compares 1/T-digits, min_coeffs of them
    cnf = verify_cnf(cyc, 8, min_coeffs=40).checks
    index = [c for c in cnf if c["id"].startswith("index chi=")]
    assert index and {c["status"] for c in index} == {"indeterminate"}
    for c in index:
        overlap = min(c["lhs_precision"], c["rhs_precision"])
        assert c["detail"] == {"reason": "the sides agree to precision %d, "
                               "40 needed; raise the depth" % overlap}
    # euler's pairs need no digit: a pair that differs fails with its
    # reason, and one that agrees passes on any window
    def series(coeffs, prec):
        return LaurentSeries(F3, 0, coeffs, prec)
    rep = VerificationReport("euler", {})
    for prec in range(4):
        for a, b in [([1, 2, 0], [1, 2, 0]), ([1, 2, 0], [1, 2, 1]),
                     ([0, 1], [2, 1]), ([], [])]:
            lhs, rhs = series(a, prec), series(b, prec + 1)
            rep.compare("euler-product", lhs, rhs, 0)
            c = rep.checks[-1]
            assert c["status"] == ("pass" if lhs.agrees_with(rhs, prec + 1)
                                   else "fail"), (prec, a, b)
            assert (c["lhs_precision"], c["rhs_precision"]) == (prec,
                                                                prec + 1)
            if c["status"] == "fail":
                assert c["detail"] == {"reason": "the sides differ below "
                                       "their common precision %d" % prec}
    assert {c["status"] for c in rep.checks} == {"pass", "fail"}


def test_bulk_rows_are_the_rows_of_add():
    ns = range(2, 40, 2)
    zero = [n % 6 == 0 for n in ns]
    expo = [(1 - n) % 80 - 40 for n in ns]
    one, bulk = VerificationReport("s", {}), VerificationReport("s", {})
    fmt = 'n="%d"%%é'
    for n, z, e in zip(ns, zero, expo):
        one.add(fmt % n, True, residue_zero=z, character_exponent=e)
    bulk.add_passed(fmt, ns, residue_zero=zero, character_exponent=expo)
    assert len(list(bulk.rows())) == len(ns)
    for a, b in zip(one.rows(), bulk.rows()):
        assert list(a.items()) == list(b.items())
        assert list(a["detail"].items()) == list(b["detail"].items())
    empty = VerificationReport("s", {})
    empty.add_passed("a%d", [1, 2])
    assert [c["detail"] for c in empty.rows()] == [{}, {}]
    assert empty.passed()


def test_congruence_suite():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]:
        rep = verify_congruence(_cyc(Pstr, Fq))
        assert rep.passed(), Pstr


@pytest.mark.parametrize("Pstr,Fq", [("T^2+T+1", F2), ("T^2+1", F3),
                                     ("T^3+T+1", F2), ("T^2+2", make_field(5))])
def test_congruence_rhs_is_the_bc_route(Pstr, Fq):
    # the right side by the route through BC_k = BC'_k Pi(k): the ratio
    # Pi(L - n)/Pi(k) times BC_k as reduced RatFuncs, then mod P
    cyc = _cyc(Pstr, Fq)
    tab = CarlitzTables(Fq)
    checks = verify_congruence(cyc).checks
    assert len(checks) == cyc.L - 1
    for n, check in zip(range(2, cyc.L + 1), checks):
        k = cyc.L + 1 - n
        bc = tab.bc_prime(k) * RatFunc.from_poly(tab.factorial(k))
        ratio = RatFunc(tab.factorial(cyc.L - n), tab.factorial(k))
        assert check["id"] == "B_1(omega^-%d) vs BC_%d" % (n, k)
        assert check["detail"]["rhs_res"] == str(
            rat_reduce_mod_P(ratio * bc, cyc.F)), (Pstr, n)


def test_hr_scan_modes_agree():
    for Pstr, Fq in [("T^2+T+1", F2), ("T+1", F3), ("T^2+1", F3),
                     ("T^3+T+1", F2)]:
        P = parse_poly(Pstr, Fq)
        assert hr_scan(P, mode="streaming") == hr_scan(P, mode="exact-small")


def test_hr_scan_regular_prime_empty():
    assert hr_scan(parse_poly("T^2+T+1", F2)) == []


def test_hr_dual_check():
    out = hr_dual_check(parse_poly("T^2+1", F3))
    assert out["ok"]
    assert out["identity_sample"] >= 1 and out["exact_sample"] >= 1


def test_fitting_report_cases():
    cyc = _cyc("T^3+T+1", F2)
    rows = {r["chi_n"]: r for r in odd_fitting_report(cyc)}
    assert rows[0]["case"] == "trivial" and rows[0]["length"] == 0
    # chi = omega: generator carries the (1(x)T - chi(T)(x)1) factor
    chi = Character(cyc, 1)
    tfac = RatFunc.from_poly(Poly(cyc.F, [cyc.F.neg(chi.at_T()), 1]))
    assert rows[1]["generator"] == tfac * b1(chi.inv())
    assert rows[1]["length"] == rows[1]["vP_B1"] + 1
    for n, r in rows.items():
        if n > 1:
            assert r["length"] == r["vP_B1"]


def test_fitting_generators_unit_at_desk_scale():
    # small class modules are trivial: every odd generator is a P-unit,
    # so the Fitting side of the odd part contributes nothing beyond the
    # index identity already checked by the cnf suite
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]:
        for r in odd_fitting_report(_cyc(Pstr, Fq)):
            assert r["length"] == 0, (Pstr, r)


def test_padic_ledger_q2_empty():
    assert padic_ledger(_cyc("T^2+T+1", F2), 4) == []


def test_padic_ledger_even_nonvanishing():
    rows = padic_ledger(_cyc("T+1", F3), 6)
    assert len(rows) == 1
    for r in rows:
        assert not r["indeterminate"]
        assert r["vP"] is not None and r["vP"] >= 0
