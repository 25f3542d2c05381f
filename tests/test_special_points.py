import pytest

from carlitz.core import exp_eval
from carlitz.cyclotomic import (Character, CycField, InftyEmbedding,
                                all_characters, b1, gauss_thakur,
                                project_vector)
from carlitz.fields import make_field
from carlitz.laurent import LaurentSeries
from carlitz.lvalues import ClassSumTable
from carlitz.polynomials import Poly, RatFunc, parse_poly
from carlitz.special_points import (_laurent_ratio_to_tau,
                                    _special_point_coords, coprime_l_inf,
                                    hr_dual_check, hr_scan,
                                    lambda_power_ratio, odd_fitting_report,
                                    padic_ledger, recognize_integral,
                                    special_point_inf, special_point_padic,
                                    verify_anderson, verify_b1_formula,
                                    verify_cnf, verify_congruence)

F2 = make_field(2)
F3 = make_field(3)


def _cyc(Pstr, Fq):
    return CycField(parse_poly(Pstr, Fq))


def test_sigma_power_extends_table():
    cyc = _cyc("T^2+1", F3)
    for b in cyc.units():
        pows = cyc.sigma_powers(b)
        for m in range(cyc.L):
            assert cyc.sigma_power(b, m) == pows[m]
        # one step past the cached table: multiply by sigma(lambda) again
        want = cyc.mul_coords_A(list(pows[cyc.L - 1]), list(pows[1]))
        assert list(cyc.sigma_power(b, cyc.L)) == list(want)


def test_special_point_zero_is_scalar():
    # lambda^0 = 1 collapses the sigma-sum to one k_inf value per place
    cyc = _cyc("T^2+1", F3)
    sp = special_point_inf(cyc, 0, 10)
    vals = list(sp.values.values())
    for v in vals:
        for comp in v.comps[1:]:
            assert comp.is_zero()
    for v in vals[1:]:
        assert (v - vals[0]).wval() is None


def test_recognize_round_trip_basis_power():
    cyc = _cyc("T^3+T+1", F2)
    emb = InftyEmbedding(cyc, F2, 14)
    coords = [RatFunc.zero(F2)] * cyc.L
    coords[3] = RatFunc.one(F2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    u = recognize_integral(cyc, vals, emb)
    for i, c in enumerate(u.coords):
        want = RatFunc.one(F2) if i == 3 else RatFunc.zero(F2)
        assert c == want, i


def test_recognize_round_trip_scalar_coefficient():
    cyc = _cyc("T^2+1", F3)
    emb = InftyEmbedding(cyc, F3, 14)
    t = RatFunc.from_poly(Poly.x(F3))
    coords = [RatFunc.zero(F3), t] + [RatFunc.zero(F3)] * (cyc.L - 2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    u = recognize_integral(cyc, vals, emb)
    assert u.coords[1] == t
    assert all(c.is_zero() for i, c in enumerate(u.coords) if i != 1)


def test_recognize_rejects_perturbed_input():
    cyc = _cyc("T^2+T+1", F2)
    emb = InftyEmbedding(cyc, F2, 14)
    coords = [RatFunc.zero(F2)] * cyc.L
    coords[1] = RatFunc.one(F2)
    vals = {b: emb.embed_coords(coords, b) for b in emb.reps}
    # inject an error well inside the guard window
    b0 = emb.reps[0]
    noise = LaurentSeries.from_ratfunc(
        RatFunc(Poly.one(F2), Poly.x(F2) ** 3), 15, field=F2)
    vals[b0] = vals[b0].mul_laurent(LaurentSeries.const(F2, 1, 15) + noise)
    with pytest.raises(ValueError):
        recognize_integral(cyc, vals, emb)


def test_exp_of_special_point_is_integral():
    # full pipeline: class sums -> L_2 -> exp -> exact O_K element
    cyc = _cyc("T^2+T+1", F2)
    depth = 20
    emb = cyc.infty_embedding(F2, depth)
    sp = special_point_inf(cyc, 2, depth)
    exps = {b: exp_eval(v, v.wprec()) for b, v in sp.values.items()}
    u = recognize_integral(cyc, exps, emb)
    assert all(c.is_poly() for c in u.coords)
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
                c = lambda_power_ratio(cyc, chi, m)
                coords = _special_point_coords(cyc, m, table, F)

                def mul_poly(v, p, _F=F):
                    return v * LaurentSeries.from_poly_in(
                        p, _F, v.prec + int(p.degree) + 2, lambda x: x)

                proj = project_vector(chi, coords, mul_poly,
                                      lambda v, s: v.scale(s))
                ratio = _laurent_ratio_to_tau(cyc, proj, tau, table.prec)
                if c is None:
                    assert ratio is None or ratio.is_zero(), (chi.n, m)
                    continue
                cl = LaurentSeries.from_ratfunc(c, table.prec + cyc.d + 2,
                                                field=F, embed=lambda x: x)
                assert ratio.agrees_with(lval * cl), (Pstr, chi.n, m)


def test_padic_special_point_in_m_squared():
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        for m in (1, 2, 3):
            sp = special_point_padic(cyc, m, N)
            vm = sp.value.vm()
            assert vm is None or vm >= 2
            assert sp.truncation_blocks == N * cyc.d


def test_padic_odd_part_collapse_mod_P():
    # e_chi L_{m,P} = 0 for odd chi, m >= 2; checked mod P where the
    # character values act through their polynomial representatives
    cyc = _cyc("T^2+1", F3)
    ring = cyc.padic_ring(1)
    Pq = cyc.P

    def sigma_coords(bb, coords):
        # lambda |-> sigma_b(lambda) coordinate-wise; phi_b only moves
        # torsion points, not arbitrary elements
        out = [Poly.zero(F3)] * cyc.L
        for i, c in enumerate(coords):
            if c.is_zero():
                continue
            for j, p in enumerate(cyc.sigma_power(bb, i)):
                out[j] = divmod(out[j] + c * p, Pq)[1]
        return out

    for m in (2, 3):
        sp = special_point_padic(cyc, m, 1)
        for chi in all_characters(cyc):
            if not chi.is_odd():
                continue
            acc = [Poly.zero(F3)] * cyc.L
            for bb in cyc.units():
                sc = sigma_coords(bb, sp.value.coords)
                cp = cyc.unit_rep_poly(chi.inv()(bb))
                acc = [divmod(a + cp * s, Pq)[1] for a, s in zip(acc, sc)]
            proj = ring.elem([-a for a in acc], 1)
            assert proj.vm() is None, (m, chi.n)


def test_anderson_identity_m_one_through_five():
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        for m in range(1, 6):
            rep = verify_anderson(cyc, m, N, 12)
            assert rep.passed(), (Pstr, m, [c.as_dict() for c in rep.checks])


def test_cnf_suite_passes():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]:
        rep = verify_cnf(_cyc(Pstr, Fq), 16)
        assert rep.passed(), (Pstr, [c.as_dict() for c in rep.checks])


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


def test_congruence_suite():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]:
        rep = verify_congruence(_cyc(Pstr, Fq))
        assert rep.passed(), Pstr


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
