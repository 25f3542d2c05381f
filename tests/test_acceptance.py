"""Acceptance gate: one test per criterion, names say what is checked.

Everything here is exact arithmetic or certified-precision agreement;
no tolerances beyond the stated coefficient/precision windows.
"""

import random
import time

from carlitz.core import CarlitzTables, padic_exp, padic_log
from carlitz.cyclotomic import CycElem, CycField, all_characters, gauss_thakur
from carlitz.fields import make_field
from carlitz.lvalues import (ClassSumTable, PadicClassSumTable,
                             euler_factor_charpoly, euler_product, l_inf,
                             l_padic)
from carlitz.polynomials import Poly, monic_irreducibles, parse_poly
from carlitz.special_points import (hr_dual_check, verify_anderson,
                                    verify_b1_formula, verify_cnf,
                                    verify_congruence)
from bc_oracle import hr_scan
from galois_oracle import idempotent_project, normal_basis_eta

F2 = make_field(2)
F3 = make_field(3)
SMALL_PAIRS = [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]


def _cyc(Pstr, Fq):
    return CycField(parse_poly(Pstr, Fq))


def test_01_gauss_thakur_product_identity_exact():
    for Pstr, Fq in SMALL_PAIRS:
        cyc = _cyc(Pstr, Fq)
        want = CycElem.one(cyc, cyc.F).mul_scalar_poly(cyc.P)
        if cyc.d % 2 == 1:
            want = -want
        for chi in all_characters(cyc):
            if chi.is_trivial():
                continue
            assert gauss_thakur(chi) * gauss_thakur(chi.inv()) == want, \
                (Pstr, chi.n)


def test_02_b1_bc_congruence_exact():
    for Pstr, Fq in SMALL_PAIRS:
        cyc = _cyc(Pstr, Fq)
        rep = verify_congruence(cyc)
        assert len(rep.checks) == cyc.L - 1
        assert rep.passed(), (Pstr, rep.checks)


def test_03_euler_factor_charpoly_deg_le_3():
    for Pstr, Fq in SMALL_PAIRS:
        cyc = _cyc(Pstr, Fq)
        F = cyc.F
        for f in monic_irreducibles(Fq, 3):
            fbar = f.evaluate(F.theta, target=F)
            for chi in all_characters(cyc):
                got = euler_factor_charpoly(cyc, chi, f)
                want = list(f.coeffs)
                want[0] = F.sub(want[0], chi(fbar))
                assert got == want, (Pstr, chi.n, f)


def test_04_euler_product_matches_direct_sum_window_8():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3)]:
        cyc = _cyc(Pstr, Fq)
        B = 8
        table = ClassSumTable(cyc.P, B)
        for chi in all_characters(cyc):
            direct = l_inf(cyc, chi, table)
            euler = euler_product(cyc, chi, B, B + 1)
            assert euler.agrees_with(direct, upto=B + 1), (Pstr, chi.n)


def test_05_odd_character_l_formula_12_coefficients():
    for Pstr, Fq in SMALL_PAIRS:
        cyc = _cyc(Pstr, Fq)
        for chi in all_characters(cyc):
            if not chi.is_odd():
                continue
            rep = verify_b1_formula(cyc, chi, 16, min_coeffs=12)
            assert rep.passed(), (Pstr, chi.n, rep.checks)


def test_06_cnf_lattice_index_10_coefficients():
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3)]:
        rep = verify_cnf(_cyc(Pstr, Fq), 16, min_coeffs=10)
        assert rep.passed(), (Pstr, rep.checks)


def test_07_anderson_identity_m_1_to_5():
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        for m in range(1, 6):
            rep = verify_anderson(cyc, m, N, 16)
            assert rep.passed(), (Pstr, m, rep.checks)


def test_08_padic_parity_vanishing_and_truncation():
    for Pstr, N in [("T+1", 6), ("T^2+1", 4)]:
        cyc = _cyc(Pstr, F3)
        table = PadicClassSumTable(cyc.P, N)
        for chi in all_characters(cyc):
            lv = l_padic(cyc, chi, table)
            if chi.is_odd():
                assert lv.is_zero(), (Pstr, chi.n)
            else:
                assert not lv.is_zero(), (Pstr, chi.n)
        # the d blocks past the cut vanish mod P^N
        assert all(s.is_zero()
                   for n in range(table.n_max + 1, table.n_max + cyc.d + 1)
                   for s in table.blocks(n).values()), Pstr


def test_09_padic_exp_log_roundtrip_50_random():
    rng = random.Random(20260826)
    for Pstr, Fq, N in [("T^2+T+1", F2, 4), ("T^2+1", F3, 3)]:
        cyc = _cyc(Pstr, Fq)
        assert N * cyc.L >= 3 * cyc.L  # coordinate prec N gives m-prec N*L
        ring = cyc.padic_ring(N)
        done = 0
        while done < 50:
            coords = [Poly(Fq, [rng.randrange(Fq.order)
                                for _ in range(ring.d * N)])
                      for _ in range(cyc.L)]
            coords[0] = coords[0] * ring.P * ring.P
            coords[1] = coords[1] * ring.P
            z = ring.elem(coords, N)
            vz = z.vm()
            if vz is None or vz < 2:
                continue
            done += 1
            e = padic_exp(z)
            assert e.vm() == vz, (Pstr, done)
            back = padic_log(e)
            assert back.agrees_with(z.truncate(back.prec)), (Pstr, done)


def test_10_herbrand_ribet_scans_and_stretch_prime():
    for Pstr, Fq in SMALL_PAIRS:
        P = parse_poly(Pstr, Fq)
        assert hr_scan(P, mode="streaming") == hr_scan(P, mode="exact-small")
    # stretch run: the paper's even-part counterexample prime; this scan
    # decides only the odd part and the even-part claim stays a citation
    P9 = parse_poly("T^9+2*T^6+2*T^4+2*T^3+2*T^2+1", F3)
    t0 = time.monotonic()
    irr = hr_scan(P9)
    dual = hr_dual_check(P9)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, "stretch scan took %.0fs" % elapsed
    assert dual["ok"], dual
    assert all(n % 2 == 0 and 1 < n < 3 ** 9 - 1 for n in irr)


def test_11_bernoulli_carlitz_vanishing_q3():
    Fq = F3
    for n in range(1, 201):
        if n % (3 - 1) == 0:
            continue
        assert CarlitzTables(Fq).bc_prime(n).is_zero(), n


def test_12_normal_basis_eta_three_pairs():
    for Pstr, Fq in SMALL_PAIRS:
        cyc = _cyc(Pstr, Fq)
        coords_A, det = normal_basis_eta(cyc)
        assert int(det.num.degree) == 0 and int(det.den.degree) == 0, Pstr
        eta_F = CycElem.from_A_coords(cyc, cyc.F, coords_A)
        for chi in all_characters(cyc):
            assert idempotent_project(chi, eta_F) == gauss_thakur(chi), \
                (Pstr, chi.n)
