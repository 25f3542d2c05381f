import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.core import CarlitzTables
from carlitz import lvalues
from carlitz.cyclotomic import Character, CycElem, CycField, all_characters
from carlitz.equivariant import descends
from carlitz.fields import make_field, residue_field
from carlitz.laurent import LaurentSeries
from carlitz.lvalues import (ClassSumTable, PadicClassSumTable, _charpoly,
                             deg_L, euler_factor_charpoly, euler_product,
                             inf_block_valuation, l_inf, l_padic,
                             padic_block_valuation)
from carlitz.polynomials import (Poly, RatFunc, monic_irreducibles, monic_polys,
                                 parse_poly)
from enumeration import brute_blocks
from kernel_charpoly import kernel_charpolys, t_powers, times_T, vector
from padic_oracle import PadicContext

F2 = make_field(2)
F3 = make_field(3)


def test_class_sums_match_brute_force():
    # every closed-form block, class 0 included, against enumeration over
    # every degree the old 2n - d bound kept; past the cut both are zero
    # to precision, and the totals are the sums of the enumerated blocks
    for q, Pstr, depth in [(3, "T^2+1", 8), (2, "T^3+T+1", 10), (3, "T+1", 8),
                           (2, "T^2+T+1", 9)]:
        P = parse_poly(Pstr, make_field(q))
        table = ClassSumTable(P, depth)
        zero = LaurentSeries.zero(P.field, table.prec)
        totals = dict.fromkeys(residue_field(P).elements(), zero)
        for n in range((depth + int(P.degree)) // 2 + 1):
            brute = brute_blocks(P, n, prec=table.prec)
            for sigma in totals:
                want = brute.get(sigma, zero)
                assert table.blocks(n)[sigma] == want, (Pstr, n, sigma)
                totals[sigma] = totals[sigma] + want
        for sigma, want in totals.items():
            assert table.class_total(sigma) == want, (Pstr, sigma)


def test_padic_class_sums_match_brute_force():
    # every closed-form unit-class block mod P^N against enumeration up
    # to the old bound N*d, past the cut included
    for q, Pstr, N in [(3, "T^2+1", 3), (2, "T^3+T+1", 3), (3, "T+1", 4),
                       (2, "T^2+T+1", 4)]:
        P = parse_poly(Pstr, make_field(q))
        table = PadicClassSumTable(P, N)
        zero = Poly.zero(P.field)
        totals = dict.fromkeys(residue_field(P).units(), zero)
        back = table.ring.to_poly
        for n in range(N * int(P.degree) + 1):
            brute = brute_blocks(P, n, N=N)
            for sigma in totals:
                want = brute.get(sigma, zero)
                assert back(table.blocks(n)[sigma]) == want, (Pstr, n, sigma)
                totals[sigma] = (totals[sigma] + want) % P ** N
        for sigma, want in totals.items():
            assert back(table.class_total(sigma)) == want, (Pstr, sigma)


def test_truncation_lemma_blocks_vanish():
    # the older, weaker bound: class blocks of degree n > (depth+d)//2
    # are O(T^{-(depth+1)}); verify by brute force just past that cutoff
    for Pstr, Fq, depth in [("T^2+1", F3, 6), ("T^2+T+1", F2, 8), ("T^3+T+1", F2, 7)]:
        P = parse_poly(Pstr, Fq)
        d = int(P.degree)
        n_full = (depth + d) // 2
        for n in range(n_full + 1, min(n_full + 3, depth + 1)):
            for sigma, s in brute_blocks(P, n, prec=depth + 1).items():
                v = s.valuation()
                assert v is None or v >= 2 * n - d, (Pstr, n, sigma, v)
                assert v is None or v > depth


def test_full_blocks_valuation():
    # the zeta block of degree m, summed over every class, is (-1)^m /
    # L_m: valuation exactly deg L_m = 0, 3, 12, 39 over F_3, all four
    # inside depth 40; the closed form gives it class by class
    P = parse_poly("T^2+1", F3)
    table = ClassSumTable(P, 40)
    F = residue_field(P)
    tab = CarlitzTables(F3)
    for m in range(4):
        brute = LaurentSeries.zero(F3, table.prec)
        closed = LaurentSeries.zero(F3, table.prec)
        for sigma, s in brute_blocks(P, m, prec=table.prec).items():
            brute = brute + s
        for sigma in F.elements():
            closed = closed + table.blocks(m)[sigma]
        assert brute.valuation() == deg_L(3, m), m
        assert closed == brute, m
        want = LaurentSeries.from_ratfunc(
            RatFunc(Poly.const(F3, (-1) ** m % 3), tab.L(m)), table.prec)
        assert brute == want, m


def test_block_row_sums_match_full():
    # the class totals, class 0 included, add up to the enumerated sums
    # of 1/a over all monic a; class 0 alone is 1/P times that sum
    P = parse_poly("T^2+1", F3)
    depth = 8
    table = ClassSumTable(P, depth)
    F = residue_field(P)
    total = LaurentSeries.zero(F3, table.prec)
    for sigma in F.elements():
        total = total + table.class_total(sigma)
    zeta = LaurentSeries.zero(F3, table.prec)
    zero_class = LaurentSeries.zero(F3, table.prec)
    for n in range((depth + int(P.degree)) // 2 + 1):
        brute = brute_blocks(P, n, prec=table.prec)
        for s in brute.values():
            zeta = zeta + s
        if 0 in brute:
            zero_class = zero_class + brute[0]
    assert total == zeta
    assert table.class_total(0) == zero_class
    pinv = LaurentSeries.from_ratfunc(RatFunc(Poly.one(F3), P), table.prec)
    assert zero_class.agrees_with(pinv * zeta)


def test_l_inf_leading_term():
    for Pstr, Fq in [("T^2+1", F3), ("T^2+T+1", F2)]:
        cyc = CycField(parse_poly(Pstr, Fq))
        table = ClassSumTable(cyc.P, 10)
        for chi in all_characters(cyc):
            lv = l_inf(cyc, chi, table)
            assert lv.valuation() == 0
            assert lv.leading() == 1  # the a = 1 term dominates


def test_l_inf_descends():
    cyc = CycField(parse_poly("T^2+1", F3))
    table = ClassSumTable(cyc.P, 10)
    assert descends(cyc, {chi.n: l_inf(cyc, chi, table)
                          for chi in all_characters(cyc)})


def test_euler_product_matches_l_inf():
    # the acceptance-grade agreement at window 8
    for Pstr, Fq in [("T^2+T+1", F2), ("T^2+1", F3)]:
        cyc = CycField(parse_poly(Pstr, Fq))
        B = 8
        table = ClassSumTable(cyc.P, B)
        for chi in all_characters(cyc):
            direct = l_inf(cyc, chi, table)
            euler = euler_product(cyc, chi, B, B + 1)
            assert euler.agrees_with(direct, upto=B + 1), (Pstr, chi.n)


def _euler_product_per_factor(cyc, chi, max_deg_f, prec):
    """Slow oracle: invert every factor 1 - chi(f)/f on its own, over
    primes found by trial division."""
    F = cyc.F
    acc = LaurentSeries.const(F, 1, prec)
    for d in range(1, max_deg_f + 1):
        for f in monic_polys(cyc.Fq, d):
            c = chi(f.evaluate(F.theta, target=F))
            if c == 0 or not f.is_irreducible():
                continue
            finv = LaurentSeries.from_ratfunc(
                RatFunc(Poly.one(cyc.Fq), f), prec + int(f.degree) + 1,
                field=F)
            factor = (LaurentSeries.const(F, 1, prec + 1)
                      - finv.scale(c)).inv().truncate(prec)
            acc = acc * factor
    return acc.truncate(prec)


@pytest.mark.parametrize("q,Pstr,B", [(2, "T^2+T+1", 8), (3, "T^2+1", 5),
                                      (5, "T+2", 4), (3, "T^3+2*T+1", 4),
                                      (2, "T^3+T+1", 6)])
def test_euler_product_matches_per_factor_oracle(q, Pstr, B):
    # the class grouping (26 nonzero classes for the cubic over F_3)
    # against one inverse per factor; at prec 3 primes of degree >= 3
    # drop out of the grouping but not out of the oracle
    cyc = CycField(parse_poly(Pstr, make_field(q)))
    for chi in all_characters(cyc):
        for prec in (B + 1, 3):
            got = euler_product(cyc, chi, B, prec)
            want = _euler_product_per_factor(cyc, chi, B, prec)
            assert (got.val, got.coeffs, got.prec) == \
                (want.val, want.coeffs, want.prec), (q, Pstr, chi.n, prec)


def _class_symmetric_laurent(cyc, max_deg_f, prec):
    """Oracle: the E_{r,k} table in LaurentSeries arithmetic, one Laurent
    inverse of f, checked against f, and one product and sum per (f, k)."""
    one = LaurentSeries.const(cyc.Fq, 1, prec)
    zero = LaurentSeries.zero(cyc.Fq, prec)
    table = {}
    for f in cyc.irreducibles(min(max_deg_f, prec - 1)):
        sym = table.setdefault(f.evaluate(cyc.F.theta, target=cyc.F),
                               [one] + [zero] * (prec - 1))
        x = LaurentSeries.from_poly(f, prec - 2 * int(f.degree)).inv()
        assert x * LaurentSeries.from_poly(f, prec) == \
            LaurentSeries.const(cyc.Fq, 1, prec - int(f.degree))
        for k in range(prec - x.val, 0, -1):  # x.val = deg f
            sym[k] = sym[k] + x * sym[k - 1]
    return table


@pytest.mark.parametrize("q,Pstr,windows", [
    (3, "T^2+1", [(8, 9), (3, 6), (8, 2)]),
    (2, "T^3+T+1", [(8, 9), (5, 12)]),
    (5, "T+2", [(4, 9), (2, 5)]),
    (3, "T^3+2*T+1", [(8, 9), (4, 4)]),
    (2, "T+1", [(8, 9), (1, 3)]),
    ((2, 2), "T+1", [(5, 6)]),
])
def test_class_symmetric_matches_the_laurent_oracle(q, Pstr, windows):
    # the coefficient-list table, wrapped once, against the one built in
    # LaurentSeries arithmetic: every class, every k, val and prec alike;
    # F_4 takes the residues by evaluation, the prime fields by digits
    Fq = make_field(*q) if isinstance(q, tuple) else make_field(q)
    cyc = CycField(parse_poly(Pstr, Fq))
    for max_deg_f, prec in windows:
        got = lvalues._class_symmetric(cyc, max_deg_f, prec)
        want = _class_symmetric_laurent(cyc, max_deg_f, prec)
        assert list(got) == list(want), (q, Pstr, max_deg_f, prec)
        for r, sym in want.items():
            assert got[r] == sym, (q, Pstr, max_deg_f, prec, r)


def test_euler_product_inverts_no_series_per_prime(monkeypatch):
    # the euler suite at (3, T^2+1) sieves 1,318 primes of degree <= 8;
    # past the class table its Euler products invert one series per
    # character (the product over the classes), never one per prime
    calls = []

    def counting(self, _inv=LaurentSeries.inv):
        calls.append(self)
        return _inv(self)
    monkeypatch.setattr(LaurentSeries, "inv", counting)
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = CycField(parse_poly("T^2+1", F3))
    for chi in all_characters(cyc):
        euler_product(cyc, chi, 8, 9)
    assert len(cyc.irreducibles(8)) == 1318
    assert len(calls) == len(all_characters(cyc)) == 8


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, "T+1"), (2, "T^2+T+1"), (3, "T+1"),
                        (3, "T^2+1"), (5, "T+2")]),
       st.integers(0, 7), st.integers(1, 4), st.integers(2, 8))
def test_euler_product_precision_sound(qP, n, max_deg_f, p):
    # the window claimed at precision p is exactly the 2p value, cut to p
    cyc = CycField(parse_poly(qP[1], make_field(qP[0])))
    chi = Character(cyc, n)  # n is reduced mod L
    low = euler_product(cyc, chi, max_deg_f, p)
    assert low.prec == p
    assert low == euler_product(cyc, chi, max_deg_f, 2 * p).truncate(p)


def test_euler_factor_charpoly_identity():
    # char poly of T + tau on e_chi(F tensor O_K/f) = f(Z) - chi(f)
    for Pstr, Fq in [("T^2+1", F3), ("T^2+T+1", F2)]:
        cyc = CycField(parse_poly(Pstr, Fq))
        F = cyc.F
        for f in monic_irreducibles(Fq, 2):
            fbar = f.evaluate(F.theta, target=F)
            for chi in all_characters(cyc):
                got = euler_factor_charpoly(cyc, chi, f)
                want = [c for c in f.coeffs]
                want[0] = F.sub(want[0], chi(fbar))
                assert got == want, (Pstr, chi.n, f)


@pytest.mark.parametrize("q,Pstr", [(3, "T^2+1"), (2, "T^3+T+1"),
                                    (3, "T^3+2*T+1"), (5, "T^2+2")])
def test_euler_factor_charpoly_matches_the_kernel_oracle(q, Pstr):
    # every (f, chi) with f = P or deg f <= 3 (<= 2 where q^d > 9),
    # against the kernel of sigma_g - chi(g) on all of F tensor O_K/f
    cyc = CycField(parse_poly(Pstr, make_field(q)))
    primes = set(cyc.irreducibles(3 if cyc.L < 9 else 2)) | {cyc.P}
    for f in primes:
        want = kernel_charpolys(cyc, f)
        for chi in all_characters(cyc):
            assert euler_factor_charpoly(cyc, chi, f) == want[chi.n], \
                (Pstr, f, chi.n)


@pytest.mark.parametrize("q,Pstr", [(2, "T^3+T+1"), (3, "T^2+1"),
                                    (3, "T^3+2*T+1"), (5, "T^2+2")])
def test_tau_multiplier_is_thakurs_closed_form(q, Pstr):
    # tau(tau(chi)) = r tau(chi) with r = prod_j (theta^{q^j} - T)^{n_j}
    # for chi = omega^n, n = sum_j n_j q^j (Thakur 1988)
    cyc = CycField(parse_poly(Pstr, make_field(q)))
    F = cyc.F
    for chi in all_characters(cyc):
        want, n = Poly.one(F), chi.n
        for j in range(cyc.d):
            root = Poly(F, [F.pow(F.theta, q ** j), F.neg(1)])
            want = want * root ** (n % q)
            n //= q
        assert lvalues._chi_line(cyc, chi)[1] == want, (Pstr, chi.n)


@pytest.mark.parametrize("q,Pstr", [(3, "T^2+1"), (2, "T^3+T+1"),
                                    (5, "T+2")])
def test_vector_matches_poly_remainders(q, Pstr):
    # the table-based coordinates of (sum_k r_k lambda^k) T^e mod f, for
    # random r_k over F and F_q, against Poly % f; one companion step is
    # T times the remainder
    cyc = CycField(parse_poly(Pstr, make_field(q)))
    rng = random.Random(7)
    for f in cyc.irreducibles(3):
        m = int(f.degree)
        for field in (cyc.F, cyc.Fq):
            for _ in range(5):
                coords = [Poly(field, [rng.randrange(field.order)
                                       for _ in range(rng.randrange(12))])
                          for _ in range(cyc.L)]
                e = rng.randrange(2 * m + 2)
                pows = t_powers(f, e + max(len(c.coeffs) for c in coords),
                                field)
                got = vector(coords, e, pows, field)
                want = []
                for r in coords:
                    cs = (r.shift(e) % f).coeffs
                    want.extend(cs + (0,) * (m - len(cs)))
                assert got == want, (Pstr, f, e)
                rem = (coords[0].shift(e) % f).coeffs
                cs = (coords[0].shift(e + 1) % f).coeffs
                assert times_T(list(rem + (0,) * (m - len(rem))), f,
                               field) == list(cs + (0,) * (m - len(cs)))


def _lambda(cyc):
    """1 tensor lambda as a CycElem over F."""
    F = cyc.F
    return CycElem(cyc, F, [Poly.one(F) if i == 1 else Poly.zero(F)
                            for i in range(cyc.L)])


def test_euler_factor_charpoly_rejects_a_non_invariant_image(monkeypatch):
    # every sigma_b faked to the identity, so any element passes the
    # eigenvector check for the trivial character, and tau(1) faked to
    # lambda: the span of lambda T^j mod f is not preserved, since tau
    # moves lambda to lambda^q; a fresh context, so nothing built from the
    # true sigma_b or tau(1) is reused
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = CycField(parse_poly("T^2+1", F3))
    zero, one = Poly.zero(F3), Poly.one(F3)
    identity = [[one if k == i else zero for k in range(cyc.L)]
                for i in range(cyc.L)]
    monkeypatch.setattr(cyc, "sigma_power", lambda b, m: identity[m])
    monkeypatch.setattr(lvalues, "gauss_thakur", lambda chi: _lambda(cyc))
    with pytest.raises(ArithmeticError, match="does not preserve"):
        euler_factor_charpoly(cyc, Character(cyc, 0), parse_poly("T+1", F3))


def test_euler_factor_charpoly_rejects_tau_outside_the_eigenspace(monkeypatch):
    # lambda in place of tau(omega): sigma_g(lambda) = phi_g(lambda) is not
    # g lambda, so the eigenvector check fails before any matrix is built
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = CycField(parse_poly("T^2+1", F3))
    monkeypatch.setattr(lvalues, "gauss_thakur", lambda chi: _lambda(cyc))
    with pytest.raises(ArithmeticError, match="eigenspace"):
        euler_factor_charpoly(cyc, Character(cyc, 1), parse_poly("T+1", F3))


def test_euler_factor_charpoly_rejects_dependent_tau_multiples(monkeypatch):
    # f tau(chi) in place of tau(chi): still in the eigenspace, and tau
    # still sends it to a multiple (f^{q-1} r), but its multiples by
    # T^j vanish mod f, so only the gcd check can see it
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = CycField(parse_poly("T^2+1", F3))
    f = parse_poly("T+1", F3)
    true_tau = lvalues.gauss_thakur
    monkeypatch.setattr(lvalues, "gauss_thakur",
                        lambda chi: true_tau(chi).mul_scalar_poly(f))
    for n in (0, 1, 5):
        with pytest.raises(ArithmeticError, match="not independent"):
            euler_factor_charpoly(cyc, Character(cyc, n), f)


def _charpoly_cofactor(mat, F):
    """Slow oracle: det(Z*I - mat) by cofactor expansion, O(n!)."""
    n = len(mat)

    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return out

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
        return out

    entries = [[[F.neg(mat[i][j])] for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = padd(entries[i][i], [0, 1])

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = [0]
        for t, c in enumerate(cols):
            term = pmul(entries[rows[0]][c],
                        det(rows[1:], cols[:t] + cols[t + 1:]))
            if t % 2 == 1:
                term = [F.neg(x) for x in term]
            acc = padd(acc, term)
        return acc

    out = det(list(range(n)), list(range(n)))
    return out + [0] * (n + 1 - len(out))


@pytest.mark.parametrize("q,Pstr", [(3, "T^2+1"), (2, "T^3+T+1")])
def test_charpoly_matches_cofactor_oracle(q, Pstr):
    # random matrices over F_9 and F_8, half the entries zero so the
    # Hessenberg reduction also meets columns with no pivot
    F = residue_field(parse_poly(Pstr, make_field(q)))
    rng = random.Random(q)
    for m in range(1, 7):
        for _ in range(4):
            mat = [[rng.randrange(F.order) if rng.random() < 0.5 else 0
                    for _ in range(m)] for _ in range(m)]
            assert _charpoly(mat, F) == _charpoly_cofactor(mat, F), mat


def test_padic_class_sums_consistent_across_N():
    P = parse_poly("T^2+1", F3)
    t2 = PadicClassSumTable(P, 2)
    t3 = PadicClassSumTable(P, 3)
    F = residue_field(P)
    for sigma in range(1, 9):
        a = t2.class_total(sigma)
        b = t3.class_total(sigma).truncate(2)
        assert a == b


def test_padic_validation_blocks_vanish():
    # the next d blocks past the cut vanish mod P^N, by the closed form
    # and by enumeration; the last two cases are acceptance test 08's
    for Pstr, Fq, N in [("T^2+1", F3, 2), ("T+1", F3, 4), ("T^3+T+1", F2, 3),
                        ("T+1", F3, 6), ("T^2+1", F3, 4)]:
        P = parse_poly(Pstr, Fq)
        d = int(P.degree)
        t = PadicClassSumTable(P, N)
        for n in range(t.n_max + 1, t.n_max + d + 1):
            assert all(s.is_zero() for s in t.blocks(n).values()), (Pstr, N, n)
            blocks = brute_blocks(P, n, N=N)
            assert all(s.is_zero() for s in blocks.values()), (Pstr, N, n)


@pytest.mark.parametrize("q,Pstr,n_top", [(3, "T^2+1", 4), (2, "T^3+T+1", 6),
                                          (3, "T+1", 3)])
def test_block_valuation_exact_at_infinity(q, Pstr, n_top):
    # every unit-class block of degree d + m has valuation d + deg L_m,
    # and every zeta block (all monic a of degree m) has deg L_m; a
    # valuation past the window shows as a block that is zero to it
    P = parse_poly(Pstr, make_field(q))
    d = int(P.degree)
    prec = inf_block_valuation(q, d, n_top) + 2

    def seen(v):
        return v if v < prec else None
    for n in range(n_top + 1):
        blocks = brute_blocks(P, n, prec=prec)
        zeta = LaurentSeries.zero(P.field, prec)
        for sigma, s in blocks.items():
            zeta = zeta + s
            if sigma:
                assert s.valuation() == inf_block_valuation(q, d, n), (n, sigma)
        assert zeta.valuation() == seen(deg_L(q, n)), n


@pytest.mark.parametrize("q,Pstr,N,n_top", [(3, "T^2+1", 9, 4),
                                            (2, "T^3+T+1", 8, 6),
                                            (3, "T+1", 11, 3),
                                            (3, "T^3+2*T+1", 9, 5),
                                            (5, "T^2+2", 5, 3)])
def test_block_valuation_exact_at_P(q, Pstr, N, n_top):
    # v_P of every unit-class block of degree d + m is
    # v_P(D_m) - v_P(L_m) + q^m - 1; inverses by xgcd, not the table's.
    # The table's blocks mod u^N have that valuation, read back as the
    # enumerated ones, and are the blocks mod u^2N cut to N digits
    Fq = make_field(q)
    P = parse_poly(Pstr, Fq)
    ctx = PadicContext(P, N)
    d = int(P.degree)
    low, high = PadicClassSumTable(P, N), PadicClassSumTable(P, 2 * N)
    assert padic_block_valuation(Fq, d, n_top) < N
    for n in range(n_top + 1):
        lo, hi = low.blocks(n), high.blocks(n)
        for sigma, s in brute_blocks(P, n, N=N).items():
            assert ctx.vP(s, N) == padic_block_valuation(Fq, d, n), (n, sigma)
            assert lo[sigma].valuation() == ctx.vP(s, N), (n, sigma)
            assert lo[sigma] == hi[sigma].truncate(lo[sigma].prec), (n, sigma)
            assert low.ring.to_poly(lo[sigma]) == s, (n, sigma)
            assert high.ring.to_poly(hi[sigma]) % P ** N == s, (n, sigma)
            assert lo[sigma].prec == N


def test_deep_window_cuts():
    # the exact cuts keep depth 64 and N 12 to a few hundred polynomials
    P = parse_poly("T^2+1", F3)
    assert ClassSumTable(P, 64).n_full == 5
    assert PadicClassSumTable(P, 12).n_max == 4


DESK = [(2, "T+1"), (2, "T^2+T+1"), (2, "T^3+T+1"), (2, "T^3+T^2+1"),
        (3, "T+1"), (3, "T^2+1")]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DESK), st.integers(1, 12))
def test_l_inf_precision_sound(qP, B):
    # a wrong cut drops a block the doubled window keeps
    cyc = CycField(parse_poly(qP[1], make_field(qP[0])))
    low, high = ClassSumTable(cyc.P, B), ClassSumTable(cyc.P, 2 * B)
    for chi in all_characters(cyc):
        assert l_inf(cyc, chi, low) == \
            l_inf(cyc, chi, high).truncate(B + 1), (qP, B, chi.n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DESK + [(3, "T^3+2*T+1"), (5, "T^2+2")]),
       st.integers(1, 5))
def test_l_padic_precision_sound(qP, N):
    # the table, l_padic and the Poly read back, at N and at 2N: the low
    # results hold every digit they claim, and claim N
    cyc = CycField(parse_poly(qP[1], make_field(qP[0])))
    low, high = PadicClassSumTable(cyc.P, N), PadicClassSumTable(cyc.P, 2 * N)
    PN = cyc.P ** N
    for sigma in cyc.units():
        got = low.class_total(sigma)
        assert got == high.class_total(sigma).truncate(got.prec), (qP, N)
        assert got.prec == N
    for chi in all_characters(cyc):
        got, hi = l_padic(cyc, chi, low), l_padic(cyc, chi, high)
        assert got == hi.truncate(got.prec), (qP, N, chi.n)
        back = low.ring.to_poly(got)
        assert back == back % PN
        assert back == high.ring.to_poly(hi) % cyc.P ** got.prec, (qP, N)
        assert got.prec == N


def test_l_padic_parity_small():
    # the P-adic value vanishes exactly at odd characters: the
    # interpolation Euler factor kills the odd part of the sum
    P = parse_poly("T^2+1", F3)
    cyc = CycField(P)
    table = PadicClassSumTable(P, 3)
    for chi in all_characters(cyc):
        lv = l_padic(cyc, chi, table)
        if chi.is_odd():
            assert lv.is_zero(), chi.n
        else:
            assert not lv.is_zero(), chi.n
