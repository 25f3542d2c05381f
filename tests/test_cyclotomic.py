import pytest

from carlitz import cyclotomic
from carlitz.core import carlitz_act
from carlitz.cyclotomic import (Character, CycElem, CycField, all_characters,
                                b1, embed_padic, gauss_thakur, lambda_traces,
                                p_over_lambda_coords, sigma_act, torsion_poly,
                                InftyEmbedding)
from carlitz.fields import make_field
from carlitz.lvalues import PadicClassSumTable, l_padic
from carlitz.polynomials import Poly, RatFunc, parse_poly
from carlitz.special_points import odd_fitting_report, recognize_integral
from galois_oracle import (OBJECT_OPS, idempotent_project, normal_basis_eta,
                           row_reduce)
from recognize_oracle import embed_infty

F2 = make_field(2)
F3 = make_field(3)

PAIRS = [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]


def cyc_of(s, F):
    return CycField(parse_poly(s, F))


def lam(cyc, field=None):
    F = field or cyc.Fq
    coords = [Poly.zero(F)] * cyc.L
    coords[1] = Poly.one(F)
    return CycElem(cyc, F, coords)


def test_psi_eisenstein_and_monic():
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        psi = torsion_poly(cyc.P)
        assert psi[0] == cyc.P
        assert psi[-1].is_one()
        assert len(psi) == cyc.L + 1


def test_psi_annihilates_lambda():
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        x = lam(cyc)
        acc = CycElem.zero(cyc, cyc.Fq)
        pw = CycElem.one(cyc, cyc.Fq)
        for c in torsion_poly(cyc.P):
            if not c.is_zero():
                acc = acc + pw.mul_scalar_poly(c)
            pw = pw * x
        assert acc.is_zero()


def test_reduction_rows_built_once_per_field(monkeypatch):
    # the rows of lambda^k, k >= L, belong to the field: building it and
    # its P-adic rings rebuilds none
    import carlitz.cyclotomic
    calls = []
    real = carlitz.cyclotomic.lambda_power_rows

    def counting(psi):
        calls.append(len(psi))
        return real(psi)
    monkeypatch.setattr(carlitz.cyclotomic, "lambda_power_rows", counting)
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = cyc_of("T^2+1", F3)
    cyc.padic_ring(3).elem(lam(cyc).coords)
    cyc.padic_ring(4).elem(lam(cyc).coords)
    assert len(calls) == 1


def test_padic_ring_builds_its_series_once(monkeypatch):
    # one lambda table per (P, N), built on the first element; a ring
    # that only serves A_P (l-values --place P, fitting) builds X(u) but
    # no lambda table and no unit series.  A fresh field: another test
    # may have built these rings already
    from carlitz.core import padic_exp, padic_log
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = cyc_of("T^3+T+1", F2)
    PadicClassSumTable(cyc.P, 5)
    odd_fitting_report(cyc, 5)
    ring = cyc.padic_ring(5)
    assert ring.builds == 0 and ring._n == 5 and not ring._unit_series
    x = ring.elem(lam(cyc).coords).mul_scalar_poly(cyc.P)
    assert ring.builds == 1
    padic_log(padic_exp(x))
    embed_padic(lam(cyc, cyc.F) * lam(cyc, cyc.F), 5)
    assert ring.builds == 1
    assert cyc.padic_ring(5) is ring and cyc.padic_ring(4).builds == 0


@pytest.mark.parametrize("s,F", PAIRS + [("T+1", F2)])
def test_sigma_lambda_is_carlitz_action(s, F):
    # oracle: phi_b applied to lambda through CycElem's frobq and scalar
    # products; (2, T+1) has L = 1, where lambda = -P is itself folded
    cyc = cyc_of(s, F)
    x = (CycElem.from_A_coords(cyc, cyc.Fq, [-cyc.P]) if cyc.L == 1
         else lam(cyc))
    for b in cyc.units():
        want = carlitz_act(cyc.unit_rep_poly(b), x)
        got = CycElem.from_A_coords(cyc, cyc.Fq, cyc.sigma_lambda(b))
        assert got == want, (s, b)


def test_sigma_is_group_action():
    cyc = cyc_of("T^2+1", F3)
    F = cyc.F
    x = lam(cyc)
    for b in [2, 3, 5]:
        for c in [2, 7]:
            bc = F.mul(b, c)
            lhs = sigma_act(cyc, b, sigma_act(cyc, c, x))
            assert lhs == sigma_act(cyc, bc, x)
    # identity element acts trivially
    assert sigma_act(cyc, 1, x) == x


def test_sigma_fixes_base():
    cyc = cyc_of("T^2+1", F3)
    one = CycElem.one(cyc, cyc.Fq)
    t = one.mul_scalar_poly(Poly.x(F3))
    for b in cyc.units():
        assert sigma_act(cyc, b, t) == t


def test_lambda_inverse():
    # P/lambda is P times the inverse of lambda, and integral
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        p_over = CycElem.from_A_coords(cyc, cyc.Fq, p_over_lambda_coords(cyc))
        assert p_over * lam(cyc) == \
            CycElem.one(cyc, cyc.Fq).mul_scalar_poly(cyc.P)


def test_idempotents_resolve_identity():
    cyc = cyc_of("T^2+1", F3)
    F = cyc.F
    x = lam(cyc, F) * lam(cyc, F) + CycElem.one(cyc, F).mul_scalar_poly(
        parse_poly("T+2", F3))
    total = CycElem.zero(cyc, F)
    for chi in all_characters(cyc):
        px = idempotent_project(chi, x)
        # projector property: e_chi is Delta-eigen
        for b in [2, 5]:
            assert sigma_act(cyc, b, px) == px.scale_coeff(chi(b))
        total = total + px
    assert total == x


def test_idempotents_orthogonal():
    cyc = cyc_of("T^2+T+1", F2)
    F = cyc.F
    x = lam(cyc, F)
    chis = all_characters(cyc)
    for chi in chis:
        px = idempotent_project(chi, x)
        assert idempotent_project(chi, px) == px
        for other in chis:
            if other.n != chi.n:
                assert idempotent_project(other, px).is_zero()


def test_gauss_thakur_trivial_is_one():
    cyc = cyc_of("T^2+1", F3)
    assert gauss_thakur(Character(cyc, 0)) == CycElem.one(cyc, cyc.F)


def test_gauss_thakur_eigenvector():
    # sigma_b tau(chi) = chi(b) tau(chi)
    for s, F in PAIRS[:2]:
        cyc = cyc_of(s, F)
        for chi in all_characters(cyc):
            tau = gauss_thakur(chi)
            for b in list(cyc.units())[:3]:
                assert sigma_act(cyc, b, tau) == tau.scale_coeff(chi(b))


def test_gauss_thakur_product_identity():
    # tau(chi) tau(chi^{-1}) = (-1)^d (1 tensor P) for nontrivial chi
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        want = CycElem.one(cyc, cyc.F).mul_scalar_poly(cyc.P)
        if cyc.d % 2 == 1:
            want = -want
        for chi in all_characters(cyc):
            if chi.is_trivial():
                continue
            prod = gauss_thakur(chi) * gauss_thakur(chi.inv())
            assert prod == want, (s, chi.n)


def test_gauss_thakur_integrality():
    cyc = cyc_of("T^2+1", F3)
    for chi in all_characters(cyc):
        for c in gauss_thakur(chi).coords:
            assert isinstance(c, Poly) and c.field == cyc.F


def _assert_poly_coords(x):
    for c in x.coords:
        assert isinstance(c, Poly) and c.field == x.field, (x, c)


@pytest.mark.parametrize("s,F", PAIRS + [("T+1", F3)])
def test_coordinates_stay_polynomials(s, F):
    # F tensor O_K = F[T][lambda]: no operation leaves the polynomial
    # coordinates, on either coefficient field
    cyc = cyc_of(s, F)
    chis = all_characters(cyc)
    for chi in chis:
        tau = gauss_thakur(chi)
        _assert_poly_coords(tau)
        _assert_poly_coords(tau * gauss_thakur(chis[(chi.n + 1) % cyc.L]))
        _assert_poly_coords(tau.frobq())
        _assert_poly_coords(sigma_act(cyc, cyc.L, tau))
        _assert_poly_coords(idempotent_project(chi, tau + CycElem.one(cyc, cyc.F)))
    emb = InftyEmbedding(cyc, 14)
    coords = [Poly.zero(cyc.Fq)] * cyc.L
    coords[-1] = parse_poly("T+1", cyc.Fq)
    u = recognize_integral(cyc, {b: emb.embed_coords(coords, b)
                                 for b in emb.reps}, emb)
    _assert_poly_coords(u)
    _assert_poly_coords(carlitz_act(cyc.P, u))


def test_eta_normal_basis():
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        coords_A, det = normal_basis_eta(cyc)
        # e_chi(1 tensor eta) = tau(chi)
        eta_F = CycElem.from_A_coords(cyc, cyc.F, coords_A)
        for chi in all_characters(cyc):
            assert idempotent_project(chi, eta_F) == gauss_thakur(chi), (s, chi.n)
        assert det.num.degree == 0


def test_b1_trivial_character():
    # q = 2: B_{1,1} = (P+1)/(T^2+T); q > 2: B_{1,1} = 0
    cyc = cyc_of("T^2+T+1", F2)
    val = b1(Character(cyc, 0))
    want = RatFunc(_embed(cyc.P + Poly.one(F2), cyc.F),
                   _embed(parse_poly("T^2+T", F2), cyc.F))
    assert val == want
    cyc3 = cyc_of("T^2+1", F3)
    assert b1(Character(cyc3, 0)).is_zero()


def _embed(p, F):
    return Poly(F, list(p.coeffs))


def _is_multiple(x, tau, r):
    """x = r tau, coordinate by coordinate, for a scalar r in F(T)."""
    return all(RatFunc.from_poly(a) == r * RatFunc.from_poly(t)
               for a, t in zip(x.coords, tau.coords))


@pytest.mark.parametrize("s,F", [("T^2+1", F3), ("T^3+T+1", F2),
                                 ("T^2+T+1", F2), ("T+1", F3)])
def test_tau_dual_and_b1_against_the_projection(s, F):
    # oracle: e_chi by the sum over Delta, for every chi and every
    # lambda^m, and for P/lambda against P B_1 tau
    cyc = cyc_of(s, F)
    dual = cyc.tau_dual()
    p_over = CycElem.from_A_coords(cyc, cyc.F, p_over_lambda_coords(cyc))
    P = RatFunc.from_poly(_embed(cyc.P, cyc.F))
    for chi in all_characters(cyc):
        tau = gauss_thakur(chi)
        for m in range(cyc.L):
            coords = [Poly.zero(F)] * cyc.L
            coords[m] = Poly.one(F)
            lam_m = CycElem.from_A_coords(cyc, cyc.F, coords)
            assert _is_multiple(idempotent_project(chi, lam_m), tau,
                                dual[m][chi.n]), (s, chi.n, m)
        assert _is_multiple(idempotent_project(chi, p_over), tau,
                            P * b1(chi)), (s, chi.n)


def _tau_dual_by_elimination(cyc):
    """The inverse of the matrix whose rows are the tau's, from one
    Gauss-Jordan reduction of [tau | I] over F(T): the oracle."""
    F, L = cyc.F, cyc.L
    zero, one = RatFunc.zero(F), RatFunc.one(F)
    rows = [[RatFunc.from_poly(c)
             for c in gauss_thakur(Character(cyc, n)).coords]
            + [one if k == n else zero for k in range(L)]
            for n in range(L)]
    pivots, _ = row_reduce(rows, OBJECT_OPS)
    assert pivots == list(range(L))
    return [row[L:] for row in rows]


@pytest.mark.parametrize("s,F", PAIRS + [("T+1", F2), ("T+1", F3),
                                         ("T^2+T+2", F3),
                                         ("T^2+2", make_field(5))])
def test_tau_dual_by_trace_matches_elimination(s, F):
    cyc = cyc_of(s, F)
    assert cyc.tau_dual() == _tau_dual_by_elimination(cyc)


@pytest.mark.parametrize("s,F", PAIRS + [("T^2+2", make_field(5))])
def test_trace_pairing_of_tau_chi_and_its_inverse(s, F):
    # D_chi = Tr(tau(chi) tau(chi^{-1})) = L (-1)^d P, L for trivial chi;
    # and Tr(lambda^j) agrees with the trace of multiplication by lambda^j
    cyc = cyc_of(s, F)
    t = [_embed(c, cyc.F) for c in lambda_traces(cyc.rows)]
    Lc = Poly(cyc.F, [cyc.L % cyc.q])
    for chi in all_characters(cyc):
        a, b = gauss_thakur(chi), gauss_thakur(chi.inv())
        D = sum((x * y * t[i + k] for i, x in enumerate(a.coords)
                 for k, y in enumerate(b.coords)), Poly.zero(cyc.F))
        want = Lc if chi.is_trivial() else Lc * _embed(cyc.P, cyc.F).scale(
            cyc.F.pow(cyc.F.neg(1), cyc.d))
        assert D == want, (s, chi.n)
    basis = []
    for i in range(cyc.L):
        coords = [Poly.zero(cyc.Fq)] * cyc.L
        coords[i] = Poly.one(cyc.Fq)
        basis.append(CycElem(cyc, cyc.Fq, coords))
    lam_j = basis[0]
    for j in range(2 * cyc.L - 1):
        tr = sum(((x * lam_j).coords[i] for i, x in enumerate(basis)),
                 Poly.zero(cyc.Fq))
        assert _embed(tr, cyc.F) == t[j], (s, j)
        lam_j = lam_j * lam(cyc)


def test_b1_and_tau_dual_project_nothing(monkeypatch):
    # once the tau(chi) are built, the dual basis and B_1 need no sum
    # over the Galois group
    import carlitz.cyclotomic
    monkeypatch.setattr(CycField, "_instances", {})
    cyc = cyc_of("T^2+1", F3)
    for chi in all_characters(cyc):
        gauss_thakur(chi)

    def refuse(*args):
        raise AssertionError("project_vector called")
    monkeypatch.setattr(carlitz.cyclotomic, "project_vector", refuse)
    cyc.tau_dual()
    for chi in all_characters(cyc):
        b1(chi)


def test_b1_even_characters_vanish():
    # e_chi(1/lambda) = 0 and hence B = 0 for even nontrivial chi
    cyc = cyc_of("T^2+1", F3)
    for chi in all_characters(cyc):
        if chi.is_trivial() or chi.is_odd():
            continue
        assert b1(chi).is_zero(), chi.n


def test_b1_odd_nonzero():
    cyc = cyc_of("T^2+1", F3)
    for chi in all_characters(cyc):
        if chi.is_odd():
            assert not b1(chi).is_zero(), chi.n


def test_character_parities():
    cyc = cyc_of("T^2+1", F3)
    odd = [chi.n for chi in all_characters(cyc) if chi.is_odd()]
    assert odd == [1, 3, 5, 7]
    cyc2 = cyc_of("T^2+T+1", F2)
    assert all(chi.is_odd() for chi in all_characters(cyc2))


def test_ring_hom_power():
    cyc = cyc_of("T^2+1", F3)
    assert Character(cyc, 1).ring_hom_power() == 0
    assert Character(cyc, 3).ring_hom_power() == 1
    assert Character(cyc, 5).ring_hom_power() is None
    assert Character(cyc, 0).ring_hom_power() is None


def test_infty_coset_reps():
    cyc = cyc_of("T^2+1", F3)
    reps = cyc.infty_coset_reps()
    assert len(reps) == cyc.L // (cyc.q - 1)
    seen = set()
    for b in reps:
        for c in range(1, 3):
            seen.add(cyc.F.mul(c, b))
    assert seen == set(cyc.units())


def test_embed_infty_kills_psi():
    # psi_P(lambda_v) = 0 at every infinite place: the analytic lambda is
    # a genuine root
    for s, F, prec in [("T^2+T+1", F2, 14), ("T^2+1", F3, 10)]:
        cyc = cyc_of(s, F)
        emb = InftyEmbedding(cyc, prec)
        for bb in emb.reps:
            pows = emb.lambda_powers(bb)
            lamv = pows[1]
            acc = None
            cur = pows[0]
            k = 0
            for c in torsion_poly(cyc.P):
                if not c.is_zero():
                    term = cur.mul_scalar_poly(c)
                    acc = term if acc is None else acc + term
                cur = cur * lamv if k < cyc.L else cur
                k += 1
            v = acc.wval()
            assert v is None or v >= (cyc.q - 1) * (prec - 2), (s, bb, v)


def test_embed_infty_is_multiplicative():
    cyc = cyc_of("T^2+1", F3)
    x = lam(cyc) * lam(cyc) + CycElem.one(cyc, cyc.Fq)
    y = lam(cyc).mul_scalar_poly(parse_poly("T", F3))
    ex = embed_infty(x, 10)
    ey = embed_infty(y, 10)
    exy = embed_infty(x * y, 10)
    for b in ex:
        assert (ex[b] * ey[b]).agrees_with(exy[b], upto_w=14)


def test_embed_padic_ring_hom():
    cyc = cyc_of("T^2+1", F3)
    F = cyc.F
    x = lam(cyc, F).scale_coeff(F.theta) + CycElem.one(cyc, F)
    y = lam(cyc, F) * lam(cyc, F)
    ex, ey, exy = embed_padic(x, 4), embed_padic(y, 4), embed_padic(x * y, 4)
    assert (ex * ey).agrees_with(exy)


def test_embed_padic_lambda_valuation():
    # lambda is a uniformizer of the totally ramified P-adic completion
    cyc = cyc_of("T^2+1", F3)
    img = embed_padic(lam(cyc, cyc.F), 4)
    assert img.vm() == 1
    imgP = embed_padic(CycElem.one(cyc, cyc.F).mul_scalar_poly(cyc.P), 4)
    assert imgP.vm() == cyc.L


def test_context_owns_one_class_table_per_depth():
    assert cyc_of("T^2+1", F3).class_table(6) is \
        cyc_of("T^2+1", F3).class_table(6)


def test_teichmuller_lifts_hang_off_no_attribute():
    cyc = cyc_of("T+1", F3)
    l_padic(cyc, Character(cyc, 0), PadicClassSumTable(cyc.P, 4))
    embed_padic(lam(cyc, cyc.F).scale_coeff(cyc.F.theta), 4)
    assert not [a for a in vars(cyc) if a.startswith("_teich_cache")]
    # one ring per (P, N): the class-sum table works in the field's
    assert PadicClassSumTable(cyc.P, 4).ring is cyc.padic_ring(4)


def test_irreducibles_slices_the_longest_sieve(monkeypatch):
    # a shorter list is a prefix of one already sieved, so charpoly's
    # irreducibles(3) reuses euler's irreducibles(8); a longer one sieves
    monkeypatch.setattr(CycField, "_instances", {})
    sieves = []
    sieve = cyclotomic.monic_irreducibles
    monkeypatch.setattr(cyclotomic, "monic_irreducibles",
                        lambda F, d: sieves.append(d) or sieve(F, d))
    cyc = cyc_of("T^2+1", F3)
    long = cyc.irreducibles(5)
    short = cyc.irreducibles(3)
    assert short == tuple(f for f in long if f.degree <= 3)
    assert cyc.irreducibles(5) == long and cyc.irreducibles(1) == long[:3]
    assert sieves == [5]
    assert cyc.irreducibles(6)[:len(long)] == long and sieves == [5, 6]


def test_equal_primes_over_two_field_objects_share_one_cycfield(monkeypatch):
    # one prime parsed over two equal F_3 objects: one owner of its tables
    from carlitz.fields import FiniteField, residue_field
    monkeypatch.setattr(CycField, "_instances", {})
    P1, P2 = parse_poly("T^2+1", FiniteField(3)), parse_poly("T^2+1", F3)
    assert P1.field is not P2.field
    assert CycField(P1) is CycField(P2)
    assert residue_field(P1) is residue_field(P2)
