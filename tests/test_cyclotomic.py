import pytest

from carlitz.cyclotomic import (Character, CycElem, CycField, all_characters,
                                b1, embed_infty, embed_padic, gauss_thakur,
                                idempotent_project, lambda_inverse_coords,
                                normal_basis_eta, sigma_act, InftyEmbedding)
from carlitz.fields import make_field
from carlitz.lvalues import PadicClassSumTable, l_padic
from carlitz.polynomials import Poly, RatFunc, parse_poly

F2 = make_field(2)
F3 = make_field(3)

PAIRS = [("T^2+T+1", F2), ("T^2+1", F3), ("T^3+T+1", F2)]


def cyc_of(s, F):
    return CycField(parse_poly(s, F))


def lam(cyc, field=None):
    F = field or cyc.Fq
    coords = [RatFunc.zero(F)] * cyc.L
    coords[1] = RatFunc.one(F)
    return CycElem(cyc, F, coords)


def test_psi_eisenstein_and_monic():
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        assert cyc.psi[0] == cyc.P
        assert cyc.psi[-1].is_one()
        assert len(cyc.psi) == cyc.L + 1


def test_psi_annihilates_lambda():
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        x = lam(cyc)
        acc = CycElem.zero(cyc, cyc.Fq)
        pw = CycElem.one(cyc, cyc.Fq)
        for c in cyc.psi:
            if not c.is_zero():
                acc = acc + pw.mul_scalar_poly(c)
            pw = pw * x
        assert acc.is_zero()


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
    for s, F in PAIRS:
        cyc = cyc_of(s, F)
        inv = CycElem(cyc, cyc.Fq, lambda_inverse_coords(cyc, cyc.Fq))
        assert inv * lam(cyc) == CycElem.one(cyc, cyc.Fq)


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
            assert c.is_poly()


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
        emb = InftyEmbedding(cyc, cyc.Fq, prec)
        for bb in emb.reps:
            pows = emb.lambda_powers(bb)
            lamv = pows[1]
            acc = None
            cur = pows[0]
            k = 0
            for c in cyc.psi:
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
