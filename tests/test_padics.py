import pytest
from hypothesis import given, settings, strategies as st

from carlitz.core import CarlitzTables, carlitz_act, padic_exp, padic_log
from carlitz.cyclotomic import CycField, all_characters, b1, lambda_power_rows
from carlitz.lvalues import l_padic
from carlitz.fields import make_field, residue_field, residue_rep
from carlitz.polynomials import Poly, parse_poly
from carlitz.special_points import special_point_padic
from enumeration import xgcd
from padic_oracle import (CycPadicRing, PadicContext, class_totals,
                          embed_poly_to_padic, l_padic_poly,
                          special_point_coords, vP_by_division)

F3 = make_field(3)
F2 = make_field(2)


def ctx3(N=5):
    return PadicContext(parse_poly("T^2+1", F3), N)


def test_padic_arithmetic():
    # A_P mod P^N is A reduced mod P^N: reduction is a ring map, and the
    # valuation of a reduced element is vP capped at N
    ctx = ctx3()
    a, b = parse_poly("T^3+2", F3), parse_poly("T+1", F3)
    ra, rb = ctx.reduce(a), ctx.reduce(b)
    assert ctx.reduce(ra * rb) == ctx.reduce(a * b)
    assert ctx.reduce(ra + rb) == ctx.reduce(a + b)
    assert ctx.vP(ra - ra, ctx.N) is None
    assert ctx.vP(ctx.reduce(a * ctx.P * ctx.P), ctx.N) == 2


UNIT_INV_PRIMES = [(2, "T+1"), (2, "T^3+T+1"), (3, "T^2+1"), (3, "T^3+2*T+1")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(UNIT_INV_PRIMES), st.integers(1, 9), st.data())
def test_unit_inv_matches_euclid(qP, prec, data):
    # the Newton lift against the inverse from xgcd, for units of degree
    # up to twice that of P^prec; a multiple of P is refused
    P = parse_poly(qP[1], make_field(qP[0]))
    ctx, Pk = PadicContext(P, prec), P ** prec
    cs = data.draw(st.lists(st.integers(0, qP[0] - 1),
                            max_size=2 * len(Pk.coeffs)))
    u = Poly(P.field, cs)
    if (u % P).is_zero():
        with pytest.raises(ArithmeticError, match="non-unit divisor"):
            ctx.unit_inv(u, prec)
        return
    assert ctx.unit_inv(u, prec) == xgcd(u, Pk)[1]


def test_teichmuller_fixed_point_and_multiplicativity():
    ctx = ctx3(4)
    F = residue_field(ctx.P)
    lifts = {c: ctx.teichmuller(c) for c in F.elements()}
    for c in F.elements():
        y = lifts[c]
        assert ctx.teichmuller(c) is y  # memoised on the context
        z = y
        for _ in range(ctx.d):
            z = ctx.reduce(z.frob_power(3))
        assert z == y  # fixed by x -> x^{q^d}
        assert (y % ctx.P) == Poly(F3, list(_digits(c, 3, 2)))
    for a in F.elements():
        for b in F.elements():
            ab = F.mul(a, b)
            assert ctx.reduce(lifts[a] * lifts[b]) == lifts[ab]


def _digits(c, q, d):
    for _ in range(d):
        yield c % q
        c //= q


def test_embed_tensor_fq_side_is_plain_reduction():
    ctx = ctx3(4)
    num, den = parse_poly("T^3+T+2", F3), parse_poly("T+2", F3)
    img = embed_poly_to_padic(num, ctx)
    assert img == ctx.reduce(num)
    lhs = embed_poly_to_padic(num * den, ctx)
    assert lhs == ctx.reduce(img * den)


def test_embed_tensor_residue_coeffs_multiplicative():
    ctx = ctx3(4)
    F = residue_field(ctx.P)
    theta = F.theta
    a = Poly(F, [theta, 1])          # T + theta
    b = Poly(F, [F.mul(theta, theta), 2])
    ia = embed_poly_to_padic(a, ctx)
    ib = embed_poly_to_padic(b, ctx)
    iab = embed_poly_to_padic(a * b, ctx)
    assert ctx.reduce(ia * ib) == iab


def test_norm_of_t_minus_teich_theta_is_P():
    # prod_j (T - teich(theta)^{q^j}) = P(T) in A_P
    ctx = ctx3(5)
    F = residue_field(ctx.P)
    y = ctx.teichmuller(F.theta)
    acc = Poly.one(F3)
    t = Poly.x(F3)
    cur = y
    for _ in range(ctx.d):
        acc = ctx.reduce(acc * (t - cur))
        cur = ctx.reduce(cur.frob_power(3))
    assert acc == ctx.reduce(ctx.P)


def simple_cyc_ring(N=4):
    # a standalone psi for testing the coordinate ring mechanics:
    # X^8 + sum of A-coefficients; the genuine Carlitz psi arrives with
    # cyclotomic.py, here any monic Eisenstein-like choice exercises the code
    ctx = ctx3(N)
    P = ctx.P
    psi = [P] + [Poly.zero(F3)] * 1 + [P.scale(2)] + [Poly.zero(F3)] * 4 + [P * P, Poly.one(F3)]
    return CycPadicRing(ctx, lambda_power_rows(psi))


def test_cyc_ring_mul_matches_power_reduction():
    ring = simple_cyc_ring()
    L = ring.L
    assert L == 8
    lam = ring.elem([Poly.zero(F3), Poly.one(F3)] + [Poly.zero(F3)] * (L - 2))
    # lambda^L computed by repeated multiplication must match the table row
    acc = lam
    for _ in range(L - 1):
        acc = acc * lam
    expect = ring.elem(list(ring.rows[0]))
    assert acc.agrees_with(expect)


def test_cyc_ring_frobq_is_cube():
    ring = simple_cyc_ring()
    L = ring.L
    x = ring.elem([parse_poly("T+1", F3), Poly.one(F3), parse_poly("T", F3)]
                  + [Poly.zero(F3)] * (L - 3))
    assert x.frobq().agrees_with(x * x * x)


def test_vm_grading():
    ring = simple_cyc_ring()
    L = ring.L
    ctx = ring.ctx
    zero = [Poly.zero(F3)] * L
    c = list(zero)
    c[3] = ctx.P * parse_poly("T+1", F3)
    x = ring.elem(c)
    assert x.vm() == L * 1 + 3
    c2 = list(zero)
    c2[0] = Poly.one(F3)
    assert ring.elem(c2).vm() == 0
    assert ring.zero().vm() is None


def test_div_scalar_poly():
    ring = simple_cyc_ring()
    L = ring.L
    ctx = ring.ctx
    c = [ctx.P * parse_poly("T^2+T+1", F3)] + [Poly.zero(F3)] * (L - 1)
    x = ring.elem(c)
    y = x.div_scalar_poly(ctx.P.scale(2))
    assert y.prec == ctx.N - 1
    assert y.coords[0] % ctx.P_pow(y.prec) == parse_poly("2*T^2+2*T+2", F3)


# -- precision soundness of division -----------------------------------------


def _poly(F, cs):
    return Poly(F, list(cs))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), max_size=5), min_size=8, max_size=8),
       st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.integers(0, 2), st.integers(3, 5))
def test_div_scalar_poly_digits_survive_higher_precision(coeffs, ucs, v, prec):
    ring = simple_cyc_ring(2 * prec)
    P = ring.ctx.P
    unit = _poly(F3, ucs)
    if (unit % P).is_zero():
        unit = unit + Poly.one(F3)
    a = unit * ring.ctx.P_pow(v)
    coords = [_poly(F3, cs) * ring.ctx.P_pow(v) for cs in coeffs]
    low = ring.elem(coords, prec).div_scalar_poly(a)
    high = ring.elem(coords, 2 * prec).div_scalar_poly(a)
    assert low.prec == prec - v
    assert low.coords == high.truncate(low.prec).coords
    m = ring.ctx.P_pow(high.prec)
    assert all(((c * unit - _poly(F3, cs)) % m).is_zero()
               for c, cs in zip(high.coords, coeffs))


# -- precision soundness of A_P[lambda] and of the Teichmuller lifts ----------

DESK = [(2, "T+1"), (2, "T^2+T+1"), (2, "T^3+T+1"), (2, "T^3+T^2+1"),
        (3, "T+1"), (3, "T^2+1")]


def _desk_cyc(qP):
    return CycField(parse_poly(qP[1], make_field(qP[0])))


def _draw_elem(data, ring, prec):
    Fq = ring.ctx.field
    digits = st.lists(st.integers(0, Fq.order - 1),
                      max_size=prec * ring.ctx.d)
    return ring.elem([Poly(Fq, data.draw(digits)) for _ in range(ring.L)],
                     prec)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DESK), st.integers(1, 4), st.data())
def test_mul_and_frobq_precision_sound(qP, p, data):
    # the same elements known mod P^p and mod P^2p: the low results must
    # hold every digit they claim, and claim the p digits of their input
    cyc = _desk_cyc(qP)
    ring = CycPadicRing(PadicContext(cyc.P, 2 * p), cyc.rows)
    x, y = _draw_elem(data, ring, 2 * p), _draw_elem(data, ring, 2 * p)
    xl, yl = x.truncate(p), y.truncate(p)
    for lo, hi in ((xl * yl, x * y), (xl * y, x * y), (xl.frobq(), x.frobq())):
        assert hi.prec == 2 * p and lo.coords == hi.truncate(lo.prec).coords
        assert lo.prec == p, qP


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(DESK), st.integers(1, 6), st.data())
def test_teichmuller_precision_sound(qP, N, data):
    # the lift mod P^2N is certified: a root of x^{q^d} = x over c, which
    # is unique; the lift mod P^N must agree with it on every digit
    cyc = _desk_cyc(qP)
    c = data.draw(st.integers(0, cyc.F.order - 1))
    low, high = PadicContext(cyc.P, N), PadicContext(cyc.P, 2 * N)
    h = high.teichmuller(c)
    z = h
    for _ in range(cyc.d):
        z = high.reduce(z.frob_power(cyc.q))
    assert z == h and (h - residue_rep(cyc.P, c)) % cyc.P == Poly.zero(cyc.Fq)
    assert low.teichmuller(c) == low.reduce(h), (qP, N, c)


# -- the uniformizer model O_{K,P} = F[[mu]] against the oracle ---------------

MODEL_PRIMES = [(2, "T^2+T+1"), (2, "T^3+T+1"), (3, "T^2+1"), (3, "T^3+2*T+1")]


def _coords(data, cyc, prec):
    digits = st.lists(st.integers(0, cyc.q - 1), max_size=prec * cyc.d)
    return [Poly(cyc.Fq, data.draw(digits)) for _ in range(cyc.L)]


def _in_m2(cyc, coords):
    # v_m >= 2: the first two coordinates need a factor P
    return [c * cyc.P if i < 2 else c for i, c in enumerate(coords)]


def _scalar(data, cyc):
    return Poly(cyc.Fq, data.draw(st.lists(st.integers(0, cyc.q - 1),
                                           min_size=1, max_size=3 * cyc.d)))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(MODEL_PRIMES), st.integers(2, 3), st.data())
def test_model_matches_the_oracle(qP, N, data):
    # the model's results are the oracle's converted through MuRing.elem,
    # which is a ring hom; vm and prec agree too
    cyc = _desk_cyc(qP)
    ring = cyc.padic_ring(N)
    orc = CycPadicRing(PadicContext(cyc.P, N), cyc.rows)

    def same(o, m):
        assert o.prec == m.prec and o.vm() == m.vm(), qP
        assert ring.elem(o.coords, o.prec).digits == m.digits, qP

    cx, cy = _coords(data, cyc, N), _coords(data, cyc, N)
    x, y = orc.elem(cx), orc.elem(cy)
    X, Y = ring.elem(cx), ring.elem(cy)
    a = _scalar(data, cyc)
    same(x, X)
    same(x * y, X * Y)
    same(x + y, X + Y)
    same(-x, -X)
    same(x.frobq(), X.frobq())
    same(x.mul_scalar_poly(a), X.mul_scalar_poly(a))
    i = data.draw(st.integers(1, 3))
    tab = CarlitzTables(cyc.Fq)
    for den, v in ((tab.D(i), tab.vP_D(i, cyc.d)), (tab.L(i), tab.vP_L(i, cyc.d))):
        if v < N:
            Pv = cyc.P ** v
            same(x.mul_scalar_poly(Pv).div_scalar_poly(den, v),
                 X.mul_scalar_poly(Pv).div_scalar_poly(den, v))
    cz = _in_m2(cyc, _coords(data, cyc, N))
    z, Z = orc.elem(cz), ring.elem(cz)
    if (Z.vm() or 2) >= 2:
        same(padic_exp(z), padic_exp(Z))
        same(padic_log(z), padic_log(Z))
    same(carlitz_act(cyc.P, x), carlitz_act(cyc.P, X))


@pytest.mark.parametrize("qP", MODEL_PRIMES, ids=lambda qP: "%d-%s" % qP)
def test_sigma_b_multiplies_mu_by_b(qP):
    # sigma_b(lambda) = phi_b(lambda) is lambda(b mu): digit k of lambda
    # times b^k, from the Carlitz action in the model and from the exact
    # A-coordinates of sigma_b(lambda)
    cyc = _desk_cyc(qP)
    F, ring = cyc.F, cyc.padic_ring(3)
    lam = ring.elem([Poly.zero(cyc.Fq), Poly.one(cyc.Fq)]
                    + [Poly.zero(cyc.Fq)] * (cyc.L - 2))
    assert lam.vm() == 1
    for b in cyc.units():
        want = [F.mul(F.pow(b, k), a) for k, a in enumerate(lam.digits)]
        assert carlitz_act(cyc.unit_rep_poly(b), lam).digits == want, b
        assert ring.elem(cyc.sigma_lambda(b)).digits == want, b


@pytest.mark.parametrize("qP", MODEL_PRIMES + [(3, "T+1")],
                         ids=lambda qP: "%d-%s" % qP)
def test_model_uniformizer_and_torsion(qP):
    # P = -mu^L, and phi_P(lambda) = 0 to every digit
    cyc = _desk_cyc(qP)
    ring = cyc.padic_ring(4)
    zero = [Poly.zero(cyc.Fq)] * cyc.L
    P = ring.elem([cyc.P] + zero[1:])
    assert P.digits == [0] * cyc.L + [cyc.F.neg(1)] + [0] * (3 * cyc.L - 1)
    lam = ring.elem(zero[:1] + [Poly.one(cyc.Fq)] + zero[2:])
    acc, pw = ring.elem(zero), lam
    for c in cyc.phi_coeffs:  # phi_P(lambda) = lambda psi_P(lambda)
        acc = acc + pw.mul_scalar_poly(c)
        pw = pw.frobq()
    assert acc.vm() is None


@pytest.mark.parametrize("qP", DESK + [(3, "T^2+T+2"), (3, "T^3+2*T+1")],
                         ids=lambda qP: "%d-%s" % qP)
def test_vP_by_root_multiplicity_matches_division(qP):
    # v_P as the oracle's multiplicity of theta and as the model's first
    # u-digit, against division by P after the Teichmuller embedding:
    # B_1 of every odd chi (num and den), l_padic of every chi read back,
    # and (T - theta)^k times a fixed polynomial over F, k up to past
    # the cap
    cyc, N = _desk_cyc(qP), 4
    table = cyc.padic_table(N)
    ring, ctx, F = table.ring, PadicContext(cyc.P, N), cyc.F
    polys = [ring.to_poly(l_padic(cyc, chi, table))
             for chi in all_characters(cyc)]
    for chi in all_characters(cyc):
        if chi.is_odd():
            polys += [b1(chi).num, b1(chi).den]
    root = Poly(F, [F.neg(F.theta), 1])
    for k in range(N + 2):
        polys.append(root ** k * Poly(F, [1, F.theta, 0, 1]))
    for f in polys:
        want = vP_by_division(embed_poly_to_padic(f, ctx), ctx.P, N)
        assert ctx.vP(f, N) == want, (qP, f)
        assert ring.expand(f).valuation() == want, (qP, f)


@pytest.mark.parametrize("qP,N", [((2, "T^3+T+1"), 4), ((3, "T^2+1"), 6),
                                  ((3, "T^3+2*T+1"), 6), ((5, "T^2+2"), 4),
                                  ((3, "T+1"), 6)],
                         ids=lambda x: "%d-%s" % x if isinstance(x, tuple)
                         else "N%d" % x)
def test_one_model_matches_the_poly_oracle(qP, N):
    # the class totals, l_padic and its v_P, v_P of B_1 and the special
    # points in A_P = F[[u]], against the Poly-mod-P^N path: Teichmuller
    # lifts by Frobenius iteration, Newton unit inverses, v_P by
    # synthetic division and the point summed over sigma(lambda)^m
    cyc = _desk_cyc(qP)
    table, ring = cyc.padic_table(N), cyc.padic_ring(N)
    ctx = PadicContext(cyc.P, N)
    totals = class_totals(ctx, table.n_max)
    for sigma, s in totals.items():
        assert ring.to_poly(table.class_total(sigma)) == s, (qP, sigma)
    for chi in all_characters(cyc):
        lv, want = l_padic(cyc, chi, table), l_padic_poly(chi, ctx, totals)
        assert ring.to_poly(lv) == want, (qP, chi.n)
        assert lv.valuation() == ctx.vP(want, N), (qP, chi.n)
        if chi.is_odd():
            for f in (b1(chi).num, b1(chi).den):
                assert ring.expand(f).valuation() == ctx.vP(f, N), (qP, chi.n)
    for m in range(1, 6):
        want = ring.elem(special_point_coords(cyc, m, ctx, totals), N)
        assert special_point_padic(cyc, m, N).digits == want.digits, (qP, m)


# -- precision soundness of the model ------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.sampled_from(MODEL_PRIMES + [(3, "T+1")]), st.integers(1, 3),
       st.data())
def test_model_precision_sound(qP, N, data):
    # every operation on the same inputs in the rings mod P^N and mod
    # P^2N: the low result claims the stated precision and holds every
    # digit of the high one that it claims
    cyc = _desk_cyc(qP)
    lo, hi = cyc.padic_ring(N), cyc.padic_ring(2 * N)
    cx, cy = _coords(data, cyc, 2 * N), _coords(data, cyc, 2 * N)
    cz = _in_m2(cyc, _coords(data, cyc, 2 * N))
    a = _scalar(data, cyc)
    i = data.draw(st.integers(1, 3))
    tab = CarlitzTables(cyc.Fq)
    den, v = tab.D(i), tab.vP_D(i, cyc.d)
    ops = {
        "elem": lambda r: r.elem(cx),
        "mul": lambda r: r.elem(cx) * r.elem(cy),
        "add": lambda r: r.elem(cx) + r.elem(cy),
        "frobq": lambda r: r.elem(cx).frobq(),
        "scalar": lambda r: r.elem(cx).mul_scalar_poly(a),
        "act": lambda r: carlitz_act(cyc.P, r.elem(cx)),
    }
    if v < N:
        ops["div"] = lambda r: r.elem(cx).mul_scalar_poly(
            cyc.P ** v).div_scalar_poly(den, v)
    if (lo.elem(cz).vm() or 2) >= 2:
        ops["exp"] = lambda r: padic_exp(r.elem(cz))
        ops["log"] = lambda r: padic_log(r.elem(cz))
    for name, op in ops.items():
        low, high = op(lo), op(hi)
        want = N - v if name == "div" else N
        assert low.prec == want and high.prec == want + N, (name, qP)
        assert low.digits == high.truncate(low.prec).digits, (name, qP)
