import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import core, fields
from carlitz.core import (CarlitzTables, bc_stream_mod_P,
                          carlitz_act, carlitz_poly, d_inverses_mod_P,
                          exp_eval, padic_exp, padic_log)
from carlitz.cyclotomic import lambda_power_rows
from carlitz.fields import make_field, residue_field
from carlitz.laurent import LaurentSeries, pi_bar
from carlitz.polynomials import Poly, RatFunc, parse_poly, rat_reduce_mod_P
from bc_oracle import bc_stream_taps
from padic_oracle import CycPadicRing, PadicContext

F2 = make_field(2)
F3 = make_field(3)


# -- tables --------------------------------------------------------------------

def test_D_product_formula():
    # oracle: D_i = prod_{j<i} (T^{q^i} - T^{q^j}) directly
    for F, q in [(F2, 2), (F3, 3)]:
        tab = CarlitzTables(F)
        for i in range(4):
            prod = Poly.one(F)
            for j in range(i):
                big = Poly.monomial(F, 1, q ** i)
                small = Poly.monomial(F, 1, q ** j)
                prod = prod * (big - small)
            assert tab.D(i) == prod
            assert tab.D(i).degree == i * q ** i or i == 0


def test_L_product_formula():
    tab = CarlitzTables(F3)
    for i in range(4):
        prod = Poly.one(F3)
        for j in range(1, i + 1):
            prod = prod * (Poly.monomial(F3, 1, 3 ** j) - Poly.x(F3))
        assert tab.L(i) == prod


def test_vP_D_matches_true_valuation():
    P = parse_poly("T^2+1", F3)
    ctx = PadicContext(P, 12)
    tab = CarlitzTables(F3)
    for i in range(6):
        want = tab.vP_D(i, 2)
        got = ctx.vP(tab.D(i), 40)
        assert (got or 0) == want


def test_vP_L_matches_true_valuation():
    P = parse_poly("T^2+1", F3)
    ctx = PadicContext(P, 12)
    tab = CarlitzTables(F3)
    for i in range(7):
        assert (ctx.vP(tab.L(i), 40) or 0) == tab.vP_L(i, 2) == i // 2


def test_e_coeffs_give_the_product():
    # oracle: e_m(x) = prod over b of degree < m of (x - b) vanishes on
    # every such b and takes T^m to D_m
    for F in (F2, F3):
        tab = CarlitzTables(F)
        q = F.order
        for m in range(4):
            c = tab.e_coeffs(m)
            assert len(c) == m + 1 and c[m].is_one()

            def e(x):
                return sum((ci * x ** (q ** i) for i, ci in enumerate(c)),
                           Poly.zero(F))
            for code in range(q ** m):
                b = Poly(F, [code // q ** k % q for k in range(m)])
                assert e(b).is_zero(), (q, m, b)
            assert e(Poly.monomial(F, 1, m)) == tab.D(m), (q, m)


def test_d_inverse_prefixes_are_the_laurent_inverse():
    # 1/D_i from the table, asked narrow, then wide, then narrow again:
    # w digits whose product with D_i is 1 to w digits, equal to a fresh
    # Laurent inverse of D_i
    for F in (F2, F3):
        tab = CarlitzTables(F)
        for i in (1, 2, 3):
            D = tab.D(i)
            deg = int(D.degree)
            for w in (5, 60, 12):
                digits = tab.d_inverse(i, w)
                assert len(digits) == w
                got = LaurentSeries(F, deg, digits, deg + w)
                assert got * LaurentSeries.from_poly(D, w) == \
                    LaurentSeries.const(F, 1, w), (F.order, i, w)
                assert got == LaurentSeries.from_poly(D, w - deg).inv()


def test_factorial():
    tab = CarlitzTables(F3)
    assert tab.factorial(0).is_one()
    assert tab.factorial(2).is_one()          # D_0^2
    assert tab.factorial(3) == tab.D(1)
    assert tab.factorial(5) == tab.D(1) * tab.D(0) ** 2
    assert tab.factorial(12) == tab.D(1) ** 4 if False else True
    assert tab.factorial(12) == tab.D(2) * tab.D(1)  # 12 = 110_3


# -- twisted polynomials ---------------------------------------------------------

def test_carlitz_poly_T():
    phi = carlitz_poly(Poly.x(F3))
    assert list(phi) == [Poly.x(F3), Poly.one(F3)]
    assert carlitz_poly(Poly.zero(F3)) == ()


def test_carlitz_poly_T_squared():
    phi = carlitz_poly(parse_poly("T^2", F3))
    # phi_{T^2} = T^2 + (T^q + T) tau + tau^2
    assert phi[0] == parse_poly("T^2", F3)
    assert phi[1] == parse_poly("T^3+T", F3)
    assert phi[2] == Poly.one(F3)


def test_carlitz_poly_additive_and_monic():
    a = parse_poly("T^2+2*T", F3)
    b = parse_poly("2*T^2+1", F3)
    pa, pb, pab = carlitz_poly(a), carlitz_poly(b), carlitz_poly(a + b)
    width = max(len(pa), len(pb))
    for i in range(width):
        ca = pa[i] if i < len(pa) else Poly.zero(F3)
        cb = pb[i] if i < len(pb) else Poly.zero(F3)
        cab = pab[i] if i < len(pab) else Poly.zero(F3)
        assert cab == ca + cb
    m = carlitz_poly(parse_poly("T^3+T+1", F3))
    assert m[-1].is_one()
    assert m[0] == parse_poly("T^3+T+1", F3)


def test_carlitz_poly_eisenstein_at_P():
    for Fq, s in [(F2, "T^2+T+1"), (F3, "T^2+1"), (F2, "T^3+T+1")]:
        P = parse_poly(s, Fq)
        phi = carlitz_poly(P)
        d = int(P.degree)
        assert len(phi) == d + 1
        assert phi[0] == P
        assert phi[d].is_one()
        for i in range(1, d):
            assert (phi[i] % P).is_zero()


# -- infinity-adic exponential ---------------------------------------------------

def test_exp_of_period_vanishes():
    # THE sanity check: exp_C(pi_bar) = 0
    for q, F in [(2, F2), (3, F3)]:
        z = pi_bar(q, F, 20)
        e = exp_eval(z, 20 * (q - 1))
        v = e.wval()
        assert v is None or v >= 18 * (q - 1), (q, v)


def test_exp_functional_equation():
    # exp(T z) = phi_T(exp z) = T exp(z) + exp(z)^q
    q, F = 3, F3
    z = pi_bar(q, F, 14).mul_scalar_poly(Poly.one(F3)).mul_laurent(
        # shrink into fast-convergence range: divide by T^2
        __import__("carlitz.laurent", fromlist=["LaurentSeries"]).LaurentSeries(
            F, 2, [1], 30))
    lhs = exp_eval(z.mul_scalar_poly(Poly.x(F3)), 26)
    e = exp_eval(z, 30)
    rhs = e.mul_scalar_poly(Poly.x(F3)) + e.frobq()
    assert lhs.agrees_with(rhs, upto_w=24)


def test_exp_carlitz_act_consistency():
    q, F = 2, F2
    from carlitz.laurent import LaurentSeries
    z = pi_bar(q, F, 24).mul_laurent(LaurentSeries(F, 3, [1], 40))
    a = parse_poly("T^2+T+1", F2)
    lhs = exp_eval(z.mul_scalar_poly(a), 20)
    rhs = carlitz_act(a, exp_eval(z, 30))
    assert lhs.agrees_with(rhs, upto_w=18)


# -- P-adic exp/log ---------------------------------------------------------------

def carlitz_cyc_ring(Pstr, Fq, N):
    P = parse_poly(Pstr, Fq)
    ctx = PadicContext(P, N)
    phi = carlitz_poly(P)
    q = Fq.order
    L = q ** int(P.degree) - 1
    psi = [Poly.zero(Fq)] * (L + 1)
    for i, c in enumerate(phi):
        psi[q ** i - 1] = c
    return CycPadicRing(ctx, lambda_power_rows(psi))


def rand_m2_elem(ring, rng):
    # v_m >= 2: coordinate 0 divisible by P, coordinate 1 divisible by P,
    # others free
    ctx = ring.ctx
    Fq = ctx.field
    coords = []
    for i in range(ring.L):
        deg = rng.randrange(0, ctx.d * ctx.N - 1)
        c = Poly(Fq, [rng.randrange(Fq.order) for _ in range(deg + 1)])
        if i < 2:
            c = c * ctx.P
        coords.append(c)
    return ring.elem(coords)


def test_padic_exp_log_roundtrip():
    rng = random.Random(7)
    for Pstr, Fq, N in [("T^2+1", F3, 4), ("T^2+T+1", F2, 5)]:
        ring = carlitz_cyc_ring(Pstr, Fq, N)
        for _ in range(12):
            z = rand_m2_elem(ring, rng)
            if (z.vm() or 99) < 2:
                continue
            e = padic_exp(z)
            assert (e.vm() or 10 ** 9) == (z.vm() or 10 ** 9)  # exp preserves v_m
            back = padic_log(e)
            assert back.agrees_with(z.truncate(back.prec))
            fwd = padic_exp(padic_log(z))
            assert fwd.agrees_with(z.truncate(fwd.prec))


def test_padic_exp_additive():
    rng = random.Random(11)
    ring = carlitz_cyc_ring("T^2+1", F3, 4)
    a, b = rand_m2_elem(ring, rng), rand_m2_elem(ring, rng)
    assert padic_exp(a + b).agrees_with(padic_exp(a) + padic_exp(b))


def test_padic_exp_functional_equation():
    ring = carlitz_cyc_ring("T^2+1", F3, 4)
    rng = random.Random(3)
    z = rand_m2_elem(ring, rng)
    t = Poly.x(F3)
    lhs = padic_exp(z.mul_scalar_poly(t))
    e = padic_exp(z)
    rhs = e.mul_scalar_poly(t) + e.frobq()
    assert lhs.agrees_with(rhs)


def test_padic_exp_rejects_shallow():
    ring = carlitz_cyc_ring("T^2+1", F3, 4)
    lam = ring.elem([Poly.zero(F3), Poly.one(F3)] + [Poly.zero(F3)] * (ring.L - 2))
    with pytest.raises(ValueError):
        padic_exp(lam)  # v_m = 1, not in m^2


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([("T^2+1", F3), ("T^2+T+1", F2), ("T+1", F3)]),
       st.integers(2, 3), st.data())
def test_padic_exp_log_precision_sound(pair, N, data):
    # exp and log of one element known mod P^N and mod P^2N: the low
    # result must hold every digit it claims
    Pstr, Fq = pair
    ring = carlitz_cyc_ring(Pstr, Fq, 2 * N)
    ctx = ring.ctx
    digits = st.lists(st.integers(0, Fq.order - 1), max_size=2 * N * ctx.d)
    coords = [Poly(Fq, data.draw(digits)) for _ in range(ring.L)]
    # v_m >= 2: the first two coordinates need a factor P
    coords[0] = coords[0] * ctx.P
    coords[1] = coords[1] * ctx.P
    high = ring.elem(coords, 2 * N)
    low = high.truncate(N)
    for f in (padic_exp, padic_log):
        lo, hi = f(low), f(high)
        assert lo.prec == N and hi.prec == 2 * N
        assert lo.coords == hi.truncate(N).coords, f.__name__


# -- Bernoulli-Carlitz ------------------------------------------------------------

def _bc_prime_series_oracle(field, n_max):
    """Independent oracle: invert exp_C(X)/X as a power series with
    RatFunc coefficients (X/exp_C X = sum BC'_n X^n)."""
    q = field.order
    tab = CarlitzTables(field)
    # e[k] = coefficient of X^k in exp_C(X)/X
    e = [RatFunc.zero(field) for _ in range(n_max + 1)]
    i = 0
    while q ** i - 1 <= n_max:
        e[q ** i - 1] = RatFunc(Poly.one(field), tab.D(i))
        i += 1
    inv = [RatFunc.zero(field) for _ in range(n_max + 1)]
    inv[0] = RatFunc.one(field)
    for k in range(1, n_max + 1):
        acc = RatFunc.zero(field)
        for j in range(1, k + 1):
            if not e[j].is_zero() and not inv[k - j].is_zero():
                acc = acc + e[j] * inv[k - j]
        inv[k] = -acc
    return inv


def test_bc_prime_matches_series_oracle():
    for F in (F2, F3):
        oracle = _bc_prime_series_oracle(F, 15)
        for n in range(16):
            assert CarlitzTables(F).bc_prime(n) == oracle[n], (F, n)


def test_bc_prime_work_limit():
    tab = CarlitzTables(F2)
    with pytest.raises(ValueError, match="beyond work limit 512"):
        tab.bc_prime(513)


def test_bc_zero_pattern():
    for n in range(1, 30):
        v = CarlitzTables(F3).bc_prime(n)
        if n % 2 != 0:
            assert v.is_zero(), n
        # nonvanishing of the even ones in this window
        if n % 2 == 0 and n < 27:
            assert not v.is_zero(), n


def test_bc_stream_matches_exact_reduction():
    P = parse_poly("T^2+1", F3)
    F = residue_field(P)
    stream = bc_stream_mod_P(P, 7)
    for n in range(8):
        want = rat_reduce_mod_P(CarlitzTables(F3).bc_prime(n), F)
        assert stream[n] == want, n


def test_bc_stream_degree3():
    P = parse_poly("T^3+T+1", F2)
    F = residue_field(P)
    stream = bc_stream_mod_P(P, 6)
    for n in range(7):
        want = rat_reduce_mod_P(CarlitzTables(F2).bc_prime(n), F)
        assert stream[n] == want, n


def _bc_stream_oracle(P, n_max):
    """BC'_n mod P by the recurrence with F.add and F.mul: the oracle
    for the log-domain products of bc_stream_mod_P."""
    F = residue_field(P)
    q, d = P.field.order, int(P.degree)
    dinv = d_inverses_mod_P(P)
    out = [1]
    for N in range(2, n_max + 2):
        acc = 0
        for i in range(1, d):
            if q ** i > N:
                break
            prev = out[N - q ** i]
            if prev:
                acc = F.add(acc, F.mul(prev, dinv[i]))
        out.append(F.neg(acc))
    return out


STREAM_PRIMES = [(3, "T^2+1"), (2, "T^3+T+1"), (3, "T^3+2*T+1"),
                 (3, "T^9+2*T^6+2*T^4+2*T^3+2*T^2+1"), (2, "T^14+T^10+T^6+T+1")]


@pytest.mark.parametrize("q,Pstr", STREAM_PRIMES)
def test_bc_stream_matches_field_call_oracle(q, Pstr):
    P = parse_poly(Pstr, make_field(q))
    n_max = q ** int(P.degree) - 2  # the full range
    assert bc_stream_mod_P(P, n_max) == _bc_stream_oracle(P, n_max)


@pytest.mark.parametrize("q,Pstr", STREAM_PRIMES)
def test_bc_stream_small_ranges(q, Pstr):
    # every n_max from 2 up past each tap boundary q^i - 1 gives the
    # oracle's prefix, with the entries off the multiples of q - 1 zero
    P = parse_poly(Pstr, make_field(q))
    d = int(P.degree)
    cuts = {2, q - 1, q} | {q ** i - 1 + e for i in range(1, d)
                            for e in (-1, 0, 1)}
    cuts = sorted(n for n in cuts if 2 <= n <= q ** d - 2)
    want = _bc_stream_oracle(P, cuts[-1])
    for n_max in cuts:
        got = bc_stream_mod_P(P, n_max)
        assert got == want[:n_max + 1], n_max
        assert not any(got[n] for n in range(n_max + 1) if n % (q - 1)), n_max


@pytest.mark.parametrize("q,Pstr", STREAM_PRIMES)
def test_bc_stream_makes_no_field_calls(monkeypatch, q, Pstr):
    # with tables the stream's only field calls are d_inverses_mod_P's,
    # whatever n_max is
    P = parse_poly(Pstr, make_field(q))
    residue_field(P)  # built (and cached) before counting
    calls = []
    for name in ("add", "sub", "neg", "mul", "inv", "pow"):
        meth = getattr(fields.FiniteField, name)
        monkeypatch.setattr(fields.FiniteField, name,
                            lambda *a, meth=meth: calls.append(1) or meth(*a))
    d_inverses_mod_P(P)
    dinv_calls = len(calls)
    for n_max in (2, q ** int(P.degree) - 2):
        calls.clear()
        bc_stream_mod_P(P, n_max)
        assert len(calls) <= dinv_calls, n_max


def test_bc_stream_inverts_only_window_taps(monkeypatch):
    # over T^41+T^3+1 (no tables: 2^41 elements) a window n <= 10 reads
    # the taps s_i = 2^i - 1 <= 10, i = 1, 2, 3: one inverse each, none of
    # the other 37 D_i
    P = parse_poly("T^41+T^3+1", F2)
    F = residue_field(P)  # built (and cached) before counting
    inverted = []
    inv = fields.FiniteField.inv
    monkeypatch.setattr(fields.FiniteField, "inv", lambda E, x: (
        E is F and inverted.append(x)) or inv(E, x))
    stream = bc_stream_mod_P(P, 10)
    assert len(inverted) == 3
    monkeypatch.undo()
    tab = CarlitzTables(F2)
    assert stream == [rat_reduce_mod_P(tab.bc_prime(n), F) for n in range(11)]


def test_bc_stream_without_tables(monkeypatch):
    # a residue field above TABLE_LIMIT multiplies with F.mul, in
    # characteristic 2 and in odd characteristic.  The oracle's cached
    # fields are built first, with tables: one built under the patched
    # limit would stay in residue_field's cache for every later test
    primes = ((parse_poly("T^3+T+1", F2), 6),
              (parse_poly("T^3+2*T+1", F3), 25))
    for P, _ in primes:
        residue_field(P)
    monkeypatch.setattr(fields, "TABLE_LIMIT", 4)
    for P, n_max in primes:
        F = residue_field.__wrapped__(P)
        assert F._log is None
        monkeypatch.setattr(core, "residue_field", lambda _, F=F: F)
        assert bc_stream_mod_P(P, n_max) == _bc_stream_oracle(P, n_max)


def test_bc_stream_range_guard():
    P = parse_poly("T^2+1", F3)
    with pytest.raises(ValueError):
        bc_stream_mod_P(P, 8)  # q^d - 2 = 7 is the ceiling


# the stream fills every q-th step by the Frobenius; bc_stream_taps runs
# the tap sum there too
FROBENIUS_PRIMES = STREAM_PRIMES + [
    (2, "T^5+T^2+1"), (2, "T^8+T^4+T^3+T^2+1"),
    (5, "T^2+2"), (5, "T^3+T+1"), (5, "T^4+2"), (5, "T^5+4*T+1"),
    (7, "T^2+1"), (7, "T^3+2"), (7, "T^4+T+1")]


@pytest.mark.parametrize("q,Pstr", FROBENIUS_PRIMES)
def test_bc_stream_frobenius_steps_match_tap_recurrence(q, Pstr):
    # the full window, and windows cut at the first Frobenius step k = q,
    # at each tap s_i, one step either side of it and between it and the
    # next: the last step is a Frobenius step at some cuts and a tap sum
    # at others
    P = parse_poly(Pstr, make_field(q))
    d = int(P.degree)
    top = q ** d - 2
    assert bc_stream_mod_P(P, top) == bc_stream_taps(P, top)
    taps = [(q ** i - 1) // (q - 1) for i in range(1, d + 1)]
    ks = {q} | {k for s, nxt in zip(taps, taps[1:])
                for k in (s - 1, s, s + 1, (s + nxt) // 2)}
    cuts = sorted({n for k in ks for n in ((q - 1) * k, (q - 1) * k + q - 2)
                   if 2 <= n <= top})
    for n_max in cuts:
        assert bc_stream_mod_P(P, n_max) == bc_stream_taps(P, n_max), n_max


def test_bc_stream_frobenius_steps_without_tables():
    # T^41+T^3+1 over F_2 has no tables: the Frobenius steps square with
    # F.pow, at every window up to n = 10
    P = parse_poly("T^41+T^3+1", F2)
    assert residue_field(P)._log is None
    for n_max in range(2, 11):
        assert bc_stream_mod_P(P, n_max) == bc_stream_taps(P, n_max), n_max


@pytest.mark.parametrize("q,n_top", [(2, 24), (3, 18), (5, 10)])
def test_bc_prime_frobenius_identity(q, n_top):
    # BC'_{qn} = (BC'_n)^q exactly over F_q(T), the identity behind the
    # stream's Frobenius steps (both sides vanish unless (q - 1) | n)
    tab = CarlitzTables(make_field(q))
    for n in range(n_top + 1):
        v = tab.bc_prime(n)
        assert tab.bc_prime(q * n) == RatFunc(v.num ** q, v.den ** q), n
