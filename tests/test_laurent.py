
import pytest
from hypothesis import given, settings, strategies as st

from carlitz.core import exp_eval
from carlitz.fields import FiniteField, make_field, residue_field
from carlitz.laurent import LaurentSeries, RamifiedElem, pi_bar
from carlitz.polynomials import Poly, RatFunc, mul_coeffs, parse_poly
from recognize_oracle import comps

F2 = make_field(2)
F3 = make_field(3)


def expand(r, prec):
    return LaurentSeries.from_ratfunc(r, prec)


def test_from_poly():
    p = parse_poly("T^2+2", F3)
    s = LaurentSeries.from_poly(p, 10)
    assert s.val == -2
    assert s.coeff(-2) == 1 and s.coeff(-1) == 0 and s.coeff(0) == 2
    assert s.coeff(5) == 0


def test_geometric_inverse():
    # 1/(T-1) = T^-1 + T^-2 + ...
    s = expand(RatFunc(Poly.one(F2), parse_poly("T+1", F2)), 8)
    assert s.val == 1
    assert all(s.coeff(n) == 1 for n in range(1, 8))


def test_mul_precision_tracking():
    a = LaurentSeries(F3, -1, [1, 2], 4)   # T + 2 + O(T^-4)
    b = LaurentSeries(F3, 2, [1], 5)       # T^-2 + O(T^-5)
    c = a * b
    # error from b enters shifted by val(a) = -1: prec = min(4+2, 5-1) = 4
    assert c.prec == 4
    assert c.coeff(1) == 1 and c.coeff(2) == 2


def test_repr_names_no_place():
    # one repr for series at infinity (in 1/T or 1/Y) and at P (in u):
    # x^n is the coefficient of index n, whatever the uniformizer
    assert repr(LaurentSeries(F3, -1, [1, 2], 4)) == "1*x^-1+2*x^0 + O(x^4)"
    assert repr(LaurentSeries(F3, 3, [], 3)) == "O(x^3)"
    assert "T" not in repr(LaurentSeries(F3, 1, [1], 2))


def _laurent_loop(F, a, b, width):
    """The first `width` coefficients of a*b by the double loop that
    LaurentSeries.__mul__ ran before it called mul_coeffs: the oracle."""
    out = [0] * width
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x == 0 or i >= width:
            continue
        for j in range(min(len(b), width - i)):
            if b[j]:
                out[i + j] = add(out[i + j], mul(x, b[j]))
    return out


def _oracle_mul(x, y):
    """LaurentSeries.__mul__ through _laurent_loop."""
    prec = min(x.prec + y.val, y.prec + x.val)
    lo = x.val + y.val
    if not x.coeffs or not y.coeffs or prec <= lo:
        return LaurentSeries.zero(x.field, prec)
    return LaurentSeries(x.field, lo,
                         _laurent_loop(x.field, x.coeffs, y.coeffs, prec - lo),
                         prec)


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


F5 = make_field(5)
# small length pairs over every field, (1, 1) and (1, 12) through the
# scaling branch of a one-term factor; over a prime field also the pairs on
# both sides of its one- to two-byte slot boundary, as in
# test_mul_every_coefficient_p_minus_1: a slot holds min(la, lb)*(p-1)^2
ORACLE_CASES = [pytest.param(F, la, lb, id="%r-%d-%d" % (F, la, lb))
                for F in (F2, F3, F5, make_field(3, 2), make_field(3, 3),
                          make_field(2, 3), make_field(2, 8))
                for la, lb in [(1, 1), (1, 12), (12, 12), (25, 40)]]
ORACLE_CASES += [pytest.param(F, la, lb, id="%r-%d-%d" % (F, la, lb))
                 for F, pairs in [(F2, [(255, 256), (256, 256)]),
                                  (F3, [(63, 64), (64, 64)]),
                                  (F5, [(15, 16), (16, 16)])]
                 for la, lb in pairs]


@pytest.mark.parametrize("F,la,lb", ORACLE_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mul_coeffs_matches_the_laurent_loop(F, la, lb, data):
    # widths 0, below the shorter length, between the two lengths and at
    # or above the full length; each factor is random or all top digits,
    # which puts the exact slot bound in the middle slot
    def factor(n):
        return data.draw(st.just([F.order - 1] * n)
                         | st.lists(st.integers(0, F.order - 1),
                                    min_size=n, max_size=n))
    a, b = factor(la), factor(lb)
    lo, hi, full = min(la, lb), max(la, lb), la + lb - 1
    widths = [0, data.draw(st.integers(lo, hi)),
              data.draw(st.integers(full, full + 3))]
    if lo > 1:
        widths.append(data.draw(st.integers(1, lo - 1)))
    for w in widths:
        want = _strip(_laurent_loop(F, a, b, w))
        for x, y in ((a, b), (b, a)):
            got = mul_coeffs(F, x, y, w)
            assert len(got) <= w and _strip(got) == want, w
        # a Laurent product of width w; the second factor is cut to it
        va, vb = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        s = LaurentSeries(F, va, a, va + la + data.draw(st.integers(0, 3)))
        t = LaurentSeries(F, vb, b, vb + w)
        assert s * t == _oracle_mul(s, t) and t * s == _oracle_mul(t, s), w
    assert _strip(mul_coeffs(F, a, b)) == _strip(_laurent_loop(F, a, b, full))


@pytest.mark.parametrize("F", [F2, F3, F5], ids=repr)
def test_prime_field_laurent_mul_makes_no_field_call(monkeypatch, F):
    # a Kronecker product, not a loop of field adds and products
    s = LaurentSeries(F, -2, [(3 * i + 1) % F.p for i in range(20)], 18)
    t = LaurentSeries(F, 1, [(i * i + 2) % F.p for i in range(15)], 16)
    calls = []
    for name in ("add", "mul"):
        op = getattr(FiniteField, name)
        monkeypatch.setattr(FiniteField, name, lambda self, a, b, op=op:
                            calls.append(1) or op(self, a, b))
    st_, ts, ss = s * t, t * s, s * s
    monkeypatch.undo()
    assert calls == []
    assert (st_, ts, ss) == (_oracle_mul(s, t), _oracle_mul(t, s),
                             _oracle_mul(s, s))


def test_leading_zeros_past_precision_give_zero():
    # stripping the zeros moves val past prec: nothing is known, and the
    # window of a product with it is empty
    s = LaurentSeries(F3, 0, [0, 0, 0, 1, 1, 1, 1], 1)
    assert (s.val, s.coeffs, s.prec) == (1, [], 1)
    assert (LaurentSeries(F3, 0, [1, 2], 5) * s).is_zero()


PREC_FIELDS = [F3, make_field(3, 2), make_field(2, 3)]


@st.composite
def _series_at_two_precisions(draw, F, unit=False, least_val=-3):
    """One series known to 2w coefficients past its first, and the same
    series cut to w: the second is the first recomputed at twice the
    precision."""
    v = draw(st.integers(least_val, 3))
    w = draw(st.integers(1, 8))
    first = draw(st.integers(1 if unit else 0, F.order - 1))
    rest = draw(st.lists(st.integers(0, F.order - 1),
                         min_size=2 * w - 1, max_size=2 * w - 1))
    hi = LaurentSeries(F, v, [first] + rest, v + 2 * w)
    return hi.truncate(v + w), hi


def _sound(lo, hi):
    # the low result claims no digit the high one contradicts
    assert lo.prec <= hi.prec, (lo, hi)
    assert lo.agrees_with(hi), (lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PREC_FIELDS), st.data())
def test_mul_inv_frobq_precision_sound(F, data):
    a_lo, a_hi = data.draw(_series_at_two_precisions(F))
    b_lo, b_hi = data.draw(_series_at_two_precisions(F))
    _sound(a_lo * b_lo, a_hi * b_hi)
    u_lo, u_hi = data.draw(_series_at_two_precisions(F, unit=True))
    _sound(u_lo.inv(), u_hi.inv())
    for q in {F.p, F.order}:
        _sound(a_lo.frobq(q), a_hi.frobq(q))


RAMIFIED = [(2, F2), (3, F3), (3, make_field(3, 2)), (2, make_field(2, 3))]


@st.composite
def _ramified_at_two_precisions(draw, q, F, least_w=-6):
    """An element of k_inf(Y), its one series in 1/Y drawn as by
    _series_at_two_precisions: (the element cut short, the element)."""
    lo, hi = draw(_series_at_two_precisions(F, least_val=least_w))
    return RamifiedElem(q, lo), RamifiedElem(q, hi)


def _sound_w(lo, hi):
    # the low result claims no w-digit the high one contradicts
    assert lo.wprec() <= hi.wprec(), (lo, hi)
    assert lo.agrees_with(hi), (lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RAMIFIED), st.data())
def test_ramified_mul_frobq_precision_sound(qF, data):
    q, F = qF
    a_lo, a_hi = data.draw(_ramified_at_two_precisions(q, F))
    b_lo, b_hi = data.draw(_ramified_at_two_precisions(q, F))
    _sound_w(a_lo * b_lo, a_hi * b_hi)
    _sound_w(a_lo.frobq(), a_hi.frobq())


def _lprec(wprec, j, q):
    """Laurent precision of component j for w-precision >= wprec."""
    return -((-wprec - j) // (q - 1))


def _shift(s, k):
    """s * T^k."""
    return LaurentSeries(s.field, s.val - k, s.coeffs, s.prec - k)


def _comps_wprec(q, comps):
    return min((q - 1) * c.prec - j for j, c in enumerate(comps))


def _comps_wval_or_prec(q, comps):
    ws = [(q - 1) * c.val - j for j, c in enumerate(comps) if c.coeffs]
    return min(ws) if ws else _comps_wprec(q, comps)


def _comps_mul(q, a, b):
    """The product on q - 1 components in 1/T, Y^{q-1} = -T wrapping
    the high ones back: RamifiedElem's product before it held one series
    in 1/Y, the oracle."""
    F = a[0].field
    wp = min(_comps_wprec(q, a) + _comps_wval_or_prec(q, b),
             _comps_wprec(q, b) + _comps_wval_or_prec(q, a))
    out = [LaurentSeries.zero(F, _lprec(wp, j, q)) for j in range(q - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k, prod = i + j, x * y
            if k >= q - 1:
                k, prod = k - (q - 1), _shift(-prod, 1)
            out[k] = out[k] + prod
    return out


def _comps_frobq(q, a):
    """The q-power map on components: Y^{jq} reduced by Y^{q-1} = -T."""
    F = a[0].field
    wp = _comps_wprec(q, a) * q
    out = [LaurentSeries.zero(F, _lprec(wp, j, q)) for j in range(q - 1)]
    for j, c in enumerate(a):
        if c.coeffs:
            steps, rem = divmod(j * q, q - 1)
            cq = c.frobq(q)
            if steps:
                cq = _shift(cq.scale(F.pow(F.neg(1), steps)), steps)
            out[rem] = out[rem] + cq
    return out


def _same_as_comps(x, parts):
    q = x.q
    assert x.wprec() == _comps_wprec(q, parts), (x, parts)
    ws = [(q - 1) * c.val - j for j, c in enumerate(parts) if c.coeffs]
    assert x.wval() == (min(ws) if ws else None), (x, parts)
    for j, (c, want) in enumerate(zip(comps(x), parts)):
        assert c.prec == _lprec(x.wprec(), j, q), (j, x)
        assert c.agrees_with(want), (j, c, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RAMIFIED), st.data())
def test_ramified_matches_component_oracle(qF, data):
    # *, frobq, mul_laurent and mul_scalar_poly on one series in 1/Y
    # against the component arithmetic, read through comps
    q, F = qF
    _, a = data.draw(_ramified_at_two_precisions(q, F))
    _, b = data.draw(_ramified_at_two_precisions(q, F))
    _, s = data.draw(_series_at_two_precisions(F))
    _same_as_comps(a, comps(a))
    # the trace down to k_inf is q - 1 = -1 times the Y^0 part
    assert a.trace() == -comps(a)[0]
    _same_as_comps(a * b, _comps_mul(q, comps(a), comps(b)))
    _same_as_comps(a.frobq(), _comps_frobq(q, comps(a)))
    _same_as_comps(a.mul_laurent(s), [c * s for c in comps(a)])
    # an exact polynomial costs only its degree
    p = Poly(F, data.draw(st.lists(st.integers(0, F.order - 1), max_size=4)))
    if not p.is_zero():
        _same_as_comps(a.mul_scalar_poly(p), [
            c * LaurentSeries.from_poly(p, c.prec - c.val + 1) for c in comps(a)])
    _same_as_comps(RamifiedElem.from_laurent(s, q),
                   [s] + [LaurentSeries.zero(F, s.prec + 1)] * (q - 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RAMIFIED), st.integers(1, 12), st.data())
def test_exp_eval_precision_sound(qF, wtarget, data):
    # exp_C at w-target t against 2t, from z cut short and from the full
    # z; w(z) >= 2 - q keeps the series short
    q, F = qF
    z_lo, z_hi = data.draw(_ramified_at_two_precisions(q, F, least_w=2 - q))
    hi = exp_eval(z_hi, 2 * wtarget)
    _sound_w(exp_eval(z_lo, wtarget), hi)
    _sound_w(exp_eval(z_hi, wtarget), hi)


@pytest.mark.parametrize("q,F", RAMIFIED, ids=["F2", "F3", "F9", "F8"])
def test_pi_bar_precision_sound(q, F):
    for prec in range(1, 13):
        lo = pi_bar(q, F, prec)
        assert lo.wprec() >= (q - 1) * prec, prec  # the window it claims
        _sound_w(lo, pi_bar(q, F, 2 * prec))


def test_frobq_char3():
    s = expand(RatFunc(parse_poly("T+2", F3), parse_poly("T^2+1", F3)), 6)
    cube = s * s * s
    fr = s.frobq(3)
    assert fr.agrees_with(cube)


def test_ramified_y_relation():
    for q, F in [(2, F2), (3, F3)]:
        y = RamifiedElem.y(q, F, 20)
        pw = y
        for _ in range(q - 2):
            pw = pw * y
        # Y^{q-1} = -T
        minus_t = RamifiedElem.from_laurent(
            LaurentSeries(F, -1, [F.neg(1)], 20), q)
        assert pw.agrees_with(minus_t)
        assert y.wval() == -1


def test_ramified_mul_assoc():
    q, F = 3, F3
    y = RamifiedElem.y(q, F, 18)
    a = y.mul_laurent(expand(RatFunc(parse_poly("T+1", F3), parse_poly("T^2+2", F3)), 9))
    b = y * y
    c = RamifiedElem.from_laurent(expand(RatFunc.from_poly(parse_poly("T", F3)), 9), q)
    assert ((a * b) * c).agrees_with(a * (b * c))


def test_ramified_frobq():
    q, F = 3, F3
    y = RamifiedElem.y(q, F, 24)
    s = y.mul_laurent(expand(RatFunc(Poly.one(F3), parse_poly("T+1", F3)), 12))
    cube = s * s * s
    assert s.frobq().agrees_with(cube)


def test_pi_bar_q2_leading_terms():
    # pi_bar = T^2 * prod_n (1 - T^{1-2^n})^{-1}; coefficient of T^{2-n} is
    # the parity of the number of multisets of parts from {1,3,7,15,...}
    # summing to n
    F = F2
    pb = pi_bar(2, F, 12)
    s = comps(pb)[0]
    assert s.val == -2

    parts = [1, 3, 7, 15]
    import itertools
    counts = [0] * 13
    for combo in itertools.product(range(14), repeat=4):
        tot = sum(c * p for c, p in zip(combo, parts))
        if tot <= 12:
            counts[tot] += 1
    for n in range(0, 10):
        assert s.coeff(n - 2) == counts[n] % 2, n


def test_pi_bar_valuation_q3():
    pb = pi_bar(3, F3, 10)
    assert pb.wval() == -3  # w = -q
    # lives purely in the Y^1 component: pi_bar = (-T) * Y * (unit in k_inf)
    assert comps(pb)[0].is_zero()
    assert not comps(pb)[1].is_zero()


def test_pi_bar_coefficients_in_residue_field_embed():
    # same series over an extension coefficient field
    F = residue_field(parse_poly("T^2+1", F3))
    pb = pi_bar(3, F, 8)
    pb3 = pi_bar(3, F3, 8)
    for j in range(2):
        a, b = comps(pb)[j], comps(pb3)[j]
        assert a.val == b.val or (a.is_zero() and b.is_zero())
        if not a.is_zero():
            assert list(a.coeffs) == list(b.coeffs)
