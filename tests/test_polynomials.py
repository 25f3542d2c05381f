import pytest
from hypothesis import given, settings, strategies as st

from carlitz import fields
from carlitz.fields import make_field, residue_field
from carlitz.polynomials import (MINUS_INF, Poly, RatFunc, format_poly,
                                 monic_irreducibles, monic_polys, parse_poly,
                                 rat_reduce_mod_P)
from enumeration import xgcd

F2 = make_field(2)
F3 = make_field(3)


def rand_poly(field, max_deg):
    return st.lists(st.integers(0, field.order - 1), max_size=max_deg + 1).map(
        lambda cs: Poly(field, cs))


def test_zero_degree_sentinel():
    z = Poly.zero(F3)
    assert z.degree is MINUS_INF
    assert z.degree < 0
    assert z.degree < -10 ** 9
    assert (z * Poly.x(F3)).degree is MINUS_INF


def test_parse_and_format_roundtrip():
    for s in ["T^2+T+1", "T^3+T+1", "2*T^3+T^2+2", "T+1", "1", "T^9+2*T^6+2*T^4+2*T^3+2*T^2+1"]:
        F = F2 if "2" not in s else F3
        p = parse_poly(s, F)
        assert parse_poly(format_poly(p), F) == p
    # every a*T + b over F_9 (where X has order 4, not 8), F_8, the
    # residue field of T^2+1 over F_3 (where theta has order 4) and a
    # tower: A/PA for the first irreducible quadratic P over F_9, whose
    # base-field digits print as int codes up to 8
    F9 = make_field(3, 2)
    tower = residue_field(next(p for p in monic_polys(F9, 2)
                               if p.is_irreducible()))
    for F in (F9, make_field(2, 3), residue_field(parse_poly("T^2+1", F3)),
              tower):
        for a in F.elements():
            for b in F.elements():
                p = Poly(F, [b, a])
                assert parse_poly(format_poly(p), F) == p, (F, a, b)


def test_parse_reads_codes_of_a_field_without_tables():
    # A/PA for a degree-41 P over F_2 keeps no log table, so format_poly
    # prints a coefficient outside F_2 as its int code
    F = residue_field(parse_poly("T^41+T^3+1", F2))
    assert F._log is None
    p = Poly(F, [F.theta, 1])
    assert format_poly(p) == "T+#2"
    for c in (F.theta, F.order - 1, 5 ** 17, F.mul(F.theta, 3 ** 20)):
        for q in (Poly(F, [c, 1]), Poly(F, [1, 0, c]), Poly(F, [c, c])):
            assert parse_poly(format_poly(q), F) == q, format_poly(q)
    with pytest.raises(ValueError, match="cannot parse coefficient"):
        parse_poly("T+#%d" % F.order, F)


def _least_primitive(F):
    return next(c for c in F.units() if F.mult_order(c) == F.order - 1)


def test_parse_extension_coeffs():
    # g is the least primitive element, as format_poly prints it; over F_9
    # that is not the class X of the modulus variable
    F9 = make_field(3, 2)
    p = parse_poly("g^2*T+g", F9)
    g = _least_primitive(F9)
    assert g != F9.gen()
    assert p.coeffs == (g, F9.pow(g, 2))
    assert format_poly(p) == "g^2*T+g^1"


def test_parse_g_needs_tables(monkeypatch):
    monkeypatch.setattr(fields, "TABLE_LIMIT", 4)
    F = fields.FiniteField.extension(F3, (1, 0, 1))
    assert F._exp is None
    with pytest.raises(ValueError, match="no power table names g"):
        parse_poly("g*T+1", F)


def test_parse_minus():
    p = parse_poly("T^2-1", F3)
    assert p.coeffs == (2, 0, 1)


def test_divmod_exact():
    a = parse_poly("T^5+2*T^2+1", F3)
    b = parse_poly("T^2+1", F3)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


DIVMOD_FIELDS = [F2, F3, make_field(5), make_field(3, 2)]


@settings(max_examples=160)
@given(st.sampled_from(DIVMOD_FIELDS).flatmap(
    lambda F: st.tuples(rand_poly(F, 20), rand_poly(F, 12))))
def test_divmod_property(pair):
    # the oracle is ring arithmetic, not the reduction loop, over prime
    # fields (plain-int loop) and F_9; a numerator of lower degree than
    # the divisor comes back whole
    a, b = pair
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    if a.degree < b.degree:
        assert q.is_zero() and r == a


@settings(max_examples=60)
@given(rand_poly(F3, 5), rand_poly(F3, 5), rand_poly(F3, 5))
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40)
@given(rand_poly(F2, 6), rand_poly(F2, 6))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    if not a.is_zero():
        assert (a % g).is_zero()


def shifted_scaled_sum(a, b):
    slow = Poly.zero(a.field)
    for i, c in enumerate(a.coeffs):
        slow = slow + b.scale(c).shift(i)
    return slow


def test_long_prime_field_product_agrees():
    # a 59 x 54 product over F_3, one Kronecker product in one-byte slots
    a = Poly(F3, [i % 3 for i in range(1, 60)])
    b = Poly(F3, [(2 * i + 1) % 3 for i in range(1, 55)])
    assert a * b == shifted_scaled_sum(a, b)


@pytest.mark.parametrize("p,la,lb", [
    (1000000007, 25, 25),  # min(la, lb)*(p-1)^2 > 2^64: wide slots
    (1000000007, 10, 40),  # in [2^63, 2^64): 8-byte unsigned slots
    (4294967311, 25, 25),  # wide slots
    (65537, 25, 25),       # 8-byte slots
    (2, 255, 256),         # bounds 255, 63*4, 15*16: the most one byte fits
    (3, 63, 64),
    (5, 15, 16),
])
def test_mul_every_coefficient_p_minus_1(p, la, lb):
    # every coefficient p-1 puts the exact slot bound in the middle slot;
    # b * b packs its one operand once
    F = make_field(p)
    a, b = Poly(F, [p - 1] * la), Poly(F, [p - 1] * lb)
    assert a * b == shifted_scaled_sum(a, b)
    assert b * b == shifted_scaled_sum(b, b)


# each length pair over every field, then pairs on both sides of the one-
# to two-byte slot boundary of each prime field: a slot holds
# min(la, lb)*(p-1)^2, which reaches 256 at min(la, lb) = 256 over F_2, 64
# over F_3 and 16 over F_5
MUL_CASES = [pytest.param(la, lb, F, id="%d-%d-%s" % (la, lb, name))
             for la, lb in [(1, 12), (12, 12), (24, 24), (25, 24), (40, 33)]
             for name, F in zip(["F2", "F3", "F5", "F9"], DIVMOD_FIELDS)]
MUL_CASES += [pytest.param(la, lb, F, id="%d-%d-F%d" % (la, lb, F.p))
              for F, pairs in [(F2, [(255, 256), (256, 256)]),
                               (F3, [(63, 64), (64, 64)]),
                               (make_field(5), [(15, 16), (16, 16)])]
              for la, lb in pairs]


@pytest.mark.parametrize("la,lb,F", MUL_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mul_matches_shifted_scaled_sum(F, la, lb, data):
    # a Kronecker product over a prime field, the schoolbook loop with
    # field calls over F_9; each against a sum of shifted scalings
    coeffs = st.integers(0, F.order - 1)
    a, b = (Poly(F, data.draw(st.lists(coeffs, min_size=n, max_size=n)))
            for n in (la, lb))
    assert a * b == shifted_scaled_sum(a, b)


def test_frob_power():
    a = parse_poly("T^2+2*T+1", F3)
    assert a.frob_power(3) == a * a * a


def test_monic_irreducibles_count():
    # #monic irreducibles over F_2: deg1:2, deg2:1, deg3:2, deg4:3
    by_deg = {}
    for f in monic_irreducibles(F2, 4):
        by_deg.setdefault(int(f.degree), []).append(f)
    assert [len(by_deg[d]) for d in (1, 2, 3, 4)] == [2, 1, 2, 3]


def _is_irreducible_by_trial_division(f):
    """Slow oracle: no monic of degree <= deg/2 divides f."""
    deg = f.degree
    if deg is MINUS_INF or deg == 0:
        return False
    return not any((f % den).is_zero() for d in range(1, int(deg) // 2 + 1)
                   for den in monic_polys(f.field, d))


def _irreducibles_by_trial_division(Fq, max_deg):
    """Slow oracle: every monic filtered by trial division."""
    return [f for d in range(1, max_deg + 1) for f in monic_polys(Fq, d)
            if _is_irreducible_by_trial_division(f)]


@pytest.mark.parametrize("p,e,max_deg", [(2, 1, 8), (3, 1, 5), (5, 1, 3),
                                         (3, 2, 3)])
def test_is_irreducible_matches_trial_division(p, e, max_deg):
    # Rabin's test on every polynomial of degree <= max_deg, monic and
    # (odd p) scaled by 2, against trial division
    F = make_field(p, e)
    for d in range(max_deg + 1):
        for f in monic_polys(F, d):
            want = _is_irreducible_by_trial_division(f)
            assert f.is_irreducible() == want, f
            assert f.scale(p - 1).is_irreducible() == want, f
    assert not Poly.zero(F).is_irreducible()


def test_is_irreducible_at_degree_41():
    # trial division would try 2^20 divisors; Rabin's test takes 41
    # Frobenius steps
    P = parse_poly("T^41+T^3+1", F2)
    assert P.is_irreducible()
    assert not (P * parse_poly("T^2+T+1", F2)).is_irreducible()
    assert not parse_poly("T^41+T^3", F2).is_irreducible()


@pytest.mark.parametrize("q,max_deg", [(2, 10), (3, 6), (5, 4), (17, 3),
                                       (37, 2)])
def test_monic_irreducibles_sieve_matches_trial_division(q, max_deg):
    # (17, 3) needs two-byte slots and (37, 2) has no base-37 digits, so
    # both multiply Polys
    Fq = make_field(q)
    want = _irreducibles_by_trial_division(Fq, max_deg)
    assert list(monic_irreducibles(Fq, max_deg)) == want


@pytest.mark.parametrize("p,e,max_deg", [(2, 2, 4), (3, 2, 3)])
def test_monic_irreducibles_sieve_over_extension_fields(p, e, max_deg):
    # no Kronecker packing over F_4 and F_9: the sieve keeps Poly products
    Fq = make_field(p, e)
    want = _irreducibles_by_trial_division(Fq, max_deg)
    assert list(monic_irreducibles(Fq, max_deg)) == want


def test_monic_irreducibles_makes_no_poly_product(monkeypatch):
    # over F_3 to degree 8 every product is one of packed ints
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    assert sum(1 for _ in monic_irreducibles(F3, 8)) == 1318
    assert calls == []


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("q,max_deg", [(2, 10), (3, 6), (5, 4)])
def test_monic_irreducibles_necklace_counts(q, max_deg):
    # (1/n) sum_{e | n} mu(e) q^{n/e} monic irreducibles of degree n
    counts = [0] * (max_deg + 1)
    for f in monic_irreducibles(make_field(q), max_deg):
        counts[int(f.degree)] += 1
    for n in range(1, max_deg + 1):
        total = sum(_mobius(e) * q ** (n // e)
                    for e in range(1, n + 1) if n % e == 0)
        assert counts[n] * n == total, (q, n)


def test_is_irreducible_degree9():
    p = parse_poly("T^9+2*T^6+2*T^4+2*T^3+2*T^2+1", F3)
    assert p.is_irreducible()
    assert not (p * parse_poly("T+1", F3)).is_irreducible()


def test_ratfunc_arithmetic():
    a = RatFunc(parse_poly("T", F3), parse_poly("T^2+1", F3))
    b = RatFunc(parse_poly("1", F3), parse_poly("T", F3))
    s = a + b
    assert s.num == parse_poly("2*T^2+1", F3)
    assert s.den == parse_poly("T^3+T", F3)
    assert (a * a.inv()) == RatFunc.one(F3)
    assert (a - a).is_zero()


def test_ratfunc_reduction():
    n = parse_poly("T^2+2*T+1", F3)  # (T+1)^2
    d = parse_poly("T^2+1", F3) * parse_poly("T+1", F3)
    r = RatFunc(n, d)
    assert r.num == parse_poly("T+1", F3)
    assert r.den == parse_poly("T^2+1", F3)


def test_rat_reduce_mod_P_hom():
    P = parse_poly("T^2+1", F3)
    F = residue_field(P)
    a = RatFunc(parse_poly("T^3+2", F3), parse_poly("T+1", F3))
    b = RatFunc(parse_poly("T", F3), parse_poly("T^2+T+2", F3))
    ra, rb = rat_reduce_mod_P(a, F), rat_reduce_mod_P(b, F)
    assert rat_reduce_mod_P(a * b, F) == F.mul(ra, rb)
    assert rat_reduce_mod_P(a + b, F) == F.add(ra, rb)


def test_rat_reduce_mod_P_clears_common_P_powers():
    P = parse_poly("T^2+1", F3)
    F = residue_field(P)
    a = RatFunc(parse_poly("T", F3), parse_poly("T+1", F3))
    blown = RatFunc(a.num * P, a.den * P, reduce=False)
    assert rat_reduce_mod_P(blown, F) == rat_reduce_mod_P(a, F)


def test_rat_reduce_mod_P_pole_raises():
    P = parse_poly("T^2+1", F3)
    F = residue_field(P)
    r = RatFunc(Poly.one(F3), P)
    with pytest.raises(ZeroDivisionError):
        rat_reduce_mod_P(r, F)


def test_monic_polys_enumeration():
    ms = list(monic_polys(F2, 3))
    assert len(ms) == 8
    assert all(m.is_monic() and m.degree == 3 for m in ms)


def test_equal_polys_hash_equal():
    # fields compare by structure, so the hash must not read their identity
    from carlitz.fields import FiniteField
    a, b = Poly(FiniteField(3), (1, 0, 1)), Poly(F3, (1, 0, 1))
    assert a.field is not b.field
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
