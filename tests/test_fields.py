import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import fields
from carlitz.fields import FiniteField, make_field, residue_field, residue_rep
from carlitz.polynomials import Poly, RatFunc, monic_polys, parse_poly
from galois_oracle import OBJECT_OPS, frobenius_orbits, row_reduce


def test_make_field_prime():
    F = make_field(5)
    assert F.order == 5
    assert F.add(3, 4) == 2
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3


# lexicographically least moduli, pinned from the trial-division search
# that make_field used before it called Poly.is_irreducible
MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
}


@pytest.mark.parametrize("p,e", sorted(MODULI))
def test_make_field_moduli_unchanged(p, e):
    assert make_field(p, e).modulus == MODULI[(p, e)]


def test_make_field_f9_lex_least_modulus():
    # oracle: enumerate monic quadratics over F_3 in code order, first
    # irreducible is x^2 + 1 (x^2 and x^2 + x + variants with roots come first)
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))

    first = next((c0, c1) for c0 in range(3) for c1 in range(3)
                 if not has_root(c0, c1)
                 # code order is c0 + 3*c1
                 )
    # code order enumeration
    best = None
    for code in range(9):
        c0, c1 = code % 3, code // 3
        if not has_root(c0, c1):
            best = (c0, c1)
            break
    F9 = make_field(3, 2)
    assert F9.modulus == (best[0], best[1], 1)
    assert F9.modulus == (1, 0, 1)  # x^2 + 1
    assert F9.order == 9


def test_field_axioms_f9():
    F = make_field(3, 2)
    els = list(F.elements())
    for a, b in itertools.product(els, els):
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, b) == F.add(b, a)
    for a in els:
        for b, c in itertools.product(els[:5], els[:5]):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in F.units():
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.order - 1) == 1


def _assert_add_matches_digits(F):
    """add, sub and neg against the digit-by-digit sum, on every pair."""
    els = list(F.elements())
    neg = {a: next(x for x in els if F._add_digits(a, x) == 0) for a in els}
    for a in els:
        assert F.neg(a) == neg[a], (F, a)
        assert F.add(a, F.neg(a)) == 0, (F, a)
        for b in els:
            assert F.add(a, b) == F._add_digits(a, b), (F, a, b)
            assert F.sub(a, b) == F._add_digits(a, neg[b]), (F, a, b)


def _quadratic_over_f9():
    F9 = make_field(3, 2)
    return next(P for P in monic_polys(F9, 2) if P.is_irreducible())


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_table_add_matches_digits(p, e):
    F = make_field(p, e)
    assert F._log is not None
    # odd p adds by Zech logarithms, p = 2 by XOR: neither recurses
    assert (F._zech is None) == (p == 2)
    _assert_add_matches_digits(F)


def test_tower_add_matches_digits():
    # F_81 over F_9: the digits are F_9 elements, themselves added by Zech
    F = residue_field(_quadratic_over_f9())
    assert (F.order, F.base.order) == (81, 9)
    _assert_add_matches_digits(F)


def _quadratic_over_f4():
    F4 = make_field(2, 2)
    return next(P for P in monic_polys(F4, 2) if P.is_irreducible())


@pytest.mark.parametrize("tabled", [
    pytest.param(make_field(3, 3), id="3-3"),
    pytest.param(make_field(2, 4), id="2-4"),
    # towers: the digits' Poly product runs mul_coeffs's schoolbook branch
    pytest.param(residue_field(_quadratic_over_f9()), id="81-over-9"),
    pytest.param(residue_field(_quadratic_over_f4()), id="16-over-4"),
])
def test_untabled_extension_agrees(monkeypatch, tabled):
    # fields above TABLE_LIMIT keep the digit-wise add (odd p) and
    # multiply the digit vectors as Polys over the base, mod the modulus
    monkeypatch.setattr(fields, "TABLE_LIMIT", tabled.order - 1)
    F = FiniteField.extension(tabled.base, tabled.modulus)
    assert F._log is None and F._zech is None
    _assert_add_matches_digits(F)
    for a in F.elements():
        for b in F.elements():
            assert F.add(a, b) == tabled.add(a, b)
            assert F.mul(a, b) == tabled.mul(a, b)
        if a:
            assert F.inv(a) == tabled.inv(a)


SCAN_PRIMES = [(3, "T^9+2*T^6+2*T^4+2*T^3+2*T^2+1"), (2, "T^14+T^10+T^6+T+1")]


def _tabled_fields():
    yield from (make_field(p, e) for p, e in sorted(MODULI))
    # towers: the fold rows go through an extension's add and mul
    yield residue_field(_quadratic_over_f9())
    yield residue_field(_quadratic_over_f4())
    # degree 1: g is a base-field constant, its top digit is not 1
    yield residue_field(parse_poly("T+1", make_field(5)))
    yield residue_field(parse_poly("T+1", make_field(2, 2)))
    yield from (residue_field(parse_poly(P, make_field(q))) for q, P in SCAN_PRIMES)
    # the int-code walk: both half tables of a fold nontrivial (m = 5, 4),
    # g's top digit 2 (g = 2X, then 2X + 1: a lower digit's c*x too)
    yield make_field(5, 4)
    for P, g in (("T^5+2*T+2", "2X"), ("T^5+2*T^4+2*T^3+2*T^2+1", "2X+1")):
        yield pytest.param(residue_field(parse_poly(P, make_field(3))),
                           id="GF(3^5)-g=" + g)


def _mul_order(F, c):
    x, k = c, 1
    while x != 1:
        x, k = F._mul_poly(x, c), k + 1
    return k


@pytest.mark.parametrize("F", list(_tabled_fields()), ids=repr)
def test_tables_match_schoolbook_walk(F):
    # oracle: the walk x -> x*g by _mul_poly (the digit vectors' Poly
    # product mod the modulus), Zech logarithms by the digit-wise add
    n, g = F.order, F._exp[1]
    exp, log, x = [], [None] * n, 1
    for k in range(n - 1):
        exp.append(x)
        log[x] = k
        x = F._mul_poly(x, g)
    assert x == 1 and None not in log[1:]  # g is primitive
    assert all(_mul_order(F, c) < n - 1 for c in range(1, g))  # and least
    assert F._exp == exp and F._log == log
    zech = None if F.p == 2 else [log[F._add_digits(x, 1)] for x in exp]
    assert F._zech == zech


@pytest.mark.parametrize("F", [
    make_field(2, 3), make_field(3, 3), make_field(2, 8),
    *(residue_field(parse_poly(P, make_field(q))) for q, P in SCAN_PRIMES)],
    ids=repr)
def test_x_walk_matches_horner_walk(F):
    # both walks of the powers of X (the Horner walk with g = X forced),
    # whether or not X is primitive (it is not in F_{2^8})
    X = F.base.order
    assert F._x_powers() == list(F._powers(X))
    if F._exp[1] == X:
        assert F._exp == F._x_powers()


def test_scan_tables_skip_the_horner_walk(monkeypatch):
    # g = X at both scan primes: the tables come from _x_powers alone
    def refuse(self, g):
        raise AssertionError("_powers called")
    monkeypatch.setattr(FiniteField, "_powers", refuse)
    for q, P in SCAN_PRIMES:
        F = residue_field.__wrapped__(parse_poly(P, make_field(q)))
        assert F._exp[1] == F.theta


@pytest.mark.parametrize("q,P,order_of_x", [(3, "T^2+1", 4),
                                             (2, "T^4+T^3+T^2+T+1", 5)])
def test_tables_when_x_is_not_primitive(monkeypatch, q, P, order_of_x):
    # X is not primitive: the tables are the Horner walk of the least g
    Pp = parse_poly(P, make_field(q))
    F = residue_field(Pp)
    assert F.mult_order(F.theta) == order_of_x
    g = F._exp[1]
    assert g != F.theta
    assert F._exp == list(F._powers(g))

    def refuse(self):
        raise AssertionError("_x_powers called")
    monkeypatch.setattr(FiniteField, "_x_powers", refuse)
    fresh = residue_field.__wrapped__(Pp)
    assert (fresh._exp, fresh._log, fresh._zech) == (F._exp, F._log, F._zech)


def test_generator_t_plus_one():
    # T is not primitive in F_9 nor in F_{2^8}: Horner over g = T + 1
    assert make_field(3, 2)._exp[1] == 1 + 3
    assert make_field(2, 8)._exp[1] == 1 + 2


def test_scan_table_build_skips_schoolbook(monkeypatch):
    # the generator search alone makes a few hundred _mul_poly products;
    # the table walk makes none (a walk by _mul_poly would make ~16.4k)
    calls = []
    mul_poly = FiniteField._mul_poly
    monkeypatch.setattr(FiniteField, "_mul_poly",
                        lambda self, a, b: calls.append(1) or mul_poly(self, a, b))
    P = parse_poly(SCAN_PRIMES[1][1], make_field(2))
    F = residue_field.__wrapped__(P)  # a fresh build, not the cached field
    assert F.order == 2 ** 14 and F._log is not None
    assert len(calls) < 500


def test_scan_table_build_adds_by_lookup(monkeypatch):
    # the int-code walk adds through tables built with b*m base-field adds
    # per fold digit t, and Zech logarithms need b more; the digit-list
    # walk and the per-element Zech add made about 138k calls
    calls = []
    add = FiniteField.add
    monkeypatch.setattr(FiniteField, "add",
                        lambda self, a, b: calls.append(1) or add(self, a, b))
    P = parse_poly(SCAN_PRIMES[0][1], make_field(3))
    F = residue_field.__wrapped__(P)  # a fresh build, not the cached field
    assert F.order == 3 ** 9 and F._zech is not None
    assert len(calls) < 1000


def test_residue_field_structure():
    Fq = make_field(3)
    P = parse_poly("T^2+1", Fq)
    F = residue_field(P)
    assert F.order == 9
    # theta satisfies P(theta) = 0
    assert P.evaluate(F.theta, target=F) == 0
    # F_q embeds as ints < q
    for a in range(3):
        for b in range(3):
            assert F.add(a, b) == (a + b) % 3
            assert F.mul(a, b) == (a * b) % 3


def test_residue_field_rejects_reducible():
    Fq = make_field(3)
    with pytest.raises(ValueError):
        residue_field(parse_poly("T^2+2", Fq))  # T^2 - 1 = (T-1)(T+1)


def test_residue_field_degree_one():
    Fq = make_field(3)
    F = residue_field(parse_poly("T+1", Fq))
    assert F.order == 3
    assert F.theta == F.neg(1)  # T = -1


def test_residue_rep_evaluates_back():
    # every residue's representative has degree < d and reduces to it
    for q, Pstr in [(2, "T^3+T+1"), (3, "T^2+1"), (3, "T+1")]:
        P = parse_poly(Pstr, make_field(q))
        F = residue_field(P)
        for x in F.elements():
            rep = residue_rep(P, x)
            assert rep.is_zero() or rep.degree < P.degree, (Pstr, x)
            assert rep.evaluate(F.theta, target=F) == x, (Pstr, x)


def test_frobenius_orbits_q3_d2():
    # oracle by direct orbit computation on Z/8 under n -> 3n
    orbits = frobenius_orbits(3, 2)
    assert set(frozenset(o) for o in orbits) == {
        frozenset({0}), frozenset({4}), frozenset({1, 3}),
        frozenset({2, 6}), frozenset({5, 7})}
    # sorted by least element
    assert [o[0] for o in orbits] == [0, 1, 2, 4, 5]


def test_frobenius_orbits_partition():
    for q, d in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        orbs = frobenius_orbits(q, d)
        flat = [n for o in orbs for n in o]
        assert sorted(flat) == list(range(q ** d - 1))
        for o in orbs:
            for n in o:
                assert (n * q) % (q ** d - 1) in o


@settings(max_examples=50)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 7))
def test_f9_pow_matches_repeated_mul(a, b, n):
    F = make_field(3, 2)
    acc = 1
    for _ in range(n):
        acc = F.mul(acc, a)
    assert F.pow(a, n) == acc if a != 0 else True
    assert F.mul(a, b) == F.mul(b, a)


def test_mult_order():
    F = make_field(3, 2)
    gens = [a for a in F.units() if F.mult_order(a) == 8]
    assert len(gens) == 4  # phi(8)


def test_frobq_fixes_base_field():
    Fq = make_field(3)
    F = residue_field(parse_poly("T^2+1", Fq))
    for a in range(3):
        assert F.pow(a, 3) == a
    # x -> x^q is a field automorphism of order d
    for x in F.elements():
        assert F.pow(F.pow(x, 3), 3) == x


# -- row_reduce ------------------------------------------------------------


def _leibniz_det(mat, ops, zero, one):
    """Slow oracle: the determinant as a signed sum over permutations."""
    n = len(mat)
    det = zero
    for perm in itertools.permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = ops.mul(term, mat[i][j])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        det = ops.sub(det, term) if odd else ops.sub(det, ops.neg(term))
    return det


def _random_matrices(F, rng):
    """Random n x n matrices, n <= 5, about half the entries zero; every
    third one made singular by a repeated combination of two rows."""
    out = []
    for n in range(1, 6):
        for k in range(6):
            mat = [[rng.randrange(F.order) if rng.random() < 0.5 else 0
                    for _ in range(n)] for _ in range(n)]
            if k % 3 == 2 and n > 1:
                c = rng.randrange(1, F.order)
                mat[-1] = [F.add(a, F.mul(c, b))
                           for a, b in zip(mat[0], mat[1 % (n - 1)])]
            out.append(mat)
    return out


@pytest.mark.parametrize("p,e", [(3, 2), (2, 3)])
def test_row_reduce_det_matches_leibniz(p, e):
    F = make_field(p, e)
    rng = random.Random(p * 10 + e)
    singular = 0
    for mat in _random_matrices(F, rng):
        want = _leibniz_det(mat, F, 0, 1)
        rows = [list(r) for r in mat]
        _, det = row_reduce(rows, F)
        assert (0 if det is None else det) == want, mat
        assert det != 0
        singular += want == 0
    assert singular >= 8


def test_row_reduce_det_ratfunc_matches_leibniz():
    rng = random.Random(7)
    F3 = make_field(3)

    def entry():
        num = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(3))]
                   + [rng.randrange(1, 3)])
        den = Poly(F3, [rng.randrange(3) for _ in range(2)] + [1])
        return RatFunc(num, den)

    for k in range(6):
        mat = [[entry() for _ in range(3)] for _ in range(3)]
        if k == 5:
            mat[2] = [a + b for a, b in zip(mat[0], mat[1])]
        want = _leibniz_det(mat, OBJECT_OPS, RatFunc.zero(F3), RatFunc.one(F3))
        _, det = row_reduce([list(r) for r in mat], OBJECT_OPS)
        assert (RatFunc.zero(F3) if det is None else det) == want, k
        assert (det is None) == (k == 5)


@pytest.mark.parametrize("p,e", [(3, 2), (2, 3)])
def test_row_reduce_is_rref_of_the_row_space(p, e):
    F = make_field(p, e)
    rng = random.Random(p + e)
    for shape in [(3, 5), (4, 4), (5, 3), (4, 6)]:
        for _ in range(5):
            nr, nc = shape
            mat = [[rng.randrange(F.order) if rng.random() < 0.4 else 0
                    for _ in range(nc)] for _ in range(nr)]
            rows = [list(r) for r in mat]
            pivots, _ = row_reduce(rows, F)
            assert pivots == sorted(set(pivots))
            for t, pc in enumerate(pivots):
                assert rows[t][pc] == 1
                assert all(x == 0 for x in rows[t][:pc])
                assert all(rows[s][pc] == 0 for s in range(nr) if s != t)
            assert all(x == 0 for r in rows[len(pivots):] for x in r)
            # every input row lies in the span of the output rows
            for v in mat:
                for t, pc in enumerate(pivots):
                    c = v[pc]
                    v = [F.sub(a, F.mul(c, b)) for a, b in zip(v, rows[t])]
                assert not any(v), mat

