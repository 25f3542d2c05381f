import itertools

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.fields import FiniteField, make_field, residue_field, frobenius_orbits
from carlitz.polynomials import Poly, parse_poly


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
