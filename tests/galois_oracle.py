"""Structure of O_K and of the characters that only the tests check: the
normal integral basis eta with the determinant of its Galois conjugates,
found by elimination over F(T), and the Frobenius orbits of the
characters.  OBJECT_OPS gives row_reduce the operators of object
entries (RatFunc, LaurentSeries)."""

import operator
from types import SimpleNamespace

from carlitz.cyclotomic import Character, CycElem, gauss_thakur, sigma_act
from carlitz.fields import row_reduce
from carlitz.polynomials import Poly, RatFunc

# object entries such as RatFunc: field operations are their operators
OBJECT_OPS = SimpleNamespace(neg=operator.neg, sub=operator.sub,
                             mul=operator.mul, inv=operator.methodcaller("inv"),
                             is_zero=operator.methodcaller("is_zero"))


def normal_basis_eta(cyc):
    """eta = sum_chi tau(chi); descends to O_K and generates it as an
    A[Delta]-module.  Returns (eta in A-coords, determinant of the
    change of basis {sigma_b eta} -> {lambda^i}, a unit of A)."""
    F = cyc.F
    acc = CycElem.zero(cyc, F)
    for n in range(cyc.L):
        acc = acc + gauss_thakur(Character(cyc, n))
    # coefficients must lie in F_q inside F
    if any(coef >= cyc.q for c in acc.coords for coef in c.coeffs):
        raise ArithmeticError("eta coordinate does not descend to A")
    coords_A = [Poly(cyc.Fq, c.coeffs) for c in acc.coords]
    eta = CycElem.from_A_coords(cyc, cyc.Fq, coords_A)
    rows = [[RatFunc.from_poly(c) for c in sigma_act(cyc, b, eta).coords]
            for b in cyc.units()]
    _, det = row_reduce(rows, OBJECT_OPS)
    if det is None or not (det.is_poly() and det.num.degree == 0):
        raise ArithmeticError("eta is not a normal integral basis")
    return coords_A, det


def frobenius_orbits(q, d):
    """Orbits of n -> q*n on Z/(q^d - 1), sorted by least element.

    These index the Frobenius orbits of characters of (A/PA)^* for an
    irreducible P of degree d.
    """
    L = q ** d - 1
    seen = [False] * L
    orbits = []
    for n0 in range(L):
        if seen[n0]:
            continue
        orb, n = [], n0
        while not seen[n]:
            seen[n] = True
            orb.append(n)
            n = (n * q) % L
        orbits.append(tuple(orb))
    return orbits
