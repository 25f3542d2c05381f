"""Structure of O_K and of the characters that only the tests check: the
normal integral basis eta with the determinant of its Galois conjugates,
found by elimination over F(T), the idempotent projection e_chi by the
sum over Delta, the special points L_m over F = A/PA, and the Frobenius
orbits of the characters.  row_reduce is the one Gauss-Jordan
elimination of the tests; OBJECT_OPS gives it the operators of object
entries (RatFunc, LaurentSeries)."""

import operator
from types import SimpleNamespace

from carlitz.cyclotomic import (Character, CycElem, galois_images,
                                gauss_thakur, project_vector, sigma_act)
from carlitz.laurent import LaurentSeries
from carlitz.polynomials import Poly, RatFunc

# object entries such as RatFunc: field operations are their operators
OBJECT_OPS = SimpleNamespace(neg=operator.neg, sub=operator.sub,
                             mul=operator.mul, inv=operator.methodcaller("inv"),
                             is_zero=operator.methodcaller("is_zero"))


def row_reduce(rows, ops):
    """Gauss-Jordan elimination of a list of rows over a field, in place.

    `ops` supplies neg, sub, mul, inv and is_zero on the entries: a
    FiniteField for int entries, or any namespace of such functions for
    other entries (RatFunc, LaurentSeries).  Each column's
    pivot is the first row still free with a nonzero entry there.
    Afterwards rows[:len(pivots)] are in reduced row echelon form (pivot
    entries 1, pivot columns zero elsewhere) and the remaining rows are
    zero.  Returns (pivots, det): det is the determinant of a square
    nonsingular input, None for a singular or non-square one.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    pivots, det, flips = [], None, False
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        i = next((i for i in range(r, n) if not ops.is_zero(rows[i][c])), n)
        if i == n:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            flips = not flips
        piv = rows[r][c]
        det = piv if det is None else ops.mul(det, piv)
        inv = ops.inv(piv)
        # columns left of c are zero in the pivot row
        prow = [ops.mul(x, inv) for x in rows[r][c:]]
        rows[r][c:] = prow
        for j in range(n):
            f = rows[j][c]
            if j != r and not ops.is_zero(f):
                rows[j][c:] = [ops.sub(a, ops.mul(f, b))
                               for a, b in zip(rows[j][c:], prow)]
        pivots.append(c)
    if len(pivots) < n or n != width:
        return pivots, None
    return pivots, ops.neg(det) if flips else det


def idempotent_project(chi, x):
    """e_chi x = -sum_b chi^{-1}(b) sigma_b(x), a CycElem.

    The minus sign is |Delta| = q^d - 1 = -1 in characteristic p, making
    e_chi idempotent without a division.
    """
    F = x.field
    proj = project_vector(chi, galois_images(
        chi.cyc, [c or None for c in x.coords], lambda v, m: v * m))
    return CycElem(x.cyc, F, [Poly.zero(F) if v is None else v
                              for v in proj])


def special_point_coords(cyc, m, table, field):
    """lambda-coordinates of L_m = sum_sigma sigma(lambda)^m T_sigma as
    Laurent series over `field` (F_q or F), every product taken there:
    the projection oracles' route to the e_chi L_m that verify_cnf
    computes over F_q."""
    prec = table.prec
    coords = [None] * cyc.L
    for sigma in cyc.units():
        c = table.class_total(sigma)
        if c.is_zero():
            continue
        cF = c.map_coeffs(field, lambda x: x)
        for i, p in enumerate(cyc.sigma_power(sigma, m)):
            if p.is_zero():
                continue
            pl = LaurentSeries.from_poly(p, prec + int(p.degree) + 2, field)
            term = cF * pl
            coords[i] = term if coords[i] is None else coords[i] + term
    return coords


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
