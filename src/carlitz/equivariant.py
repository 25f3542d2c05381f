"""Frobenius-equivariant families of per-character data.

A family {x_chi} over the full character group descends to the group
ring over A exactly when x_{chi^q} is the coefficient-leg Frobenius of
x_chi; such families are determined by one value per Frobenius orbit.
Fitting ideals of finite modules over the orbit rings F_i[T] are
computed through Smith normal form (F_i[T] is Euclidean).
"""

from __future__ import annotations

from .polynomials import Poly


class EquivariantElem:
    """values: dict n -> value for every character omega^n; kind is
    'ratfunc' or 'laurent' and fixes how the coefficient Frobenius acts."""

    def __init__(self, cyc, values, kind):
        self.cyc = cyc
        self.values = dict(values)
        self.kind = kind

    def coeff_frob(self, v):
        F = self.cyc.F
        q = self.cyc.q
        if self.kind == "ratfunc":
            return v.coeff_frob(q)
        if self.kind == "laurent":
            return v.map_coeffs(F, lambda c: F.pow(c, q))
        raise ValueError("unknown kind %r" % self.kind)

    def descends(self):
        """True when the family is Frobenius-compatible across each orbit."""
        L, q = self.cyc.L, self.cyc.q
        for n, v in self.values.items():
            m = (n * q) % L
            if m not in self.values:
                return False
            w = self.values[m]
            fv = self.coeff_frob(v)
            if self.kind == "ratfunc":
                if not (fv.num * w.den == w.num * fv.den):
                    return False
            else:
                if not fv.agrees_with(w):
                    return False
        return True

    def normalized(self):
        """Scale each member so its leading coefficient is 1; Frobenius
        compatibility survives because leading coefficients transform
        by the same twist."""
        out = {}
        for n, v in self.values.items():
            if self.kind == "ratfunc":
                if v.is_zero():
                    out[n] = v
                else:
                    c = self.cyc.F.div(v.den.leading(), v.num.leading())
                    out[n] = v.scale(c)
            else:
                if v.is_zero():
                    out[n] = v
                else:
                    out[n] = v.scale(self.cyc.F.inv(v.leading()))
        return EquivariantElem(self.cyc, out, self.kind)


def smith_normal_form(mat, field):
    """Invariant factors of a matrix of Polys over field's [T].

    Returns the list of nonzero diagonal entries (monic), shortest
    first; standard pivot-and-reduce since F[T] is Euclidean.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # pivot: least-degree nonzero entry in the working submatrix
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                e = m[i][j]
                if not e.is_zero() and (best is None
                                        or e.degree < m[best[0]][best[1]].degree):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column by division with remainder, repeating while
        # remainders pop up
        while True:
            dirty = False
            piv = m[top][top]
            for i in range(top + 1, rows):
                if m[i][top].is_zero():
                    continue
                qout, r = divmod(m[i][top], piv)
                for j in range(top, cols):
                    m[i][j] = m[i][j] - qout * m[top][j]
                if not r.is_zero():
                    m[top], m[i] = m[i], m[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j].is_zero():
                    continue
                qout, r = divmod(m[top][j], piv)
                for i in range(top, rows):
                    m[i][j] = m[i][j] - m[i][top] * qout
                if not r.is_zero():
                    for i in range(top, rows):
                        m[i][top], m[i][j] = m[i][j], m[i][top]
                    dirty = True
                    break
            if not dirty:
                break
        diag.append(m[top][top].monic())
        top += 1
    return diag


def fitting_generator(mat, field):
    """Monic generator of the 0th Fitting ideal of coker(mat) over F[T].

    mat presents the module by columns-as-relations on len(mat) free
    generators; finiteness (full row rank of relations) is required and
    checked: the number of invariant factors must equal the generator
    count.
    """
    if not mat:
        return Poly.one(field)
    diag = smith_normal_form(mat, field)
    if len(diag) < len(mat):
        raise ValueError("presented module is not finite over F[T]")
    out = Poly.one(field)
    for e in diag:
        out = out * e
    return out.monic()


def lattice_index(cyc, basis1, basis2):
    """Normalized module index [Lambda1 : Lambda2] in the equivariant
    algebra: per character the ratio of the given basis values, rescaled
    to leading coefficient 1.  Inputs are dicts n -> LaurentSeries over
    F; returns a normalized EquivariantElem."""
    vals = {}
    for n, v1 in basis1.items():
        v2 = basis2[n]
        vals[n] = v2 * v1.inv()
    return EquivariantElem(cyc, vals, "laurent").normalized()
