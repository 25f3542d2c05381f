"""Frobenius-equivariant families of per-character data.

A family {x_chi} over the full character group descends to the group
ring over A exactly when x_{chi^q} is the coefficient-leg Frobenius of
x_chi; such families are determined by one value per Frobenius orbit.
"""

from __future__ import annotations


class EquivariantElem:
    """values: dict n -> LaurentSeries over F for every character
    omega^n; the coefficient Frobenius raises each coefficient to the
    q-th power and fixes T."""

    def __init__(self, cyc, values):
        self.cyc = cyc
        self.values = dict(values)

    def coeff_frob(self, v):
        F = self.cyc.F
        q = self.cyc.q
        return v.map_coeffs(F, lambda c: F.pow(c, q))

    def descends(self):
        """True when the family is Frobenius-compatible across each orbit."""
        L, q = self.cyc.L, self.cyc.q
        for n, v in self.values.items():
            m = (n * q) % L
            if m not in self.values:
                return False
            if not self.coeff_frob(v).agrees_with(self.values[m]):
                return False
        return True

    def normalized(self):
        """Scale each member so its leading coefficient is 1; Frobenius
        compatibility survives because leading coefficients transform
        by the same twist."""
        out = {}
        for n, v in self.values.items():
            out[n] = v if v.is_zero() else v.scale(self.cyc.F.inv(v.leading()))
        return EquivariantElem(self.cyc, out)


def lattice_index(cyc, basis1, basis2):
    """Normalized module index [Lambda1 : Lambda2] in the equivariant
    algebra: per character the ratio of the given basis values, rescaled
    to leading coefficient 1.  Inputs are dicts n -> LaurentSeries over
    F; returns a normalized EquivariantElem."""
    vals = {}
    for n, v1 in basis1.items():
        v2 = basis2[n]
        vals[n] = v2 * v1.inv()
    return EquivariantElem(cyc, vals).normalized()
