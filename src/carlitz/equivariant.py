"""Frobenius descent of per-character families.

A family {x_chi} over the full character group descends to the group
ring over A exactly when x_{chi^q} is the coefficient-leg Frobenius of
x_chi; such families are determined by one value per Frobenius orbit.
"""


def descends(cyc, family):
    """True when `family` (dict n -> LaurentSeries over F) has a member
    for every character omega^n and descends up to F-constants: after
    scaling each member to leading coefficient 1, the coefficient
    Frobenius of x_n (c -> c^q, T fixed) agrees with x_{nq mod L}."""
    F, L, q = cyc.F, cyc.L, cyc.q
    monic = {n: v if v.is_zero() else v.scale(F.inv(v.leading()))
             for n, v in family.items()}
    return sorted(monic) == list(range(L)) and all(
        v.map_coeffs(F, lambda c: F.pow(c, q)).agrees_with(monic[n * q % L])
        for n, v in monic.items())
