"""Class-sum blocks by enumerating monic polynomials: the oracle that the
closed form in carlitz.lvalues is checked against.  Inverses mod P^N
come from Euclid (xgcd), independent of PadicContext.unit_inv."""

from carlitz.fields import residue_field
from carlitz.laurent import LaurentSeries
from carlitz.polynomials import Poly, monic_polys


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.coeffs and r0.coeffs[-1] != 1:
        c = F.inv(r0.leading())
        r0, s0, t0 = r0.scale(c), s0.scale(c), t0.scale(c)
    return r0, s0, t0


def brute_blocks(P, n, prec=None, N=None):
    """Residue sigma -> sum of 1/a over monic a of degree n with a = sigma
    mod P.  With `prec`: at infinity, every class, to T^{-prec} (1/a from a
    Laurent inverse).  With `N`: mod P^N, unit classes only (1/a from
    xgcd)."""
    F = residue_field(P)
    PN = None if N is None else P ** N
    out = {}
    for a in monic_polys(P.field, n):
        sigma = a.evaluate(F.theta, target=F)
        if PN is None:
            inv = LaurentSeries.from_poly(a, prec + n).inv().truncate(prec)
        elif sigma:
            inv = xgcd(a, PN)[1]
        else:
            continue
        out[sigma] = out[sigma] + inv if sigma in out else inv
    if PN is not None:
        out = {sigma: s % PN for sigma, s in out.items()}
    return out
