"""Class-sum blocks by enumerating monic polynomials: the oracle that the
closed form in carlitz.lvalues is checked against."""

from carlitz.fields import residue_field
from carlitz.laurent import LaurentSeries
from carlitz.polynomials import monic_polys


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
            inv = a.xgcd(PN)[1]
        else:
            continue
        out[sigma] = out[sigma] + inv if sigma in out else inv
    if PN is not None:
        out = {sigma: s % PN for sigma, s in out.items()}
    return out
