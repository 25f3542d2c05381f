import random

from carlitz.cyclotomic import Character, CycField, all_characters, b1
from carlitz.equivariant import descends
from carlitz.fields import make_field
from carlitz.laurent import LaurentSeries
from carlitz.polynomials import Poly, RatFunc, parse_poly
from galois_oracle import frobenius_orbits

F3 = make_field(3)


def _cyc():
    return CycField(parse_poly("T^2+1", F3))


PREC = 8


def _random_laurent(F, rng, pool):
    # valuation 0 .. 2 with a nonzero leading coefficient from the pool
    lead = rng.choice([c for c in pool if c] or [1])
    return LaurentSeries(F, rng.randrange(3),
                         [lead] + [rng.choice(pool) for _ in range(PREC)], PREC)


def _coeff_frob(F, q, v):
    """c -> c^q on the coefficients of a RatFunc or LaurentSeries, T fixed."""
    if isinstance(v, RatFunc):
        def fr(p):
            return Poly(F, [F.pow(c, q) for c in p.coeffs])
        return RatFunc(fr(v.num), fr(v.den), reduce=False)
    return v.map_coeffs(F, lambda c: F.pow(c, q))


def _frob_family(cyc, rng):
    # one free value per Frobenius orbit, the rest filled in by the twist;
    # wrap-around forces the free value into the subfield fixed by frob^e
    values = {}
    for orb in frobenius_orbits(cyc.q, cyc.d):
        pool = [c for c in range(cyc.F.order)
                if cyc.F.pow(c, cyc.q ** len(orb)) == c]
        v = _random_laurent(cyc.F, rng, pool)
        for n in orb:
            values[n] = v
            v = _coeff_frob(cyc.F, cyc.q, v)
    return values


def test_descends_constructed_family():
    cyc = _cyc()
    rng = random.Random(7)
    assert descends(cyc, _frob_family(cyc, rng))


def test_descends_fails_on_perturbation():
    cyc = _cyc()
    rng = random.Random(11)
    fam = _frob_family(cyc, rng)
    # break one member of a nontrivial orbit
    orb = next(o for o in frobenius_orbits(cyc.q, cyc.d) if len(o) > 1)
    T = Poly(cyc.F, [0, 1])
    n = orb[0]
    fam[n] = fam[n] + LaurentSeries.from_poly(T, PREC)
    assert not descends(cyc, fam)


def test_descends_fails_on_missing_character():
    cyc = _cyc()
    rng = random.Random(5)
    for n in range(cyc.L):
        fam = _frob_family(cyc, rng)
        del fam[n]
        assert not descends(cyc, fam), n


def test_b1_family_descends():
    # B_{1,chi^q} is the coefficient Frobenius of B_{1,chi}
    cyc = _cyc()
    for chi in all_characters(cyc):
        assert b1(Character(cyc, chi.n * cyc.q)) == \
            _coeff_frob(cyc.F, cyc.q, b1(chi)), chi.n


def test_descends_up_to_constants():
    # members are compared after scaling to leading coefficient 1, so a
    # member scaled by a nonzero constant still descends
    cyc = _cyc()
    rng = random.Random(3)
    fam = _frob_family(cyc, rng)
    fam[1] = fam[1].scale(2)
    # the raw members no longer match along the orbit of 1
    assert not _coeff_frob(cyc.F, cyc.q, fam[1]).agrees_with(fam[cyc.q])
    assert descends(cyc, fam)
