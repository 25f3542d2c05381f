"""Integral recognition at the infinite places against its oracle.

InftyEmbedding.coords_of reads the lambda-coordinates off the trace
pairing; recognize_oracle solves the same values by Gauss-Jordan
elimination.  The two must agree on their joint window, and each
coordinate must keep the window it claims when recomputed at twice the
depth.
"""

import pytest

from carlitz.core import exp_eval
from carlitz.cyclotomic import CycField
from carlitz.fields import make_field
from carlitz.laurent import LaurentSeries
from carlitz.polynomials import parse_poly
from carlitz.special_points import recognize_integral, special_point_inf
from galois_oracle import OBJECT_OPS, row_reduce
from recognize_oracle import coords_by_elimination, row_reduce_least_valuation

F3 = make_field(3)


def _exps(cyc, m, depth):
    """exp_C L_m at every infinite place, as verify_anderson computes it."""
    return {b: exp_eval(v, v.wprec())
            for b, v in special_point_inf(cyc, m, depth).items()}


def test_oracle_pivots_by_least_valuation():
    # column 0 holds T^-3 in row 0 and 1 in row 1: the first nonzero
    # entry is the small one, the least valuation the large one, and
    # dividing by the large one keeps the solution's precision

    def system():
        return [[LaurentSeries(F3, 3, [1], 8), LaurentSeries(F3, 0, [1], 8),
                 LaurentSeries(F3, 0, [2], 8)],
                [LaurentSeries(F3, 0, [1], 8), LaurentSeries(F3, 0, [2, 1], 8),
                 LaurentSeries(F3, 0, [1], 8)]]

    first, least = system(), system()
    assert row_reduce(first, OBJECT_OPS)[0] == [0, 1]
    assert row_reduce_least_valuation(least) == [0, 1]
    assert [r[2].prec for r in least] == [8, 8]
    assert max(r[2].prec for r in first) < 8
    assert all(a[2].agrees_with(b[2]) for a, b in zip(first, least))


@pytest.mark.parametrize("q,Pstr,depth", [
    (2, "T^2+T+1", 16), (2, "T^3+T^2+1", 16), (3, "T+1", 16),
    (3, "T^2+1", 16), (3, "T^3+2*T+1", 16), (2, "T^3+T+1", 64)])
def test_coords_match_elimination(q, Pstr, depth):
    Fq = make_field(q)
    cyc = CycField(parse_poly(Pstr, Fq))
    emb = cyc.infty_embedding(depth)
    for m in range(1, 6):
        vals = _exps(cyc, m, depth)
        elim = coords_by_elimination(cyc, vals, emb)
        for j, (a, b) in enumerate(zip(emb.coords_of(vals), elim)):
            assert a.agrees_with(b), (m, j, a, b)
        want = [c.polynomial_part(Fq) for c in elim]
        assert list(recognize_integral(cyc, vals, emb).coords) == want, m


@pytest.mark.parametrize("q,Pstr", [(2, "T^2+T+1"), (2, "T^3+T+1"),
                                    (3, "T^2+1"), (3, "T^3+2*T+1")])
def test_coords_precision_sound(q, Pstr):
    # every digit a coordinate claims at depth D survives at depth 2D,
    # including at the shallow depths where recognition falls short
    Fq = make_field(q)
    cyc = CycField(parse_poly(Pstr, Fq))
    for depth in (2, 4, 8):
        lo_emb = cyc.infty_embedding(depth)
        hi_emb = cyc.infty_embedding(2 * depth)
        for m in range(1, 6):
            lo = lo_emb.coords_of(_exps(cyc, m, depth))
            hi = hi_emb.coords_of(_exps(cyc, m, 2 * depth))
            for j, (a, b) in enumerate(zip(lo, hi)):
                assert b.prec >= a.prec and a.agrees_with(b), \
                    (depth, m, j, a, b)
