"""Oracles for the infinite place: a RamifiedElem read back as its q - 1
series in 1/T, the lambda-coordinates of analytic values solved by
Gauss-Jordan elimination of the L x (L+1) system of those series, and
the images of an exact element at every infinite place (embed_infty).

InftyEmbedding.coords_of reads each coordinate off one trace instead;
the elimination is the slow, independent path it is checked against.
"""

from carlitz.laurent import LaurentSeries


def comps(x):
    """The Y^j parts of a RamifiedElem, j < q - 1, each a series in 1/T:
    the digits with w = (q-1) n - j signed (-1)^n, known to
    ceil((wprec + j) / (q-1))."""
    s, e, F = x.s, x.q - 1, x.field
    out = []
    for j in range(e):
        lo, hi = (-((-w - j) // e) for w in (s.val, s.prec))
        cs = s.coeffs[e * lo - j - s.val::e]
        out.append(LaurentSeries(F, lo, [F.neg(c) if (lo + i) % 2 else c
                                         for i, c in enumerate(cs)], hi))
    return tuple(out)


def row_reduce_least_valuation(rows):
    """Gauss-Jordan elimination of rows of LaurentSeries, in place.  Each
    column's pivot is the free row of least valuation there: dividing by
    the largest entry loses the least precision.  Returns the pivot
    columns; rows[:len(pivots)] end in reduced row echelon form."""
    n, width = len(rows), len(rows[0])
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        free = [i for i in range(r, n) if not rows[i][c].is_zero()]
        if not free:
            continue
        i = min(free, key=lambda i: rows[i][c].valuation())
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inv()
        prow = [x * inv for x in rows[r][c:]]
        rows[r][c:] = prow
        for k in range(n):
            f = rows[k][c]
            if k != r and not f.is_zero():
                rows[k][c:] = [a - f * b for a, b in zip(rows[k][c:], prow)]
        pivots.append(c)
    return pivots


def coords_by_elimination(cyc, values, emb):
    """The lambda-coordinates of the element with value values[b] at each
    place b, as series in 1/T: one scalar equation per place and
    Y-component over the embedded lambda^i, solved by elimination.
    Raises ValueError when the system is singular to precision."""
    L = cyc.L
    rows = []
    for b in emb.reps:
        cols = [comps(p) for p in emb.lambda_powers(b)]
        cols.append(comps(values[b]))
        rows.extend(map(list, zip(*cols)))
    if len(rows) != L:
        raise ValueError("need exactly %d scalar equations, got %d"
                         % (L, len(rows)))
    pivots = row_reduce_least_valuation(rows)
    if pivots != list(range(L)):
        raise ValueError("singular place-embedding matrix")
    return [row[L] for row in rows]


def embed_infty(x, prec):
    """Images of a CycElem at the infinite places.  Returns dict
    place-rep -> RamifiedElem."""
    emb = x.cyc.infty_embedding(prec)
    return {b: emb.embed_coords(x.coords, b) for b in emb.reps}
