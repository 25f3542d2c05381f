"""Euler-factor charpolys from the kernel of sigma_g - chi(g): the oracle
that the Gauss-Thakur basis of carlitz.lvalues.euler_factor_charpoly is
checked against."""

from carlitz.cyclotomic import all_characters
from carlitz.fields import row_reduce
from carlitz.lvalues import _apply, _charpoly, _charpoly_ops


def kernel_charpolys(cyc, f):
    """chi.n -> characteristic polynomial of T + tau on e_chi(F tensor
    O_K/f O_K), for every character.  Delta is cyclic, so sigma_g for a
    generator g has the distinct eigenvalues chi(g), and the e_chi image
    is the kernel of sigma_g - chi(g), taken by one reduction of the
    Lm x Lm matrix on the basis lambda^i T^j (index i*m + j)."""
    F, L, m = cyc.F, cyc.L, int(f.degree)
    g = next(b for b in cyc.units() if F.mult_order(b) == L)
    op = _charpoly_ops(cyc, f)
    # column i*m + j: sigma_g(lambda^i) T^j mod f
    cols = []
    for i in range(L):
        for j in range(m):
            col = []
            for r in cyc.sigma_powers(g)[i]:
                cs = [] if r.is_zero() else list((r.shift(j) % f).coeffs)
                col.extend(cs + [0] * (m - len(cs)))
            cols.append(col)
    sig = [list(r) for r in zip(*cols)]
    out = {}
    for chi in all_characters(cyc):
        c = chi(g)
        rows = [[F.sub(x, c) if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(sig)]
        pivots, _ = row_reduce(rows, F)
        rows = rows[:len(pivots)]
        sparse = [[(k, a) for k, a in enumerate(row) if a] for row in rows]
        free = [j for j in range(L * m) if j not in pivots]
        # the kernel vector with a 1 at free column j has -rows[r][j] at
        # the pivot of row r
        restricted = [[0] * len(free) for _ in free]
        for col, j in enumerate(free):
            v = [0] * (L * m)
            v[j] = 1
            for r, p in enumerate(pivots):
                v[p] = F.neg(rows[r][j])
            w = _apply(op, v, F)
            if any(_apply(sparse, w, F)):
                raise ArithmeticError("operator does not preserve e_chi image")
            for row, k in enumerate(free):
                restricted[row][col] = w[k]
        out[chi.n] = _charpoly(restricted, F)
    return out
