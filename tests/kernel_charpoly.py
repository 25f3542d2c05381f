"""Euler-factor charpolys from the kernel of sigma_g - chi(g): the oracle
that the Gauss-Thakur basis of carlitz.lvalues.euler_factor_charpoly is
checked against.  It works on all of F tensor O_K/f O_K, L deg f
dimensions over F, on the basis lambda^i T^j (index i*m + j, m = deg f)."""

from carlitz.cyclotomic import all_characters, fold_powers
from carlitz.lvalues import _charpoly
from carlitz.polynomials import Poly
from galois_oracle import row_reduce


def kernel_charpolys(cyc, f):
    """chi.n -> characteristic polynomial of T + tau on e_chi(F tensor
    O_K/f O_K), for every character.  Delta is cyclic, so sigma_g for a
    generator g has the distinct eigenvalues chi(g), and the e_chi image
    is the kernel of sigma_g - chi(g), taken by one reduction of the
    Lm x Lm matrix."""
    F, L, m = cyc.F, cyc.L, int(f.degree)
    g = next(b for b in cyc.units() if F.mult_order(b) == L)
    op = charpoly_ops(cyc, f)
    # column i*m + j: sigma_g(lambda^i) T^j mod f
    cols = []
    for i in range(L):
        for j in range(m):
            col = []
            for r in cyc.sigma_power(g, i):
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
            w = apply(op, v, F)
            if any(apply(sparse, w, F)):
                raise ArithmeticError("operator does not preserve e_chi image")
            for row, k in enumerate(free):
                restricted[row][col] = w[k]
        out[chi.n] = _charpoly(restricted, F)
    return out


def charpoly_ops(cyc, f):
    """The matrix over F of T + tau on F tensor O_K/f O_K, on the basis of
    vector(), as sparse rows (apply)."""
    q, m, Fq = cyc.q, int(f.degree), cyc.Fq
    # tau sends lambda^i T^j to lambda^{iq} T^{jq} (K-leg only, so
    # F-linear)
    frobs = [fold_powers(cyc.rows, [(i * q, Poly.one(Fq))], Poly.zero(Fq))
             for i in range(cyc.L)]
    # T^{jq} frob for j < m, and T^{j+1} up to T^m
    pows = t_powers(f, q * m + max(len(c.coeffs) for frob in frobs
                                   for c in frob), Fq)
    op = []
    for i, frob in enumerate(frobs):
        for j in range(m):
            col = vector(frob, j * q, pows, Fq)
            col[i * m:(i + 1) * m] = [Fq.add(a, b) for a, b in zip(
                col[i * m:(i + 1) * m], pows[j + 1])]
            op.append(col)
    # the list holds columns; transpose to sparse rows
    return [[(k, a) for k, a in enumerate(r) if a] for r in zip(*op)]


def t_powers(f, n, F):
    """T^k mod f for k < n (at least), each as its deg f digits, constant
    first, by companion steps."""
    pows = [[1] + [0] * (int(f.degree) - 1)]
    while len(pows) < n:
        pows.append(times_T(pows[-1], f, F))
    return pows


def times_T(v, f, F):
    """T v mod f for the digits v of a residue mod f, f monic over F_q."""
    top = v[-1]
    out = [0] + v[:-1]
    if top:
        out = [F.sub(a, F.mul(top, c)) for a, c in zip(out, f.coeffs)]
    return out


def vector(coords, e, pows, F):
    """(sum_k coords[k] lambda^k) T^e mod f on the basis lambda^i T^j at
    index i*m + j: each coords[k], a Poly over F, is a linear combination
    of the rows pows[n] = T^n mod f (t_powers).  F_q sits in F with the
    same int encoding."""
    m, out = len(pows[0]), []
    for r in coords:
        acc = [0] * m
        for n, c in enumerate(r.coeffs, e):
            if c:
                for j, t in enumerate(pows[n]):
                    if t:
                        acc[j] = F.add(acc[j], F.mul(c, t))
        out.extend(acc)
    return out


def apply(mat, v, F):
    """mat v over F, each row of mat a list of (column, entry) pairs
    for its nonzero entries."""
    out = []
    for row in mat:
        acc = 0
        for k, a in row:
            if v[k]:
                acc = F.add(acc, F.mul(a, v[k]))
        out.append(acc)
    return out
