"""Special L-values at s = 1, infinity-adically and P-adically.

The workhorse is the class-sum table: for each degree n and residue
class sigma mod P, the sum of 1/a over monic a of degree n in the class.

Truncation is certified, not heuristic.  For the class sum over degree
n, the coefficient of T^{-(n+j)} in each 1/a depends only on the top j
coefficients of a; with those fixed, the class condition leaves exactly
q^{n-j-d} polynomials whenever n - j > d, a multiple of p, so the
coefficient dies in characteristic p.  Hence the block has valuation at
least 2n - d and degrees n > (B + d) // 2 cannot touch a window of
depth B.  The same count without the class condition gives valuation
2n for full blocks.  P-adically, blocks of degree n > N*d vanish mod
P^N; the library validates that lemma empirically on the next d blocks
when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cyclotomic import Character, all_characters
from .equivariant import EquivariantElem
from .fields import residue_field
from .laurent import LaurentSeries
from .padics import PadicContext, PadicElem
from .polynomials import Poly, RatFunc


class ClassSumTable:
    """Infinity-adic class sums for one P, certified to depth `depth`:
    the Laurent data below carries every coefficient of T^{-j}, j <=
    depth.  rows[n][sigma] covers units sigma; class 0 is derived from
    the full-block sums (a = P*b)."""

    def __init__(self, P, depth):
        Fq = P.field
        q = Fq.order
        d = int(P.degree)
        self.P = P
        self.depth = depth
        self.prec = depth + 1
        self.F = residue_field(P)
        self.n_full = (depth + d) // 2
        F = self.F
        theta_pow = [1]
        for _ in range(self.n_full + 1):
            theta_pow.append(F.mul(theta_pow[-1], F.theta))

        self.rows = []
        for n in range(self.n_full + 1):
            acc = {}
            w = self.prec - n
            for code in range(q ** n):
                digs, x = [], code
                for _ in range(n):
                    digs.append(x % q)
                    x //= q
                sigma = theta_pow[n]
                for i, dig in enumerate(digs):
                    if dig:
                        sigma = F.add(sigma, F.mul(dig, theta_pow[i]))
                if sigma == 0:
                    continue  # PA classes are (1/P) * full blocks, see below
                inv = _inverse_window(digs, w, Fq)
                row = acc.get(sigma)
                if row is None:
                    acc[sigma] = inv
                else:
                    acc[sigma] = [Fq.add(a, b) for a, b in zip(row, inv)]
            self.rows.append({s: LaurentSeries(Fq, n, cs, self.prec)
                              for s, cs in acc.items()})

        # full-block sums for degree m <= depth // 2 (valuation >= 2m)
        self.full = []
        for m in range(depth // 2 + 1):
            w = self.prec - m
            acc = [0] * w
            for code in range(q ** m):
                digs, x = [], code
                for _ in range(m):
                    digs.append(x % q)
                    x //= q
                inv = _inverse_window(digs, w, Fq)
                acc = [Fq.add(a, b) for a, b in zip(acc, inv)]
            self.full.append(LaurentSeries(Fq, m, acc, self.prec))

    def unit_class_total(self, sigma):
        """Sum over all degrees of the class sum at a unit class."""
        Fq = self.P.field
        acc = LaurentSeries.zero(Fq, self.prec)
        for row in self.rows:
            if sigma in row:
                acc = acc + row[sigma]
        return acc

    def zero_class_total(self):
        """Sum over PA: (1/P) times the full monic zeta block."""
        Fq = self.P.field
        pinv = LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(Fq), self.P), self.prec + int(self.P.degree))
        acc = LaurentSeries.zero(Fq, self.prec + int(self.P.degree))
        for s in self.full:
            acc = acc + s
        return (pinv * acc).truncate(self.prec)

    def full_total(self):
        Fq = self.P.field
        acc = LaurentSeries.zero(Fq, self.prec)
        for s in self.full:
            acc = acc + s
        return acc


def _inverse_window(digs, w, Fq):
    """First w coefficients of 1/a shifted by T^deg: a = T^n (1 + u)."""
    n = len(digs)
    inv = [0] * w
    inv[0] = 1
    if w == 1 or n == 0:
        return inv
    # u_j = digit_{n-j}
    u = [0] + [digs[n - j] for j in range(1, min(n, w - 1) + 1)]
    add, mul, neg = Fq.add, Fq.mul, Fq.neg
    for k in range(1, w):
        acc = 0
        for j in range(1, min(k, len(u) - 1) + 1):
            if u[j] and inv[k - j]:
                acc = add(acc, mul(u[j], inv[k - j]))
        inv[k] = neg(acc)
    return inv


class PadicClassSumTable:
    """P-adic class sums mod P^N over unit classes, blocks n <= N*d plus
    `extra_blocks` validation blocks (lemma: those vanish mod P^N)."""

    def __init__(self, P, N, extra_blocks=0):
        Fq = P.field
        q = Fq.order
        d = int(P.degree)
        self.P = P
        self.N = N
        self.ctx = PadicContext(P, N)
        self.F = residue_field(P)
        self.n_max = N * d
        self.extra_blocks = extra_blocks
        F = self.F
        PN = self.ctx.P_pow(N)
        theta_pow = [1]
        for _ in range(self.n_max + extra_blocks + 1):
            theta_pow.append(F.mul(theta_pow[-1], F.theta))

        self.rows = []
        self.validation_rows = []
        for n in range(self.n_max + extra_blocks + 1):
            acc = {}
            for code in range(q ** n):
                digs, x = [], code
                for _ in range(n):
                    digs.append(x % q)
                    x //= q
                sigma = theta_pow[n]
                for i, dig in enumerate(digs):
                    if dig:
                        sigma = F.add(sigma, F.mul(dig, theta_pow[i]))
                if sigma == 0:
                    continue
                a = Poly(Fq, digs + [1])
                inv = _newton_inverse(a, sigma, self.ctx)
                row = acc.get(sigma)
                acc[sigma] = inv if row is None else (row + inv) % PN
            target = self.rows if n <= self.n_max else self.validation_rows
            target.append(acc)

    def unit_class_total(self, sigma):
        PN = self.ctx.P_pow(self.N)
        acc = Poly.zero(self.P.field)
        for row in self.rows:
            if sigma in row:
                acc = (acc + row[sigma]) % PN
        return acc

    def validation_blocks_vanish(self):
        """Empirical check of the truncation lemma on the extra blocks."""
        return all(v.is_zero() for row in self.validation_rows
                   for v in row.values())


def _newton_inverse(a, sigma, ctx):
    """1/a mod P^N starting from the residue-field inverse of sigma."""
    F = ctx.field
    Fres = residue_field(ctx.P)
    inv_res = Fres.inv(sigma)
    digs = []
    x = inv_res
    for _ in range(ctx.d):
        digs.append(x % ctx.q)
        x //= ctx.q
    y = Poly(F, digs)
    two = Poly.const(F, F.add(1, 1))
    k = 1
    while k < ctx.N:
        k = min(2 * k, ctx.N)
        mod = ctx.P_pow(k)
        y = (y * (two - a * y)) % mod
    return y % ctx.P_pow(ctx.N)


# -- L-values ---------------------------------------------------------------------


@dataclass
class LValueReport:
    chi_n: int
    kind: str                     # "inf" | "padic" | "euler"
    value: object
    precision: object
    detail: dict = dc_field(default_factory=dict)


def l_inf(cyc, chi, table):
    """L(1, chi) as a Laurent series over F, certified to the table's
    depth.  Trivial chi uses the inclusive convention: the sum runs over
    all monic a, the PA part contributing (1/P) * zeta block."""
    F = cyc.F
    acc = LaurentSeries.zero(F, table.prec)
    for sigma in cyc.units():
        s = table.unit_class_total(sigma)
        if s.is_zero():
            continue
        c = chi(sigma)
        if c == 0:
            continue
        acc = acc + s.map_coeffs(F, lambda x: x).scale(c)
    if chi.is_trivial():
        acc = acc + table.zero_class_total().map_coeffs(F, lambda x: x)
    return acc


def l_inf_equivariant(cyc, table):
    vals = {chi.n: l_inf(cyc, chi, table) for chi in all_characters(cyc)}
    return EquivariantElem(cyc, vals, "laurent")


def euler_product(cyc, chi, max_deg_f, prec):
    """prod over monic irreducible f of deg <= max_deg_f of
    (1 - chi(f)/f)^{-1} over F tensor k_inf.

    chi(f) is chi at the residue of f; for the trivial character the
    power convention chi(0) = 1 keeps the factor at P itself, matching
    the inclusive series convention of l_inf."""
    F = cyc.F
    acc = LaurentSeries.const(F, 1, prec)
    for f in cyc.irreducibles(max_deg_f):
        r = f.evaluate(cyc.F.theta, target=F)
        c = chi(r)
        if c == 0:
            continue
        finv = LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(cyc.Fq), f), prec + int(f.degree) + 1,
            field=F, embed=lambda x: x)
        factor = (LaurentSeries.const(F, 1, prec + 1)
                  - finv.scale(c)).inv().truncate(prec)
        acc = acc * factor
    return acc.truncate(prec)


def l_padic(cyc, chi, table):
    """L_P(1, chi) in A_P mod P^N, Teichmuller-valued character, sum over
    monic a coprime to P; blocks beyond N*d vanish mod P^N."""
    ctx = table.ctx
    PN = ctx.P_pow(table.N)
    acc = Poly.zero(cyc.Fq)
    for sigma in cyc.units():
        s = table.unit_class_total(sigma)
        if s.is_zero():
            continue
        c = chi(sigma)
        if c == 0:
            continue
        acc = (acc + s * cyc.teichmuller(c, table.N).value) % PN
    return PadicElem(ctx, acc, table.N)


def euler_factor_charpoly(cyc, chi, f):
    """Characteristic polynomial of T + tau on e_chi(F tensor O_K/f O_K)
    as a list of F-coefficients (constant first).

    The module identity says this equals f(Z) - chi(f); the function
    computes the left side honestly from matrices, leaving the identity
    to be checked by the caller.
    """
    F = cyc.F
    Fq = cyc.Fq
    q, Lc = cyc.q, cyc.L
    m = int(f.degree)
    dim = Lc * m

    lam_pows = _lambda_power_coords(cyc, q * (Lc - 1))
    maxdeg = 0
    for row in lam_pows:
        for r in row:
            maxdeg = max(maxdeg, int(r.degree) if r.coeffs else 0)
    for b in cyc.units():
        for r_row in cyc.sigma_powers(b):
            for r in r_row:
                maxdeg = max(maxdeg, int(r.degree) if r.coeffs else 0)
    tred = _t_power_rows(f, q * (m - 1) + maxdeg + m + 2)

    def basis(i, j):
        return i * m + j

    # multiplication by T
    Mt = [[0] * dim for _ in range(dim)]
    for i in range(Lc):
        for j in range(m):
            if j + 1 < m:
                Mt[basis(i, j + 1)][basis(i, j)] = 1
            else:
                for jj, c in enumerate(tred[m]):
                    if c:
                        Mt[basis(i, jj)][basis(i, j)] = c

    # tau: lambda^i T^j -> lambda^{iq} T^{jq}, K-leg only so F-linear
    Mtau = [[0] * dim for _ in range(dim)]
    for i in range(Lc):
        for j in range(m):
            col = basis(i, j)
            for k, r in enumerate(lam_pows[i * q]):
                for e, ce in enumerate(r.coeffs):
                    if ce == 0:
                        continue
                    for jj, c2 in enumerate(tred[j * q + e]):
                        if c2:
                            Mtau[basis(k, jj)][col] = F.add(
                                Mtau[basis(k, jj)][col], F.mul(ce, c2))

    # projector e_chi = -sum chi^{-1}(b) sigma_b
    Pr = [[0] * dim for _ in range(dim)]
    for b in cyc.units():
        w = chi.inv()(b)
        if w == 0:
            continue
        pows = cyc.sigma_powers(b)
        for i in range(Lc):
            for j in range(m):
                col = basis(i, j)
                for k, r in enumerate(pows[i]):
                    for e, ce in enumerate(r.coeffs):
                        if ce == 0:
                            continue
                        for jj, c2 in enumerate(tred[j + e]):
                            if c2:
                                Pr[basis(k, jj)][col] = F.add(
                                    Pr[basis(k, jj)][col],
                                    F.mul(w, F.mul(ce, c2)))
    neg = F.neg(1)
    Pr = [[F.mul(neg, x) for x in row] for row in Pr]

    img = _column_space(Pr, F)
    op = [[F.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(Mt, Mtau)]
    restricted = _restrict(op, img, F)
    return _charpoly(restricted, F)


def _t_power_rows(f, hi):
    """Coefficient vectors of T^e mod f for e = 0..hi (length deg f)."""
    Fq = f.field
    m = int(f.degree)
    rows = []
    cur = [1] + [0] * (m - 1)
    for e in range(hi + 1):
        rows.append(list(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(m):
                cur[j] = Fq.sub(cur[j], Fq.mul(top, f.coeffs[j]))
    return rows


def _lambda_power_coords(cyc, hi):
    """A-coordinates of lambda^i for i = 0..hi."""
    out = []
    for i in range(hi + 1):
        if i < cyc.L:
            row = [Poly.zero(cyc.Fq)] * cyc.L
            row[i] = Poly.one(cyc.Fq)
        else:
            row = list(cyc.rows[i - cyc.L])
        out.append(row)
    return out


def _column_space(mat, F):
    dim = len(mat)
    cols = [[mat[r][c] for r in range(dim)] for c in range(dim)]
    basis = []
    pivots = []
    for col in cols:
        v = col[:]
        for bvec, p in zip(basis, pivots):
            if v[p]:
                w = F.div(v[p], bvec[p])
                v = [F.sub(a, F.mul(w, b)) for a, b in zip(v, bvec)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis.append(v)
            pivots.append(p)
    return basis, pivots


def _restrict(op, img, F):
    basis, pivots = img
    n = len(basis)
    out = [[0] * n for _ in range(n)]
    for jcol, bvec in enumerate(basis):
        w = [0] * len(bvec)
        for i in range(len(bvec)):
            if bvec[i]:
                for r in range(len(bvec)):
                    if op[r][i]:
                        w[r] = F.add(w[r], F.mul(op[r][i], bvec[i]))
        # solve in the triangular-by-pivot basis
        coeffs = [0] * n
        for t, (bv, p) in enumerate(zip(basis, pivots)):
            c = F.div(w[p], bv[p])
            coeffs[t] = c
            if c:
                w = [F.sub(a, F.mul(c, b)) for a, b in zip(w, bv)]
        assert all(x == 0 for x in w), "operator does not preserve e_chi image"
        for t in range(n):
            out[t][jcol] = coeffs[t]
    return out


def _charpoly(mat, F):
    """det(Z*I - mat) as F-coefficient list, constant term first."""
    n = len(mat)
    # polynomial-in-Z entries: lists of F ints
    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return out

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = F.add(out[i + j], F.mul(x, y))
        return out

    entries = [[[F.neg(mat[i][j])] for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = padd(entries[i][i], [0, 1])

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = [0]
        r = rows[0]
        for t, c in enumerate(cols):
            minor = det(rows[1:], cols[:t] + cols[t + 1:])
            term = pmul(entries[r][c], minor)
            if t % 2 == 1:
                term = [F.neg(x) for x in term]
            acc = padd(acc, term)
        return acc

    out = det(list(range(n)), list(range(n)))
    while len(out) < n + 1:
        out.append(0)
    return out
