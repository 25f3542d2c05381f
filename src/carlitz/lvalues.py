"""Special L-values at s = 1, infinity-adically and P-adically.

The workhorse is the class-sum table: for each degree n and residue
class sigma mod P, the sum of 1/a over monic a of degree n in the class.

Truncation is certified by Carlitz's closed form for these sums
(Carlitz 1935; Goss, Basic Structures of Function Field Arithmetic,
section 3.1).  Write n = d + m.  The sum of 1/a over monic a of degree
n with a = a0 mod P is (1/P) (-1)^m (D_m/L_m) / (D_m + e_m(a0/P)),
where e_m(x) = prod over b in A of degree < m of (x - b).  Every
nonzero block therefore has an exact valuation:

- at infinity, d + deg L_m with deg L_m = q (q^m - 1) / (q - 1), since
  e_m(a0/P) has lower degree than D_m; the full zeta block over all
  monic a of degree m is (-1)^m / L_m, of valuation deg L_m;
- at P, v_P(D_m) - v_P(L_m) + q^m - 1: clearing P^{q^m} leaves a
  denominator congruent to a0^{q^m} mod P, a unit.

Blocks of degree n < d hold one monic polynomial each, of valuation n
at infinity and 0 at P.  Both valuations grow with n, so each table
stops at the last degree whose valuation still reaches its window.

The Euler product is taken as prod f / prod (f - chi(f)): both products
are exact polynomials kept in a relative window of the target depth, so
one Laurent inverse per character certifies the whole window.
"""

from __future__ import annotations

from .core import CarlitzTables
from .cyclotomic import all_characters
from .equivariant import EquivariantElem
from .fields import residue_field, row_reduce
from .laurent import LaurentSeries
from .padics import PadicContext, PadicElem, fold_powers
from .polynomials import Poly, RatFunc


def deg_L(q, m):
    """deg L_m = q + q^2 + ... + q^m."""
    return q * (q ** m - 1) // (q - 1)


def inf_block_valuation(q, d, n):
    """Valuation at infinity of every nonzero class block of degree n."""
    return n if n < d else d + deg_L(q, n - d)


def padic_block_valuation(Fq, d, n):
    """v_P of every nonzero class block of degree n."""
    if n < d:
        return 0
    tab, m = CarlitzTables(Fq), n - d
    return tab.vP_D(m, d) - tab.vP_L(m, d) + Fq.order ** m - 1


def _last(keep):
    """Largest k >= 0 with keep(k), for keep decreasing in k; -1 if none."""
    k = -1
    while keep(k + 1):
        k += 1
    return k


class ClassSumTable:
    """Infinity-adic class sums for one P, certified to depth `depth`:
    the Laurent data below carries every coefficient of T^{-j}, j <=
    depth.  rows[n][sigma] covers units sigma for every degree n whose
    block valuation is at most depth (rows past n_full vanish to this
    precision); class 0 is derived from the full zeta blocks (a = P*b),
    kept for deg L_m <= depth."""

    def __init__(self, P, depth):
        Fq = P.field
        q = Fq.order
        d = int(P.degree)
        self.P = P
        self.depth = depth
        self.prec = depth + 1
        self.F = residue_field(P)
        self.n_full = _last(lambda n: inf_block_valuation(q, d, n) <= depth)
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

        # zeta blocks: all monic a of degree m, valuation deg L_m
        self.full = []
        for m in range(_last(lambda m: deg_L(q, m) <= depth) + 1):
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
    """P-adic class sums mod P^N over unit classes, blocks n <= n_max,
    the last degree whose block valuation is below N, plus
    `extra_blocks` validation blocks past the cut, which the closed form
    says vanish mod P^N."""

    def __init__(self, P, N, extra_blocks=0):
        Fq = P.field
        q = Fq.order
        d = int(P.degree)
        self.P = P
        self.N = N
        self.ctx = PadicContext(P, N)
        self.F = residue_field(P)
        self.n_max = _last(lambda n: padic_block_valuation(Fq, d, n) < N)
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
        """Enumerated check that the extra blocks past the cut vanish."""
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
    (1 - chi(f)/f)^{-1} over F tensor k_inf, certified to T^{-prec}.

    chi(f) is chi at the residue of f; for the trivial character the
    power convention chi(0) = 1 keeps the factor at P itself, matching
    the inclusive series convention of l_inf.

    Each factor is f / (f - c), c = chi(f): the product is prod f over
    prod (f - c), one inverse per character.  f and f - c are exact and
    monic, entered with val -deg f and prec prec - deg f; products keep
    that relative window of prec, so the monic quotient has val 0 and a
    certified prec.  Every nontrivial chi skips exactly f = P, so prod_{f
    != P} f is built once per window and P joins it for the trivial chi.
    """
    F = cyc.F

    def numerator():
        num = LaurentSeries.const(F, 1, prec)
        for f in cyc.irreducibles(max_deg_f):
            if f != cyc.P:
                num = num * _monic_window(F, f, 0, prec)
        return num
    num = cyc.memo(("euler_numerator", max_deg_f, prec), numerator)
    den = LaurentSeries.const(F, 1, prec)
    for f in cyc.irreducibles(max_deg_f):
        c = chi(f.evaluate(F.theta, target=F))
        if c == 0:
            continue
        if f == cyc.P:
            num = num * _monic_window(F, f, 0, prec)
        den = den * _monic_window(F, f, c, prec)
    return (num * den.inv()).truncate(prec)


def _monic_window(F, f, c, prec):
    """f - c for monic f in A, c in F, as a Laurent series of val -deg f
    carrying `prec` coefficients."""
    deg = int(f.degree)
    cs = list(reversed(f.coeffs))
    cs[deg] = F.sub(cs[deg], c)
    return LaurentSeries(F, -deg, cs, prec - deg)


def l_padic(cyc, chi, table):
    """L_P(1, chi) in A_P mod P^N, Teichmuller-valued character, sum over
    monic a coprime to P; the table's blocks past n_max vanish mod P^N."""
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

    zero, one = Poly.zero(Fq), Poly.one(Fq)
    ident = [[one if k == i else zero for k in range(Lc)] for i in range(Lc)]
    frob = [fold_powers(cyc.rows, [(i * q, one)], zero) for i in range(Lc)]
    sigmas = [(b, cyc.sigma_powers(b)) for b in cyc.units()]
    maxdeg = max(int(r.degree) for images in [frob] + [p for _, p in sigmas]
                 for row in images for r in row if r.coeffs)
    tred = _t_power_rows(f, q * (m - 1) + maxdeg + 1)

    def add_matrix(mat, images, t, w):
        """mat += w * (matrix of lambda^i T^j -> sum_k images[i][k](T)
        lambda^k T^t(j) mod f), basis lambda^i T^j at index i*m + j."""
        for i in range(Lc):
            for j in range(m):
                col = i * m + j
                for k, r in enumerate(images[i]):
                    for e, ce in enumerate(r.coeffs):
                        if ce == 0:
                            continue
                        wc = F.mul(w, ce)
                        for jj, c2 in enumerate(tred[t(j) + e]):
                            if c2:
                                row = mat[k * m + jj]
                                row[col] = F.add(row[col], F.mul(wc, c2))

    # T + tau; tau sends lambda^i T^j to lambda^{iq} T^{jq} (K-leg only,
    # so F-linear)
    op = [[0] * dim for _ in range(dim)]
    add_matrix(op, ident, lambda j: j + 1, 1)
    add_matrix(op, frob, lambda j: j * q, 1)
    # projector e_chi = -sum chi^{-1}(b) sigma_b
    proj = [[0] * dim for _ in range(dim)]
    chi_inv = chi.inv()
    for b, pows in sigmas:
        w = chi_inv(b)
        if w:
            add_matrix(proj, pows, lambda j: j, F.neg(w))

    # image of e_chi: the reduced rows of its transpose; a vector in it
    # has its entries at the pivots as coordinates
    basis = [list(col) for col in zip(*proj)]
    pivots, _ = row_reduce(basis, F)
    basis = basis[:len(pivots)]
    n = len(basis)
    restricted = [[0] * n for _ in range(n)]
    for jcol, bvec in enumerate(basis):
        w = [0] * dim
        for i, x in enumerate(bvec):
            if x:
                for r in range(dim):
                    if op[r][i]:
                        w[r] = F.add(w[r], F.mul(op[r][i], x))
        for irow, (bv, p) in enumerate(zip(basis, pivots)):
            c = w[p]
            restricted[irow][jcol] = c
            if c:
                w = [F.sub(a, F.mul(c, y)) for a, y in zip(w, bv)]
        if any(w):
            raise ArithmeticError("operator does not preserve e_chi image")
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


def _charpoly(mat, F):
    """det(Z*I - mat) as F-coefficient list, constant term first.

    A similarity brings mat to upper Hessenberg form h; the leading
    k x k blocks of Z - h then satisfy p_{k+1} = (Z - h_kk) p_k -
    sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_i.  O(n^3) field operations.
    """
    n = len(mat)
    h = [list(row) for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        for i in range(m + 1, n):
            u = F.div(h[i][m - 1], h[m][m - 1])
            if u:
                # row_i -= u row_m, then column_m += u column_i
                h[i] = [F.sub(a, F.mul(u, b)) for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = F.add(row[m], F.mul(u, row[i]))
    p = [[1]]
    for k in range(n):
        nxt = [0] + p[k]
        for j, c in enumerate(p[k]):
            nxt[j] = F.sub(nxt[j], F.mul(h[k][k], c))
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = F.mul(sub, h[i + 1][i])
            if not sub:
                break
            w = F.mul(h[i][k], sub)
            for j, c in enumerate(p[i]):
                nxt[j] = F.sub(nxt[j], F.mul(w, c))
        p.append(nxt)
    return p[n]
