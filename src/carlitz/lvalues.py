"""Special L-values at s = 1, infinity-adically and P-adically.

The workhorse is the class-sum table: for each degree n and residue
class sigma mod P, the sum of 1/a over monic a of degree n in the class.

Every block is computed from Carlitz's closed form for these sums
(Carlitz 1935; Goss, Basic Structures of Function Field Arithmetic,
section 3.1); enumerating monic polynomials survives only as a test
oracle.  Write n = d + m.  The sum of 1/a over monic a of degree n with
a = a0 mod P is (1/P) (-1)^m (D_m/L_m) / (D_m + e_m(a0/P)), where e_m(x)
= prod over b in A of degree < m of (x - b).  class_blocks returns it as
an exact pair (num, den) in A, for class 0 too, and both places read
that pair as one quotient of series over F = A/PA: at infinity in 1/T,
in a window of the width the block's valuation leaves; at P in u = P,
num(X(u)) / den(X(u)) mod u^N (padics.MuRing.expand), den a unit.  So
L(1, chi) at either place is sum_sigma chi(sigma) T_sigma over the
classes of its table, with scalars in F.

The same form certifies where each table stops.  Every nonzero block
has an exact valuation:

- at infinity, d + deg L_m with deg L_m = q (q^m - 1) / (q - 1), since
  e_m(a0/P) has lower degree than D_m; the full zeta block over all
  monic a of degree m is (-1)^m / L_m, of valuation deg L_m;
- at P, v_P(D_m) - v_P(L_m) + q^m - 1: clearing P^{q^m} leaves a
  denominator congruent to a0^{q^m} mod P, a unit.

Blocks of degree n < d hold one monic polynomial each, of valuation n
at infinity and 0 at P.  Both valuations grow with n, so each table
stops at the last degree whose valuation still reaches its window.

The Euler product groups the primes f by residue r mod P: with c = chi(r),
prod_{f = r} (1 - c/f) = sum_k (-c)^k e_k(1/f : f = r), e_k elementary
symmetric.  v(1/f) = deg f >= 1 gives v(e_k) >= k, so a window of prec
digits needs only k < prec and deg f < prec, and one e_k table over F_q
serves every character.
"""

from __future__ import annotations

import operator

from .core import CarlitzTables
from .cyclotomic import CycField, fold_powers, gauss_thakur, sigma_act
from .fields import residue_field, residue_rep, row_reduce
from .laurent import LaurentSeries, inv_coeffs
from .polynomials import Poly, mul_coeffs


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


def class_blocks(P, n, classes, modulus=None):
    """For each sigma in `classes` (residues mod P), with a0 in A its
    representative of degree < d = deg P, the sum of 1/a over monic a of
    degree n with a = a0 mod P, as a pair (num, den) in A.

    For n < d the class holds a0 alone when a0 is monic of degree n, and
    nothing otherwise.  For n = d + m, a = a0 + P b with b monic of degree
    m, and the closed form times P^{q^m} / P^{q^m} gives

        num = (-1)^m (D_m/L_m) P^{q^m - 1} = c_0 P^{q^m - 1},
        den = D_m P^{q^m} + sum_i c_i a0^{q^i} P^{q^m - q^i},

    with e_m(x) = sum_i c_i x^{q^i}; a0 = 0 gives (-1)^m / (L_m P).  With
    `modulus`, factors are reduced by it before they are raised to
    powers, and the pairs hold mod `modulus` only.
    """
    Fq = P.field
    m = n - int(P.degree)
    reps = [residue_rep(P, sigma) for sigma in classes]
    if m < 0:
        return [(Poly.one(Fq), a0) if a0.degree == n and a0.is_monic()
                else (Poly.zero(Fq), Poly.one(Fq)) for a0 in reps]
    tab = CarlitzTables(Fq)
    q, c = tab.q, tab.e_coeffs(m)

    def red(f):
        return f if modulus is None else f % modulus
    pq = [Poly.one(Fq)]  # pq[k] = P^{q^k - 1} = pq[k-1]^q P^{q-1}
    for _ in range(m):
        pq.append(red(pq[-1].frob_power(q) * P ** (q - 1)))
    num, den0 = red(c[0] * pq[m]), red(tab.D(m) * pq[m] * P)
    pairs = []
    for a0 in reps:
        den = den0
        if a0:
            for i, ci in enumerate(c):
                den = den + ci * red(a0 * pq[m - i]).frob_power(q ** i)
        pairs.append((num, red(den)))
    return pairs


class ClassSumTable:
    """Infinity-adic class sums for one P, certified to depth `depth`:
    class_total(sigma) carries every coefficient of T^{-j}, j <= depth, of
    the sum of 1/a over all monic a = sigma mod P, class 0 included.
    Each block comes from the closed form; blocks past n_full, the last
    degree whose block valuation is at most depth, vanish to this
    precision."""

    def __init__(self, P, depth):
        q = P.field.order
        self.P = P
        self.depth = depth
        self.prec = depth + 1
        self.n_full = _last(
            lambda n: inf_block_valuation(q, int(P.degree), n) <= depth)
        self.totals = dict.fromkeys(residue_field(P).elements(),
                                    LaurentSeries.zero(P.field, self.prec))
        for n in range(self.n_full + 1):
            for sigma, s in self.blocks(n).items():
                self.totals[sigma] = self.totals[sigma] + s

    def blocks(self, n):
        """sigma -> the class block of degree n at sigma, to the table's
        precision: num and den enter as windows of the width the block's
        valuation leaves, so one inverse certifies each."""
        Fq = self.P.field
        classes = residue_field(self.P).elements()
        zero = LaurentSeries.zero(Fq, self.prec)
        w = self.prec - inf_block_valuation(Fq.order, int(self.P.degree), n)
        if w <= 0:
            return dict.fromkeys(classes, zero)
        pairs = class_blocks(self.P, n, classes)
        return {sigma: LaurentSeries.from_poly(num, w - int(num.degree))
                * LaurentSeries.from_poly(den, w - int(den.degree)).inv()
                if num else zero
                for sigma, (num, den) in zip(classes, pairs)}

    def class_total(self, sigma):
        """Sum over all degrees of the class sums at sigma."""
        return self.totals[sigma]


class PadicClassSumTable:
    """P-adic class sums over unit classes as u-series mod u^N in A_P =
    F[[u]] (padics.MuRing; the ring is the one of CycField(P) at N), from
    the closed form for blocks n <= n_max, the last degree whose block
    valuation is below N."""

    def __init__(self, P, N):
        self.P = P
        self.N = self.prec = N
        self.ring = CycField(P).padic_ring(N)
        self.n_max = _last(
            lambda n: padic_block_valuation(P.field, int(P.degree), n) < N)
        self.totals = dict.fromkeys(residue_field(P).units(),
                                    LaurentSeries.zero(self.ring.F, N))
        for n in range(self.n_max + 1):
            for sigma, s in self.blocks(n).items():
                self.totals[sigma] = self.totals[sigma] + s

    def blocks(self, n):
        """Unit sigma -> the class block of degree n at sigma, mod u^N."""
        units = residue_field(self.P).units()
        at_P = self.ring.expand
        return {sigma: at_P(num) * at_P(den).inv() if num
                else LaurentSeries.zero(self.ring.F, self.N)
                for sigma, (num, den) in zip(
                    units, class_blocks(self.P, n, units, self.P ** self.N))}

    def class_total(self, sigma):
        """Sum over all degrees of the class sums at a unit sigma."""
        return self.totals[sigma]


# -- L-values ---------------------------------------------------------------------


def l_inf(cyc, chi, table):
    """L(1, chi) as a Laurent series over F, certified to the table's
    depth.  Trivial chi uses the inclusive convention: the sum runs over
    all monic a, the PA part contributing (1/P) * zeta block."""
    return _character_sum(cyc.F, chi, table)


def l_padic(cyc, chi, table):
    """L_P(1, chi) as a u-series over F mod u^N (module docstring): the
    sum over monic a prime to P, chi valued in the Teichmuller lifts,
    which are constants of F[[u]]; the table's blocks past n_max vanish
    mod P^N."""
    return _character_sum(cyc.F, chi, table)


def _character_sum(F, chi, table):
    """sum_sigma chi(sigma) T_sigma over the classes of the table."""
    acc = LaurentSeries.zero(F, table.prec)
    for sigma, s in table.totals.items():
        c = chi(sigma)  # chi(0) is 1 for trivial chi only
        if c and not s.is_zero():
            acc = acc + s.map_coeffs(F, lambda x: x).scale(c)
    return acc


def euler_product(cyc, chi, max_deg_f, prec):
    """prod over monic irreducible f of deg <= max_deg_f of
    (1 - chi(f)/f)^{-1} over F tensor k_inf, certified to T^{-prec}.

    chi(f) is chi at the residue of f; for the trivial character the
    power convention chi(0) = 1 keeps the factor at P itself, matching
    the inclusive series convention of l_inf.

    With c = chi(r) for the primes f = r mod P, prod_{f = r} (1 - c/f) =
    sum_k (-c)^k E_{r,k}, E_{r,k} = e_k(1/f : f = r).  v(1/f) = deg f >= 1
    gives v(E_{r,k}) >= k, so only k < prec and deg f < prec reach the
    window.  The chi-free E_{r,k} are built once per window: a character
    multiplies at most L + 1 class factors of val 0 and inverts once.
    """
    F = cyc.F
    table = cyc.memo(("euler_symmetric", max_deg_f, prec),
                     lambda: _class_symmetric(cyc, max_deg_f, prec))
    acc = LaurentSeries.const(F, 1, prec)
    for r, sym in table.items():
        c = chi(r)  # chi(0) is 1 for trivial chi only
        if c:
            cs, ck = [0] * prec, 1
            for e in sym:
                for n, a in enumerate(e.coeffs, e.val):
                    cs[n] = F.add(cs[n], F.mul(ck, a))
                ck = F.mul(ck, F.neg(c))
            acc = acc * LaurentSeries(F, 0, cs, prec)
    return acc.inv()


def _class_symmetric(cyc, max_deg_f, prec):
    """Residue r mod P -> [E_{r,0}, ..., E_{r,prec-1}] over F_q to T^{-prec},
    E_{r,k} = e_k(1/f : f = r) over the monic irreducible f = r of degree
    m < min(prec, max_deg_f + 1).

    The work is on coefficient lists: E_{r,k} holds its digits of T^{-n}
    for k <= n < prec.  The digits of 1/f from T^{-m} on come from the
    top prec - m coefficients of f (inv_coeffs), and a factor 1 + t x,
    x of valuation m, makes E_k += x E_{k-1} one product of lists cut
    to the window, landing m - 1 digits into E_k.  A product of two 1/f
    with 2m >= prec is past the window, so those primes enter as one
    factor per class and degree, x the sum of their 1/f.  Each E_{r,k}
    becomes a LaurentSeries once, at the end.
    """
    Fq = cyc.Fq
    add = Fq.add
    residue = _residues(cyc, prec - 1)
    lists, sums = {}, {}

    def times(e, x, m):
        for k in range(prec - m, 0, -1):
            dst = e[k]
            for n, c in enumerate(mul_coeffs(Fq, x, e[k - 1],
                                             prec - m - k + 1), m - 1):
                if c:
                    dst[n] = add(dst[n], c)
    for f in cyc.irreducibles(min(max_deg_f, prec - 1)):
        r = residue(f)
        if r not in lists:
            lists[r] = [[1]] + [[0] * (prec - k) for k in range(1, prec)]
        m = int(f.degree)
        x = inv_coeffs(Fq, f.coeffs[::-1], prec - m)
        if 2 * m < prec:
            times(lists[r], x, m)
        elif (r, m) in sums:
            sums[r, m] = [add(a, b) for a, b in zip(sums[r, m], x)]
        else:
            sums[r, m] = x
    for (r, m), x in sums.items():
        times(lists[r], x, m)
    return {r: [LaurentSeries(Fq, k, cs, prec) for k, cs in enumerate(e)]
            for r, e in lists.items()}


def _residues(cyc, top):
    """f -> f mod P in F = A/PA, for f of degree <= top: the sum of the
    f_n theta^n.  Over a prime F_q digit j of it is the sum of f_n times
    digit j of theta^n, mod q: theta^n's digits sit in int slots wide
    enough for any such sum, so one sum of int products gives them all."""
    F, q = cyc.F, cyc.q
    if cyc.Fq.base is not None:
        return lambda f: f.evaluate(F.theta, target=F)
    bits = ((top + 1) * (q - 1) ** 2).bit_length()
    mask = (1 << bits) - 1
    cols = [sum(c << bits * j
                for j, c in enumerate(F.digits(F.pow(F.theta, n))))
            for n in range(top + 1)]

    def residue(f):
        s = sum(map(operator.mul, f.coeffs, cols))
        return sum((s >> bits * j & mask) % q * q ** j for j in range(cyc.d))
    return residue


def euler_factor_charpoly(cyc, chi, f):
    """Characteristic polynomial of T + tau on e_chi(F tensor O_K/f O_K)
    as a list of F-coefficients (constant first).

    The module identity says this equals f(Z) - chi(f); the function
    computes the left side honestly from matrices, leaving the identity
    to be checked by the caller.  The m = deg f vectors v_j = tau(chi) T^j
    mod f lie in the chi-eigenspace: the Gauss-Thakur sum tau(chi)
    (Thakur 1988) is checked once per chi to satisfy sigma_g tau(chi) =
    chi(g) tau(chi) for a generator g of Delta.  m independent ones span
    it, as every eigenspace has F-dimension exactly m: |Delta| = L is
    prime to p, so F tensor O_K/f is the sum of the L eigenspaces; for f
    != P, O_K/f is free of rank one over (A/f)[Delta] (normal integral
    basis) and e_chi cuts out one copy of F[T]/f; for f = P, sigma_b is
    b^k on the k-th piece of the lambda-adic filtration of O_K/P =
    (A/P)[lambda]/(lambda^L), which after F tensor carries omega^{k q^i}
    for i < d, so each character occurs d = m times.  One reduction of
    [v | (T + tau) v] shows the v_j independent and their images in their
    span (pivots 0..m-1); its top-right m x m block is the restricted
    operator.
    """
    F, m = cyc.F, int(f.degree)
    tau = cyc.memo(("chi_eigenvector", chi.n), lambda: _eigenvector(cyc, chi))
    op = cyc.memo(("charpoly_ops", f), lambda: _charpoly_ops(cyc, f))
    # v_{j+1} = T v_j mod f: one companion step in each lambda-block
    pows = _t_powers(cyc, f, max(len(c.coeffs) for c in tau.coords))
    basis = [_vector(tau.coords, 0, pows, F)]
    for _ in range(1, m):
        v = basis[-1]
        basis.append([c for i in range(0, len(v), m)
                      for c in _times_T(v[i:i + m], f, F)])
    rows = [list(r) for r in zip(*basis, *(_apply(op, v, F) for v in basis))]
    if row_reduce(rows, F)[0] != list(range(m)):
        raise ArithmeticError("T + tau does not preserve an m-dimensional "
                              "span of tau(chi) T^j mod f")
    return _charpoly([row[m:] for row in rows[:m]], F)


def _eigenvector(cyc, chi):
    """tau(chi), checked to satisfy sigma_g tau(chi) = chi(g) tau(chi) for
    a generator g of Delta."""
    g = next(b for b in cyc.units() if cyc.F.mult_order(b) == cyc.L)
    tau = gauss_thakur(chi)
    if sigma_act(cyc, g, tau) != tau.scale_coeff(chi(g)):
        raise ArithmeticError("tau(chi) is not in the chi(g)-eigenspace "
                              "of sigma_g")
    return tau


def _charpoly_ops(cyc, f):
    """The matrix over F of T + tau on F tensor O_K/f O_K, on the basis of
    _vector, as sparse rows (_apply)."""
    q, m, Fq = cyc.q, int(f.degree), cyc.Fq
    op = []
    for i in range(cyc.L):
        # tau sends lambda^i T^j to lambda^{iq} T^{jq} (K-leg only, so
        # F-linear); the coordinates of lambda^{iq} serve every f
        frob = cyc.memo(("lambda_power", i * q), lambda: fold_powers(
            cyc.rows, [(i * q, Poly.one(Fq))], Poly.zero(Fq)))
        # T^{jq} frob for j < m, and T^{j+1} up to T^m
        pows = _t_powers(cyc, f, q * m + max(len(c.coeffs) for c in frob))
        for j in range(m):
            col = _vector(frob, j * q, pows, Fq)
            col[i * m:(i + 1) * m] = [Fq.add(a, b) for a, b in zip(
                col[i * m:(i + 1) * m], pows[j + 1])]
            op.append(col)
    # the list holds columns; transpose to sparse rows
    return [[(k, a) for k, a in enumerate(r) if a] for r in zip(*op)]


def _t_powers(cyc, f, n):
    """T^k mod f for k < n (at least), each as its deg f digits over F_q,
    constant first: one table per f on cyc, grown by companion steps."""
    pows = cyc.memo(("t_powers", f), lambda: [[1] + [0] * (int(f.degree) - 1)])
    while len(pows) < n:
        pows.append(_times_T(pows[-1], f, cyc.Fq))
    return pows


def _times_T(v, f, F):
    """T v mod f for the digits v of a residue mod f, f monic over F_q."""
    top = v[-1]
    out = [0] + v[:-1]
    if top:
        out = [F.sub(a, F.mul(top, c)) for a, c in zip(out, f.coeffs)]
    return out


def _vector(coords, e, pows, F):
    """(sum_k coords[k] lambda^k) T^e mod f on the basis lambda^i T^j at
    index i*m + j (m = deg f): each coords[k], a Poly over F, is a linear
    combination of the rows pows[n] = T^n mod f (_t_powers).  F_q sits in
    F with the same int encoding."""
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


def _apply(mat, v, F):
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
