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

import operator

from .core import CarlitzTables
from .cyclotomic import CycField, fold_powers, gauss_thakur, sigma_act
from .fields import residue_field, residue_rep
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


def class_blocks(P, n, classes):
    """For each sigma in `classes` (residues mod P), with a0 in A its
    representative of degree < d = deg P, the sum of 1/a over monic a of
    degree n with a = a0 mod P, as an exact pair (num, den) in A: the
    one source both places read (module docstring).

    For n < d the class holds a0 alone when a0 is monic of degree n, and
    nothing otherwise.  For n = d + m, a = a0 + P b with b monic of degree
    m, and the closed form times P^{q^m} / P^{q^m} gives

        num = (-1)^m (D_m/L_m) P^{q^m - 1} = c_0 P^{q^m - 1},
        den = D_m P^{q^m} + sum_i c_i a0^{q^i} P^{q^m - q^i},

    with e_m(x) = sum_i c_i x^{q^i}; a0 = 0 gives (-1)^m / (L_m P).
    """
    Fq = P.field
    m = n - int(P.degree)
    reps = [residue_rep(P, sigma) for sigma in classes]
    if m < 0:
        return [(Poly.one(Fq), a0) if a0.degree == n and a0.is_monic()
                else (Poly.zero(Fq), Poly.one(Fq)) for a0 in reps]
    tab = CarlitzTables(Fq)
    q, c = tab.q, tab.e_coeffs(m)
    pq = [Poly.one(Fq)]  # pq[k] = P^{q^k - 1} = pq[k-1]^q P^{q-1}
    for _ in range(m):
        pq.append(pq[-1].frob_power(q) * P ** (q - 1))
    num, den0 = c[0] * pq[m], tab.D(m) * pq[m] * P
    pairs = []
    for a0 in reps:
        den = den0
        if a0:
            for i, ci in enumerate(c):
                den = den + ci * (a0 * pq[m - i]).frob_power(q ** i)
        pairs.append((num, den))
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
    valuation is below N: each block is num(X(u)) / den(X(u)) for the
    exact pair of class_blocks, which MuRing.expand reduces mod P^N."""

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
                for sigma, (num, den) in zip(units,
                                             class_blocks(self.P, n, units))}

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
    computes the left side honestly from a matrix, leaving the identity
    to be checked by the caller.  Every eigenspace has F-dimension
    exactly m = deg f: |Delta| = L is prime to p, so F tensor O_K/f is
    the sum of the L eigenspaces; for f != P, O_K/f is free of rank one
    over (A/f)[Delta] (normal integral basis) and e_chi cuts out one copy
    of F[T]/f; for f = P, sigma_b is b^k on the k-th piece of the
    lambda-adic filtration of O_K/P = (A/P)[lambda]/(lambda^L), which
    after F tensor carries omega^{k q^i} for i < d, so each character
    occurs d = m times.  The Gauss-Thakur sum tau(chi) (Thakur 1988) lies
    in it, and a tau(chi) = 0 mod f for a in F[T] forces f | a once f is
    prime to the gcd g of its lambda-coordinates, so then the eigenspace
    is (F[T]/f) tau(chi).  tau, the q-power map of the O_K leg, sends
    tau(chi) to r tau(chi) with r in F[T] (_chi_line), so T + tau is a ->
    T a + r a(T^q) mod f on F[T]/f, here on the basis T^j, j < m.
    """
    F, m, q = cyc.F, int(f.degree), cyc.q
    g, r = cyc.memo(("chi_line", chi.n), lambda: _chi_line(cyc, chi))
    f = Poly(F, f.coeffs)  # over F, for gcd and remainders in F[T]
    if g.gcd(f).degree > 0:
        raise ArithmeticError("tau(chi) T^j mod f are not independent: f "
                              "shares a factor with every coordinate")
    cols = [(Poly.monomial(F, 1, j + 1) + r.shift(q * j)) % f
            for j in range(m)]
    return _charpoly([[c.coeff(i) for c in cols] for i in range(m)], F)


def _chi_line(cyc, chi):
    """(g, r) for tau(chi): g the gcd of its lambda-coordinates, and r in
    F[T] with tau(tau(chi)) = r tau(chi), read off one coordinate and
    checked on all L.  tau(chi) is first checked to satisfy sigma_g
    tau(chi) = chi(g) tau(chi) for a generator g of Delta."""
    F, q = cyc.F, cyc.q
    gen = next(b for b in cyc.units() if F.mult_order(b) == cyc.L)
    x = gauss_thakur(chi)
    if sigma_act(cyc, gen, x) != x.scale_coeff(chi(gen)):
        raise ArithmeticError("tau(chi) is not in the chi(g)-eigenspace "
                              "of sigma_g")
    # tau sends c(T) lambda^i to c(T^q) lambda^{iq}: F is fixed
    terms = []
    for i, c in enumerate(x.coords):
        cs = [0] * (q * len(c.coeffs))
        cs[::q] = c.coeffs
        terms.append((q * i, Poly(F, cs)))
    image = fold_powers(cyc.rows, terms, Poly.zero(F))
    lead = next(i for i, c in enumerate(x.coords) if c)
    r, rem = divmod(image[lead], x.coords[lead])
    if rem or any(r * c != t for c, t in zip(x.coords, image)):
        raise ArithmeticError("tau does not preserve the F[T]-line of "
                              "tau(chi)")
    g = Poly.zero(F)
    for c in x.coords:
        g = g.gcd(c)
    return g, r


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
