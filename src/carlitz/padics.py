"""The completion at P: A_P = F[[u]] inside O_{K,P} = F[[mu]].

K_P/k_P is totally and tamely ramified of degree L = q^d - 1 (Hayes
1974), so O_{K,P} = F[[mu]] with F = A/PA, its Teichmuller lifts as
constants, and mu^L = -P (Serre, *Local Fields* II 4).  Inside it A_P
is F[[u]] with u = P = -mu^L, and T is the root X(u) of P(X) = u with
X(0) = theta, so a in F_q[T] or F[T] is the series a(X(u)) (MuRing.expand:
a LaurentSeries read in u, whose valuation is v_P), and the Teichmuller
lift of c in F is the constant c.  The P-adic class sums, l_padic and
the Fitting report work on these u-series; MuRing.to_poly reads one back
as the Poly mod P^N with the same P-adic digits.

MuRing holds an element of O_{K,P} mod P^N as its L N digits in mu:

* X(u) comes from Newton's method (P'(theta) != 0), so A acts through
  sparse series in mu;
* lambda = mu s, where s(0) = 1 and g(s) = phi_P(mu s) / mu^{q^d} =
  s^{q^d} - s - sum_{0<i<d} b_i mu^{q^i-1} s^{q^i} = 0, b_i = [P,i]/P.
  g is F_q-linear with g' = -1, so Newton's step s <- s + g(s)
  multiplies the certified digits by q (psi_P' has valuation L - 1, so
  Newton's method on psi_P itself would stall);
* the q-th power sends a_k mu^k to a_k^q mu^{qk}; dividing by
  a = P^v w shifts down by L v digits and multiplies by the series of
  (-1)^v / w; v_m is the index of the first nonzero digit.

Both lifts are certified to full length (P(X) = u; g(s) = 0, that is
psi_P(lambda) = 0 mod mu^{L+n}) or raise ArithmeticError.  The tables
are built on the first element that needs them, for the largest
precision asked so far.
"""

from .fields import residue_field, residue_rep
from .laurent import LaurentSeries
from .polynomials import Poly, mul_coeffs


def _pad(xs, n):
    """xs cut or padded with zeros to length n, as a new list."""
    return list(xs[:n]) + [0] * (n - len(xs))


def _times(F, a, b, n):
    """The first n digits of a product of series; mul_coeffs's loop skips
    the zero digits of a, so a sparse factor goes first."""
    return _pad(mul_coeffs(F, a, b, n), n)


def _poly_at(F, coeffs, X, n):
    """coeffs (constant first, in F) at the series X, mod u^n."""
    acc = [0] * n
    for c in reversed(coeffs):
        acc = _times(F, acc, X, n)
        acc[0] = F.add(acc[0], c)
    return acc


class MuRing:
    """O_{K,P} mod P^N as F[[mu]] mod mu^{L N} (module docstring).

    P is monic irreducible over F_q, N the default precision and `phi`
    the coefficients [P,i] of phi_P.  The tables are built on first use,
    each for the largest precision n asked so far: X^j (j < d n) as
    u-series of length n, and lambda^i (i < L) as mu-series of length
    L n; `builds` counts builds of the lambda table.  Unit inverses are
    memoised per (divisor, v, precision).
    """

    def __init__(self, P, N, phi):
        self.P, self.N, self.phi = P, N, phi
        self.q, self.d = P.field.order, int(P.degree)
        self.L = self.q ** self.d - 1
        self.F = residue_field(P)
        self._X = []             # X^j mod u^n, j < d n, for n = self._n
        self._n = 0
        self._lam = []           # lambda^i mod mu^{L n}, for n = self._lam_prec
        self._lam_prec = 0
        self._unit_series = {}
        self.builds = 0

    # -- tables ----------------------------------------------------------

    def _powers_of_X(self, n):
        """X^j mod u^n for j < d n; X by Newton's method from theta, each
        step doubling the digits, then P(X) = u certified to n digits."""
        if n > self._n:
            F, P = self.F, self.P
            dP = [F.mul(i % F.p, c) for i, c in enumerate(P.coeffs)][1:]
            X, k = [F.theta], 1
            while k < n:
                k = min(2 * k, n)
                val = _poly_at(F, P.coeffs, X, k)
                val[1] = F.sub(val[1], 1)  # P(X) - u
                inv = LaurentSeries(F, 0, _poly_at(F, dP, X, k), k).inv()
                X = list(map(F.sub, _pad(X, k), _times(F, val, inv.coeffs, k)))
            if _poly_at(F, P.coeffs, X, n) != _pad([0, 1], n):
                raise ArithmeticError("X(u) fails P(X) = u mod u^%d" % n)
            pows = [_pad([1], n)]
            for _ in range(1, self.d * n):
                pows.append(_times(F, pows[-1], X, n))
            self._X, self._n = pows, n
        return self._X

    def _u_series(self, c, n):
        """c(X) mod u^n: the image in A_P = F[[u]] of c in F_q[T] or F[T]
        (coefficients in F are their Teichmuller lifts)."""
        F, X = self.F, self._powers_of_X(n)
        if len(c.coeffs) > len(X):
            c = c % Poly(c.field, (self.P ** n).coeffs)
        out = [0] * n
        for cj, xj in zip(c.coeffs, X):
            if cj:
                out = list(map(F.add, out, [F.mul(cj, a) for a in xj[:n]]))
        return out

    def _mu(self, series, sign=0):
        """(-1)^sign times a series in u = -mu^L, as L len(series) digits."""
        F, L = self.F, self.L
        out = [0] * (L * len(series))
        out[::L] = [F.neg(a) if (k + sign) % 2 else a
                    for k, a in enumerate(series)]
        return out

    def _sparse(self, a, prec):
        """The mu-series of a in A, mod mu^{L prec}."""
        return self._mu(self._u_series(a, prec))

    def _div_series(self, a, v, prec):
        """The mu-series of P^v / a mod mu^{L prec}, for a in A with
        v_P(a) = v; memoised, since exp and log divide by the same few D_i
        and L_i over and over."""
        key = (a, v, prec)
        if key not in self._unit_series:
            ahat = self._u_series(a, prec + v)
            if any(ahat[:v]) or not ahat[v]:
                raise ArithmeticError("v_P of the divisor is not %d" % v)
            inv = LaurentSeries(self.F, 0, ahat[v:], prec).inv()
            # P^v = (-mu^L)^v
            self._unit_series[key] = self._mu(_pad(inv.coeffs, prec), v)
        return self._unit_series[key]

    def _frobq(self, x):
        """The q-th power: a_k mu^k -> a_k^q mu^{qk}, cut to len(x)."""
        return _pad(Poly(self.F, x).frob_power(self.q).coeffs, len(x))

    def _g(self, s, b_series):
        """g(s) mod mu^len(s) (module docstring); b_series holds the
        mu-series of -b_i mu^{q^i - 1}, 0 < i < d."""
        F, n = self.F, len(s)
        out, fr = [F.neg(a) for a in s], s
        for b in b_series:
            fr = self._frobq(fr)
            out = list(map(F.add, out, _times(F, b, fr, n)))
        return list(map(F.add, out, self._frobq(fr)))

    def _solve_s(self, n):
        """s mod mu^n with g(s) = 0 and s(0) = 1, certified."""
        F, q, P = self.F, self.q, self.P
        m = -(-n // self.L)  # u-digits that reach mu^n
        b_series = [[0] * (q ** i - 1) + self._mu(
            self._u_series(self.phi[i] // P, m), 1) for i in range(1, self.d)]
        s, k = [1], 1
        while k < n:
            k = min(q * k, n)
            s = _pad(s, k)
            s = list(map(F.add, s, self._g(s, b_series)))
        s = _pad(s, n)
        if any(self._g(s, b_series)):
            raise ArithmeticError("lambda(mu) fails psi_P(lambda) = 0 mod "
                                  "mu^%d" % (self.L + n))
        return s

    def _lambda_powers(self, prec):
        """lambda^i mod mu^{L prec} for i < L."""
        if prec > self._lam_prec:
            F, n = self.F, self.L * prec
            lam = [0] + self._solve_s(n)[:n - 1]
            pows = [_pad([1], n)]
            for _ in range(1, self.L):
                pows.append(_times(F, lam, pows[-1], n))
            self._lam, self._lam_prec = pows, prec
            self.builds += 1
        return self._lam

    # -- A_P = F[[u]] -----------------------------------------------------

    def expand(self, a):
        """a(X(u)) mod u^N as a LaurentSeries in u, for a in F_q[T] or
        F[T]: its valuation is v_P(a)."""
        return LaurentSeries(self.F, 0, self._u_series(a, self.N), self.N)

    def to_poly(self, s):
        """The Poly over F_q of degree < d n equal to the u-series s mod
        P^n, n = s.prec: the P-adic digits r_k = residue_rep(P, digit k),
        each subtracted as r_k(X(u)) before the next digit is read."""
        F, n = self.F, s.prec
        rest, digits = _pad([0] * s.val + s.coeffs, n), []
        for k in range(n):
            digits.append(residue_rep(self.P, rest[0]))
            rest = list(map(F.sub, rest, self._u_series(digits[-1], n - k)))[1:]
        acc = Poly.zero(self.P.field)
        for r in reversed(digits):
            acc = acc * self.P + r
        return acc

    def in_mu(self, s):
        """The mu-digits of the u-series s, L s.prec of them."""
        return self._mu(_pad([0] * s.val + s.coeffs, s.prec))

    # -- elements --------------------------------------------------------

    def elem(self, coords, prec=None):
        """sum_i c_i lambda^i mod P^prec, c_i in F_q[T] or F[T]."""
        F = self.F
        prec = self.N if prec is None else prec
        out = [0] * (self.L * prec)
        for c, pw in zip(coords, self._lambda_powers(prec)):
            if not c.is_zero():
                out = list(map(F.add, out, _times(F, self._sparse(c, prec),
                                                  pw, len(out))))
        return MuElem(self, out, prec)


class MuElem:
    """An element of O_{K,P} mod P^prec: its L prec digits in mu."""

    __slots__ = ("ring", "digits", "prec")

    def __init__(self, ring, digits, prec):
        self.ring = ring
        self.digits = digits
        self.prec = prec

    def vm(self):
        """Valuation in the maximal-ideal filtration (mu^L = -P); None
        when zero to precision."""
        return next((k for k, a in enumerate(self.digits) if a), None)

    def mprec(self):
        return len(self.digits)

    def _with(self, digits, prec=None):
        return MuElem(self.ring, digits, self.prec if prec is None else prec)

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        n = self.ring.L * prec
        return self._with(list(map(self.ring.F.add, self.digits[:n],
                                   other.digits[:n])), prec)

    def __neg__(self):
        return self._with(list(map(self.ring.F.neg, self.digits)))

    def __mul__(self, other):
        prec = min(self.prec, other.prec)
        n = self.ring.L * prec
        return self._with(_times(self.ring.F, self.digits, other.digits, n),
                          prec)

    def mul_scalar_poly(self, a):
        """Multiply by an exact element of A."""
        ring = self.ring
        return self._with(_times(ring.F, ring._sparse(a, self.prec),
                                 self.digits, len(self.digits)))

    def frobq(self):
        return self._with(self.ring._frobq(self.digits))

    def div_scalar_poly(self, a, v):
        """Divide by an exact nonzero a in A with v_P(a) = v (from
        CarlitzTables): the low L v digits must vanish, and precision
        drops by v."""
        ring = self.ring
        prec = self.prec - v
        if prec <= 0:
            raise ZeroDivisionError("precision exhausted by division")
        cut = ring.L * v
        if any(self.digits[:cut]):
            raise ZeroDivisionError("element not divisible by P^%d" % v)
        return self._with(_times(ring.F, ring._div_series(a, v, prec),
                                 self.digits[cut:], ring.L * prec), prec)

    def widen(self, prec):
        """The same representative, read mod P^prec (prec >= self.prec)."""
        return self._with(_pad(self.digits, self.ring.L * prec), prec)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return self._with(self.digits[:self.ring.L * prec], prec)

    def first_difference(self, other):
        """Index of the first mu-digit where the two disagree within both
        precisions; None when they agree."""
        return next((k for k, (a, b) in enumerate(zip(self.digits, other.digits))
                     if a != b), None)

    def agrees_with(self, other):
        return self.first_difference(other) is None

    def __repr__(self):
        return "MuElem(%r, prec=%d)" % (self.digits, self.prec)
