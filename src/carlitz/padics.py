"""P-adic completions: A_P mod P^N, and O_{K,P} in its uniformizer model.

An element of A_P mod P^N is a Poly reduced mod P^N (valuation
PadicContext.vP).  The context of one (P, N) owns the powers of P, the
memoised unit inverses and the Teichmuller lifts; the P-adic class sums,
l_padic and the Fitting report work there.

K_P/k_P is totally and tamely ramified of degree L = q^d - 1 (Hayes
1974), so O_{K,P} = F[[mu]] with F = A/PA, its Teichmuller lifts as
constants, and mu^L = -P (Serre, *Local Fields* II 4).  MuRing holds an
element mod P^N as its L N digits in mu:

* T is the root X(u) of P(X) = u = -mu^L with X(0) = theta (Newton's
  method, P'(theta) != 0), so A acts through sparse series in mu;
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

from __future__ import annotations

from .fields import residue_field, residue_rep
from .laurent import LaurentSeries
from .polynomials import Poly, mul_coeffs


class PadicContext:
    """Completion data for a monic irreducible P in F_q[T], default
    working precision N."""

    def __init__(self, P, N):
        self.P = P
        self.N = N
        self.field = P.field
        self.q = P.field.order
        self.d = int(P.degree)
        self._powers = [Poly.one(P.field)]
        while len(self._powers) <= N:
            self._powers.append(self._powers[-1] * P)
        self._unit_invs = {}
        self._teichmuller = {}

    def P_pow(self, k):
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] * self.P)
        return self._powers[k]

    def unit_inv(self, unit, prec):
        """Inverse mod P^prec of a polynomial prime to P: 1/unit(theta) in
        A/PA lifted by Newton's step s <- 2s - unit s^2, each step doubling
        the P-adic digits; memoised for the P-adic class-sum table, its
        only caller (42 calls on 28 keys at (2, T^3+T+1), N 4)."""
        key = (unit, prec)
        if key not in self._unit_invs:
            F = residue_field(self.P)
            u0 = unit.evaluate(F.theta, target=F)
            if not u0:
                raise ArithmeticError("non-unit divisor")
            s, k = residue_rep(self.P, F.inv(u0)), 1
            while k < prec:
                k = min(2 * k, prec)
                s = (s + s - unit * s * s) % self.P_pow(k)
            self._unit_invs[key] = s
        return self._unit_invs[key]

    def reduce(self, poly, prec=None):
        return poly % self.P_pow(self.N if prec is None else prec)

    def vP(self, poly, cap):
        """v_P of a polynomial over F_q, or over F = A/PA under the
        Teichmuller embedding, capped (None when zero or `cap` deep): the
        multiplicity of theta as a root of poly read in F, by synthetic
        division by T - theta.  P is separable, and T - omega(theta) is a
        uniformizer of A_P."""
        if poly.is_zero():
            return None
        F = residue_field(self.P)
        theta, cs = F.theta, poly.coeffs
        for v in range(cap):
            acc, quo = 0, []
            for c in reversed(cs):  # Horner: the last value is poly(theta)
                acc = F.add(F.mul(acc, theta), c)
                quo.append(acc)
            if acc:
                return v
            cs = quo[-2::-1]
        return None

    def teichmuller(self, c):
        """Teichmuller lift to A_P mod P^N of c, an int of residue_field(P):
        the root of x^{q^d} = x congruent to c mod P, by Frobenius
        iteration (N steps suffice at desk scale); memoised."""
        if c not in self._teichmuller:
            y = residue_rep(self.P, c)  # the obvious lift
            for _ in range(self.N + 2):
                z = y
                for _ in range(self.d):
                    z = self.reduce(z.frob_power(self.q))
                if z == y:
                    break
                y = z
            else:
                raise ArithmeticError("Teichmuller iteration did not stabilize")
            self._teichmuller[c] = y
        return self._teichmuller[c]


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

    `ctx` is the PadicContext of (P, N) and `phi` the coefficients [P,i]
    of phi_P.  The tables are built on first use, each for the largest
    precision n asked so far: X^j (j < d n) as u-series of length n, and
    lambda^i (i < L) as mu-series of length L n; `builds` counts builds
    of the lambda table.  Unit inverses are memoised per (divisor, v,
    precision).
    """

    def __init__(self, ctx, phi):
        self.ctx = ctx
        self.phi = phi
        self.L = ctx.q ** ctx.d - 1
        self.F = residue_field(ctx.P)
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
            F, P = self.F, self.ctx.P
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
            for _ in range(1, self.ctx.d * n):
                pows.append(_times(F, pows[-1], X, n))
            self._X, self._n = pows, n
        return self._X

    def _u_series(self, c, n):
        """c(X) mod u^n: the image in A_P = F[[u]] of c in F_q[T] or F[T]
        (coefficients in F are their Teichmuller lifts)."""
        F, X = self.F, self._powers_of_X(n)
        if len(c.coeffs) > len(X):
            Pn = self.ctx.P_pow(n)
            c = c % (Pn if c.field == Pn.field else Poly(c.field, Pn.coeffs))
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
        return _pad(Poly(self.F, x).frob_power(self.ctx.q).coeffs, len(x))

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
        F, q, P = self.F, self.ctx.q, self.ctx.P
        m = -(-n // self.L)  # u-digits that reach mu^n
        b_series = [[0] * (q ** i - 1) + self._mu(
            self._u_series(self.phi[i] // P, m), 1) for i in range(1, self.ctx.d)]
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

    # -- elements --------------------------------------------------------

    def elem(self, coords, prec=None):
        """sum_i c_i lambda^i mod P^prec, c_i in F_q[T] or F[T]."""
        F = self.F
        prec = self.ctx.N if prec is None else prec
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
