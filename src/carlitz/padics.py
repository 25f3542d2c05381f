"""P-adic completions: A_P arithmetic mod P^N and the completed
cyclotomic ring A_P[lambda], plus the lambda-power coordinate folds
shared by every polynomial coefficient ring: A, F[T] and A_P.

An element of A_P mod P^N is a Poly reduced mod P^N; its valuation is
PadicContext.vP(value, N).  The context of one (P, N) owns the powers
of P, the memoised unit inverses (Newton lifts) and Teichmuller lifts.
PadicCycElem is a coordinate vector over the lambda-power basis with a
shared coordinate precision; divisions by elements of A record exactly
how much certainty they burn, and its natural filtration valuation v_m
(m the maximal ideal, m^{q^d - 1} = P) is exact because the coordinate
contributions occupy distinct residues mod q^d - 1.
"""

from __future__ import annotations

from .fields import residue_field, residue_rep
from .polynomials import Poly


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
        the P-adic digits; memoised, since exp and log divide by the same
        few D_i and L_i over and over."""
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
        """v_P of an exact polynomial, capped (None when zero/`cap` deep)."""
        if poly.is_zero():
            return None
        v = 0
        while v < cap:
            q, r = divmod(poly, self.P)
            if not r.is_zero():
                return v
            poly = q
            v += 1
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


def embed_poly_to_padic(p, ctx):
    """Image in A_P mod P^N of an element of F[T] (or of A itself): the
    variable stays T and each coefficient, an int of F_q or of
    residue_field(P), goes to its Teichmuller lift."""
    t = Poly.x(ctx.field)
    acc = Poly.zero(ctx.field)
    for c in reversed(p.coeffs):
        acc = ctx.reduce(acc * t + ctx.teichmuller(c))
    return acc


def lambda_power_rows(psi):
    """Exact coordinates over A of lambda^k for k = L .. max(2L - 2,
    q(L - 1)), lambda a root of psi (monic of degree L, coefficients in
    A, constant term first): enough to reduce products and q-th powers
    of reduced elements back to the basis lambda^0 .. lambda^{L-1}."""
    L = len(psi) - 1
    zero = Poly.zero(psi[-1].field)
    hi = max(2 * L - 2, psi[-1].field.order * (L - 1))
    # lambda^L = -(psi - X^L)(lambda)
    neg_tail = [-c for c in psi[:-1]]
    cur = list(neg_tail)
    rows = [tuple(cur)]
    for _ in range(L + 1, hi + 1):
        nxt = [zero] + cur[:-1]
        top = cur[-1]
        if not top.is_zero():
            nxt = [a + top * b for a, b in zip(nxt, neg_tail)]
        cur = nxt
        rows.append(tuple(cur))
    return rows


# -- lambda-power coordinates over any coefficient ring ----------------------
#
# Coordinates are lists of length L = len(rows[0]) of Polys over A, A_P or
# F[T], F = A/PA; `zero` is the ring's zero.  Row entries lie in A, and F
# holds F_q as ints < q, so a coordinate times a row entry is a plain
# Poly product over the coordinate's field.


def fold_powers(rows, terms, zero):
    """Coordinates of sum c * lambda^k over the (k, c) pairs in `terms`,
    k < L + len(rows): lambda^k for k >= L folds back along its row."""
    L = len(rows[0])
    out = [zero] * L
    for k, c in terms:
        if c.is_zero():
            continue
        if k < L:
            out[k] = out[k] + c
            continue
        for j, r in enumerate(rows[k - L]):
            if not r.is_zero():
                out[j] = out[j] + c * r
    return out


def mul_coords(rows, u, v, zero):
    """Coordinates of the product of two reduced elements."""
    conv = [zero] * (2 * len(u) - 1)
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if not b.is_zero():
                conv[i + j] = conv[i + j] + a * b
    return fold_powers(rows, enumerate(conv), zero)


def frob_coords(rows, u, q, zero):
    """Coordinates of the q-th power of a reduced element: in
    characteristic p it sends c * lambda^i to c^q * lambda^{qi}."""
    return fold_powers(rows, ((q * i, c.frob_power(q))
                              for i, c in enumerate(u) if not c.is_zero()),
                       zero)


class CycPadicRing:
    """O_{K,P} = A_P[lambda] with lambda-power basis coordinates.

    `rows` are the exact reductions of lambda^k, k >= L, from
    lambda_power_rows; kept exact so that callers may run the ring at
    padded precision beyond ctx.N.
    """

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = rows
        self.L = len(rows[0])

    def elem(self, coords, prec=None):
        prec = self.ctx.N if prec is None else prec
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self, tuple(c % m for c in coords), prec)

    def zero(self, prec=None):
        return self.elem([Poly.zero(self.ctx.field)] * self.L, prec)


class PadicCycElem:
    __slots__ = ("ring", "coords", "prec")

    def __init__(self, ring, coords, prec):
        self.ring = ring
        self.coords = coords
        self.prec = prec

    @property
    def ctx(self):
        return self.ring.ctx

    def vm(self):
        """Valuation in the maximal-ideal filtration (m^L = P up to units);
        None when zero to precision.  Exact: coordinate i contributes
        L * v_P + i, residues distinct mod L."""
        L = self.ring.L
        best = None
        for i, c in enumerate(self.coords):
            v = self.ctx.vP(c, self.prec)
            if v is not None:
                w = L * v + i
                if best is None or w < best:
                    best = w
        return best

    def mprec(self):
        return self.ring.L * self.prec

    def is_zero(self):
        return self.vm() is None

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self.ring,
                            tuple((a + b) % m for a, b in
                                  zip(self.coords, other.coords)), prec)

    def __neg__(self):
        return PadicCycElem(self.ring, tuple(-c for c in self.coords), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        return ring.elem(mul_coords(ring.rows, self.coords, other.coords,
                                    Poly.zero(self.ctx.field)),
                         min(self.prec, other.prec))

    def mul_scalar_poly(self, a):
        """Multiply by an exact element of A."""
        m = self.ctx.P_pow(self.prec)
        return PadicCycElem(self.ring,
                            tuple((c * a) % m for c in self.coords), self.prec)

    def frobq(self):
        ring = self.ring
        return ring.elem(frob_coords(ring.rows, self.coords, self.ctx.q,
                                     Poly.zero(self.ctx.field)), self.prec)

    def div_scalar_poly(self, a):
        """Divide by an exact nonzero element of A; precision drops by
        v_P(a) and every coordinate must cooperate."""
        v = self.ctx.vP(a, int(a.degree) // self.ctx.d + 1)
        v = 0 if v is None else v
        unit = a // self.ctx.P_pow(v) if v else a
        prec = self.prec - v
        if prec <= 0:
            raise ZeroDivisionError("precision exhausted by division")
        m = self.ctx.P_pow(prec)
        s = self.ctx.unit_inv(unit, prec)
        out = []
        for c in self.coords:
            if v:
                q_, r_ = divmod(c % self.ctx.P_pow(self.prec), self.ctx.P_pow(v))
                if not r_.is_zero():
                    raise ZeroDivisionError("coordinate not divisible")
                c = q_
            out.append((c * s) % m)
        return PadicCycElem(self.ring, tuple(out), prec)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self.ring, tuple(c % m for c in self.coords), prec)

    def agrees_with(self, other):
        prec = min(self.prec, other.prec)
        m = self.ctx.P_pow(prec)
        return all(((a - b) % m).is_zero()
                   for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return "PadicCycElem(%r, prec=%d)" % (list(self.coords), self.prec)
