"""A_P[lambda] mod P^N on the lambda-power basis: the oracle that the
uniformizer model carlitz.padics.MuRing is checked against.

An element is L coordinates in A reduced mod P^prec, with a shared
coordinate precision.  A product is L^2 polynomial products folded
back along the exact rows of lambda^k, k >= L; a division by an element
of A divides every coordinate, so precision drops by its v_P.  The
natural filtration valuation v_m (m^L = P up to units) is exact because
coordinate i contributes L v_P + i, and these are distinct mod L.

core.padic_exp, core.padic_log and core.carlitz_act run on these
elements as they do on the model's, so the two rings can be compared
operation by operation through MuRing.elem, which reads coordinates.
"""

from carlitz.cyclotomic import frob_coords, mul_coords
from carlitz.polynomials import Poly


def embed_poly_to_padic(p, ctx):
    """Image in A_P mod P^N of an element of F[T] (or of A itself): the
    variable stays T and each coefficient, an int of F_q or of
    residue_field(P), goes to its Teichmuller lift."""
    t = Poly.x(ctx.field)
    acc = Poly.zero(ctx.field)
    for c in reversed(p.coeffs):
        acc = ctx.reduce(acc * t + ctx.teichmuller(c))
    return acc


def vP_by_division(poly, P, cap):
    """v_P of a polynomial over F_q by division by P, capped as
    PadicContext.vP (None when zero or `cap` deep)."""
    if poly.is_zero():
        return None
    for v in range(cap):
        poly, r = divmod(poly, P)
        if not r.is_zero():
            return v
    return None


class CycPadicRing:
    """O_{K,P} = A_P[lambda] with lambda-power basis coordinates.

    `rows` are the exact reductions of lambda^k, k >= L, from
    cyclotomic.lambda_power_rows; kept exact so that callers may run the
    ring at padded precision beyond ctx.N.
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
        """Valuation in the maximal-ideal filtration; None when zero to
        precision."""
        L = self.ring.L
        best = None
        for i, c in enumerate(self.coords):
            v = vP_by_division(c, self.ctx.P, self.prec)
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

    def div_scalar_poly(self, a, v=None):
        """Divide by an exact nonzero element of A; precision drops by
        v = v_P(a), found by trial division when not given, and every
        coordinate must cooperate."""
        if v is None:
            v = vP_by_division(a, self.ctx.P, int(a.degree) // self.ctx.d + 1) or 0
        unit, rest = divmod(a, self.ctx.P_pow(v))
        if not rest.is_zero():
            raise ArithmeticError("v_P of the divisor is below %d" % v)
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

    def widen(self, prec):
        """The same representative, read mod P^prec (prec >= self.prec)."""
        return PadicCycElem(self.ring, self.coords, prec)

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
