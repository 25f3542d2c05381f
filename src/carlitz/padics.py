"""P-adic completions: A_P arithmetic mod P^N and the completed
cyclotomic ring A_P[lambda].

PadicElem carries its own absolute precision (known mod P^prec), so
divisions record exactly how much certainty they burn.  PadicCycElem is
a coordinate vector over the lambda-power basis with a shared coordinate
precision; its natural filtration valuation v_m (m the maximal ideal,
m^{q^d - 1} = P) is exact because the coordinate contributions occupy
distinct residues mod q^d - 1.
"""

from __future__ import annotations

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

    def P_pow(self, k):
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] * self.P)
        return self._powers[k]

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

    def elem(self, poly, prec=None):
        prec = self.N if prec is None else prec
        return PadicElem(self, self.reduce(poly, prec), prec)

    def zero(self, prec=None):
        return PadicElem(self, Poly.zero(self.field),
                         self.N if prec is None else prec)

    def one(self, prec=None):
        return PadicElem(self, Poly.one(self.field),
                         self.N if prec is None else prec)


class PadicElem:
    __slots__ = ("ctx", "value", "prec")

    def __init__(self, ctx, value, prec):
        self.ctx = ctx
        self.value = value
        self.prec = prec

    def valuation(self):
        """v_P, or None when indistinguishable from zero at this precision."""
        return self.ctx.vP(self.value, self.prec)

    def is_zero(self):
        return self.valuation() is None

    def unit_and_val(self):
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("element is zero to precision")
        unit = self.value // self.ctx.P_pow(v)
        return unit, v

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        return self.ctx.elem(self.value + other.value, prec)

    def __neg__(self):
        return PadicElem(self.ctx, -self.value, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        va = self.valuation()
        vb = other.valuation()
        pa = self.prec + (vb if vb is not None else other.prec)
        pb = other.prec + (va if va is not None else self.prec)
        prec = min(pa, pb)
        return self.ctx.elem(self.value * other.value, prec)

    def inv(self):
        unit, v = self.unit_and_val()
        if v > 0:
            raise ZeroDivisionError("inverse has negative valuation")
        m = self.ctx.P_pow(self.prec)
        g, s, _ = unit.xgcd(m)
        assert g.is_one(), "non-unit inverse"
        return self.ctx.elem(s, self.prec)

    def div(self, other):
        """Division; loses v_P(other) digits of precision."""
        unit, v = other.unit_and_val()
        va = self.valuation()
        if v > 0:
            if va is not None and va < v:
                raise ZeroDivisionError("quotient not integral")
            if self.prec < v:
                raise ZeroDivisionError("insufficient precision to divide")
        num = self.value // self.ctx.P_pow(v) if v else self.value
        prec = min(self.prec, other.prec) - v
        m = self.ctx.P_pow(prec)
        g, s, _ = unit.xgcd(m)
        assert g.is_one()
        return self.ctx.elem(num * s, prec)

    def frob_power(self, q):
        # q-power is additive in char p, so acts exponentwise on the rep
        return self.ctx.elem(self.value.frob_power(q), self.prec)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return self.ctx.elem(self.value, prec)

    def agrees_with(self, other):
        prec = min(self.prec, other.prec)
        return ((self.value - other.value) % self.ctx.P_pow(prec)).is_zero()

    def __eq__(self, other):
        return (isinstance(other, PadicElem) and self.ctx.P == other.ctx.P
                and self.prec == other.prec and self.value == other.value)

    def __repr__(self):
        return "PadicElem(%r mod P^%d)" % (self.value, self.prec)


def teichmuller_lift(c, ctx):
    """Teichmuller representative in A_P of a residue-field element.

    `c` is an int of residue_field(P); the lift is the unique root of
    x^{q^d} = x congruent to c mod P, computed by Frobenius iteration
    (quadratically convergent is not needed; N steps suffice at desk
    scale).  Returns a PadicElem at full context precision.
    """
    F = ctx.field
    # digits of the residue class are F_q ints: the obvious lift
    y = Poly(F, list(_residue_digits(c, ctx)))
    for _ in range(ctx.N + 2):
        z = y
        for _ in range(ctx.d):
            z = ctx.reduce(z.frob_power(ctx.q))
        if z == y:
            break
        y = z
    else:
        raise AssertionError("Teichmuller iteration did not stabilize")
    return ctx.elem(y)


def _residue_digits(c, ctx):
    q = ctx.q
    for _ in range(ctx.d):
        yield c % q
        c //= q


def embed_tensor_to_padic(r, ctx, lift=None):
    """Image in k_P of an element of F tensor k (or of k itself).

    F-coefficients go through the Teichmuller section A/PA -> A_P, taken
    from `lift` (c -> PadicElem) when given; the rational-function
    variable stays T.  `r` is a RatFunc whose coefficients live either
    in F_q (ints < q, fixed by the section) or in residue_field(P).
    Raises ZeroDivisionError when the image is not P-integral.
    """
    num = _poly_tensor_image(r.num, ctx, lift)
    den = _poly_tensor_image(r.den, ctx, lift)
    return num.div(den)


def _poly_tensor_image(p, ctx, lift=None):
    lift = lift or (lambda c: teichmuller_lift(c, ctx))
    acc = ctx.zero()
    t_elem = ctx.elem(Poly.x(ctx.field))
    for c in reversed(p.coeffs):
        acc = acc * t_elem + lift(c)
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


class CycPadicRing:
    """O_{K,P} = A_P[lambda] with lambda-power basis coordinates.

    Built from the Carlitz P-torsion minimal polynomial psi (monic of
    degree L = q^d - 1, coefficients in A); precomputes reductions of
    lambda^i for i up to q*(L-1) so multiplication and Frobenius stay in
    the basis.
    """

    def __init__(self, ctx, psi_coeffs):
        self.ctx = ctx
        self.L = len(psi_coeffs) - 1
        # rows are kept EXACT so that callers may run the ring at padded
        # precision beyond ctx.N
        self._rows = lambda_power_rows(psi_coeffs)  # coords of lambda^{L+i}

    def elem(self, coords, prec=None):
        prec = self.ctx.N if prec is None else prec
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self, tuple(c % m for c in coords), prec)

    def zero(self, prec=None):
        return self.elem([Poly.zero(self.ctx.field)] * self.L, prec)

    def reduce_power_sum(self, pairs, prec):
        """Sum of c * lambda^i for (i, c) pairs, any i < len table + L."""
        L = self.L
        out = [Poly.zero(self.ctx.field)] * L
        for i, c in pairs:
            if c.is_zero():
                continue
            if i < L:
                out[i] = out[i] + c
            else:
                for j, r in enumerate(self._rows[i - L]):
                    if not r.is_zero():
                        out[j] = out[j] + c * r
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self, tuple(c % m for c in out), prec)


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
        prec = min(self.prec, other.prec)
        L = self.ring.L
        conv = [Poly.zero(self.ctx.field)] * (2 * L - 1)
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if not b.is_zero():
                    conv[i + j] = conv[i + j] + a * b
        return self.ring.reduce_power_sum(enumerate(conv), prec)

    def scale_padic(self, c):
        prec = min(self.prec, c.prec)
        m = self.ctx.P_pow(prec)
        return PadicCycElem(self.ring,
                            tuple((a * c.value) % m for a in self.coords), prec)

    def mul_scalar_poly(self, a):
        """Multiply by an exact element of A."""
        m = self.ctx.P_pow(self.prec)
        return PadicCycElem(self.ring,
                            tuple((c * a) % m for c in self.coords), self.prec)

    def frobq(self):
        q = self.ctx.q
        pairs = [(i * q, c.frob_power(q)) for i, c in enumerate(self.coords)]
        return self.ring.reduce_power_sum(pairs, self.prec)

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
        g, s, _ = unit.xgcd(m)
        assert g.is_one()
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
