"""Laurent series at the infinite place and the ramified extension holding
the Carlitz period.

A LaurentSeries stores coefficients of T^{-n} for n in [val, prec): the
valuation v(T) = -1 convention, so val is the infinity-adic valuation and
prec is the first unknown exponent.  A series that is zero as far as it
is known has val == prec and an empty coefficient list.  Products go
through polynomials.mul_coeffs and q-th powers through Poly.frob_power.

RamifiedElem models k_inf[Y]/(Y^{q-1} + T), coefficientwise Laurent.
Valuations there are reported in w-units, w = (q-1) * v, so that
w(Y) = -1 and everything stays integral.
"""

from __future__ import annotations

from .polynomials import Poly, mul_coeffs


class LaurentSeries:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec):
        # strip known-zero leading terms; clamp to the zero-to-prec form
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > prec - val:
            coeffs = coeffs[:max(prec - val, 0)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        if not coeffs:
            val = prec
        self.field = field
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, (), prec)

    @classmethod
    def const(cls, field, c, prec):
        return cls(field, 0, (c,), prec)

    @classmethod
    def from_poly(cls, p, prec, field=None):
        """T-polynomial as a Laurent series: T^k contributes at n = -k.
        `field` receives the coefficients, as ints of a field holding
        p's (F_q inside a residue field); default p's own."""
        cs = list(reversed(p.coeffs))
        return cls(field or p.field, -(len(cs) - 1) if cs else prec, cs, prec)

    @classmethod
    def from_ratfunc(cls, r, prec, field=None):
        F = field or r.field
        num = cls.from_poly(r.num, prec + max(int(r.den.degree), 0) + 1, F)
        if r.den.is_one():
            return cls(F, num.val, num.coeffs, prec)
        den = cls.from_poly(r.den, prec + int(r.den.degree) + 1, F)
        out = num * den.inv()
        return cls(F, out.val, out.coeffs, min(out.prec, prec))

    # -- queries ---------------------------------------------------------------

    def is_zero(self):
        """Zero as far as the precision window can see."""
        return not self.coeffs

    def valuation(self):
        """Exact valuation, or None when zero to precision."""
        return self.val if self.coeffs else None

    def coeff(self, n):
        if n >= self.prec:
            raise ValueError("coefficient T^-%d beyond precision %d" % (n, self.prec))
        if n < self.val:
            return 0
        i = n - self.val
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    def agrees_with(self, other, upto=None):
        """Coefficientwise equality on the joint certified window."""
        hi = min(self.prec, other.prec)
        if upto is not None:
            hi = min(hi, upto)
        lo = min(self.val, other.val)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, hi))

    def __eq__(self, other):
        return (isinstance(other, LaurentSeries) and self.field == other.field
                and self.val == other.val and self.prec == other.prec
                and self.coeffs == list(other.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        F = self.field
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        if lo >= prec:
            return LaurentSeries.zero(F, prec)
        out = [0] * (prec - lo)
        for i, c in enumerate(self.coeffs):
            n = self.val + i
            if n < prec:
                out[n - lo] = c
        for i, c in enumerate(other.coeffs):
            n = other.val + i
            if n < prec:
                out[n - lo] = F.add(out[n - lo], c)
        return LaurentSeries(F, lo, out, prec)

    def __neg__(self):
        F = self.field
        return LaurentSeries(F, self.val, [F.neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        # product precision: each factor's error enters shifted by the
        # other factor's valuation
        prec = min(self.prec + other.val, other.prec + self.val)
        lo = self.val + other.val
        return LaurentSeries(F, lo, mul_coeffs(F, self.coeffs, other.coeffs,
                                               prec - lo), prec)

    def scale(self, c):
        F = self.field
        if c == 0:
            return LaurentSeries.zero(F, self.prec)
        return LaurentSeries(F, self.val, [F.mul(c, a) for a in self.coeffs],
                             self.prec)

    def shift(self, k):
        """Multiply by T^k."""
        return LaurentSeries(self.field, self.val - k, self.coeffs, self.prec - k)

    def inv(self):
        """By the recurrence of long division, this module's one product
        loop: at the widths verify uses (at most 9) it is about twice as fast
        as a reversed Poly quotient over F_9, and Newton's is slower still."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero-to-precision series")
        F = self.field
        width = self.prec - self.val
        c0inv = F.inv(self.coeffs[0])
        out = [0] * width
        out[0] = c0inv
        cs = self.coeffs
        for k in range(1, width):
            acc = 0
            for j in range(1, min(k, len(cs) - 1) + 1):
                if cs[j] and out[k - j]:
                    acc = F.add(acc, F.mul(cs[j], out[k - j]))
            out[k] = F.neg(F.mul(c0inv, acc))
        return LaurentSeries(F, -self.val, out, self.prec - 2 * self.val)

    def frobq(self, q):
        """q-power map; exact on coefficients since char divides q."""
        F = self.field
        return LaurentSeries(F, self.val * q,
                             Poly(F, self.coeffs).frob_power(q).coeffs,
                             self.prec * q)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return LaurentSeries(self.field, self.val, self.coeffs[:max(prec - self.val, 0)], prec)

    def map_coeffs(self, field, fn):
        return LaurentSeries(field, self.val, [fn(c) for c in self.coeffs], self.prec)

    def polynomial_part(self, field=None):
        """The T^{>=0} content as a Poly (exponents n <= 0)."""
        F = field or self.field
        cs = []
        for k in range(max(-self.val, 0) + 1):
            cs.append(self.coeff(-k))
        return Poly(F, cs)

    def __repr__(self):
        if not self.coeffs:
            return "O(T^-%d)" % self.prec
        terms = []
        for i, c in enumerate(self.coeffs[:8]):
            if c:
                n = self.val + i
                terms.append("%s*T^%d" % (self.field.fmt(c), -n))
        more = "+..." if len(self.coeffs) > 8 else ""
        return "+".join(terms) + more + " + O(T^-%d)" % self.prec


class RamifiedElem:
    """Element of k_inf[Y]/(Y^{q-1} + T), components indexed by Y^j.

    Valuations and precisions are in w-units: w = (q-1) * v_inf, so
    w(T^{-1}) = q-1 and w(Y) = -1.  The component at Y^j contributes
    w-values congruent to -j mod q-1, hence distinct components never
    collide and the minimum below is exact.
    """

    __slots__ = ("q", "field", "comps")

    def __init__(self, q, field, comps):
        if len(comps) != q - 1:
            raise ValueError("RamifiedElem needs q - 1 components")
        self.q = q
        self.field = field
        self.comps = tuple(comps)

    @classmethod
    def zero(cls, q, field, wprec):
        return cls(q, field, [LaurentSeries.zero(field, _lprec(wprec, j, q))
                              for j in range(q - 1)])

    @classmethod
    def from_laurent(cls, s, q):
        out = [s]
        for j in range(1, q - 1):
            out.append(LaurentSeries.zero(s.field, _lprec(s.prec * (q - 1), j, q)))
        return cls(q, s.field, out)

    @classmethod
    def y(cls, q, field, wprec):
        """The chosen (q-1)-st root Y of -T (for q = 2, Y = -T itself)."""
        if q == 2:
            c = field.neg(1)
            return cls.from_laurent(
                LaurentSeries(field, -1, [c], wprec), q)
        comps = [LaurentSeries.zero(field, _lprec(wprec, j, q)) for j in range(q - 1)]
        comps[1] = LaurentSeries.const(field, 1, _lprec(wprec, 1, q))
        return cls(q, field, comps)

    def wprec(self):
        return min((self.q - 1) * c.prec - j for j, c in enumerate(self.comps))

    def wval(self):
        """Exact w-valuation, or None if zero to precision."""
        best = None
        for j, c in enumerate(self.comps):
            v = c.valuation()
            if v is not None:
                w = (self.q - 1) * v - j
                if best is None or w < best:
                    best = w
        return best

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other):
        return RamifiedElem(self.q, self.field,
                            [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return RamifiedElem(self.q, self.field, [-a for a in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        q, F = self.q, self.field
        wp = min(self.wprec() + other.wval_or_prec(),
                 other.wprec() + self.wval_or_prec())
        out = [LaurentSeries.zero(F, _lprec(wp, j, q)) for j in range(q - 1)]
        for i, a in enumerate(self.comps):
            for j, b in enumerate(other.comps):
                k = i + j
                prod = a * b
                if k >= q - 1:
                    k -= q - 1
                    # Y^{q-1} = -T: shift the Laurent part
                    prod = (-prod).shift(1)
                out[k] = out[k] + prod
        return RamifiedElem(q, F, out)

    def wval_or_prec(self):
        v = self.wval()
        return v if v is not None else self.wprec()

    def mul_laurent(self, s):
        return RamifiedElem(self.q, self.field, [c * s for c in self.comps])

    def mul_scalar_poly(self, a):
        """Multiply by an exact element of A (F_q coefficients embed)."""
        pr = max(c.prec for c in self.comps) + max(int(a.degree), 0) + 4 \
            if not a.is_zero() else max(c.prec for c in self.comps)
        return self.mul_laurent(LaurentSeries.from_poly(a, pr, self.field))

    def scale(self, c):
        return RamifiedElem(self.q, self.field, [x.scale(c) for x in self.comps])

    def frobq(self):
        q, F = self.q, self.field
        wp = self.wprec() * q
        out = [LaurentSeries.zero(F, _lprec(wp, j, q)) for j in range(q - 1)]
        for j, c in enumerate(self.comps):
            if c.is_zero():
                continue
            cq = c.frobq(q)
            jq = j * q
            # reduce Y^{jq}: every q-1 steps contributes a factor -T
            steps, rem = divmod(jq, q - 1)
            if steps:
                sign = F.pow(F.neg(1), steps)
                cq = cq.scale(sign).shift(steps)
            out[rem] = out[rem] + cq
        return RamifiedElem(q, F, out)

    def truncate_w(self, wprec):
        return RamifiedElem(self.q, self.field,
                            [c.truncate(_lprec(wprec, j, self.q))
                             for j, c in enumerate(self.comps)])

    def agrees_with(self, other, upto_w=None):
        hi = min(self.wprec(), other.wprec())
        if upto_w is not None:
            hi = min(hi, upto_w)
        diff = self - other
        v = diff.wval()
        return v is None or v >= hi

    def __repr__(self):
        return "RamifiedElem(q=%d, %r)" % (self.q, list(self.comps))


def _lprec(wprec, j, q):
    """Laurent precision for component j so that w-precision >= wprec."""
    # need (q-1)*prec - j >= wprec
    need = wprec + j
    return -((-need) // (q - 1))


def pi_bar(q, field, prec):
    """The fundamental period, certified to v-precision `prec`.

    Equals (-T) * Y * prod_{n>=1} (1 - T^{1-q^n})^{-1} in k_inf(Y) with
    Y^{q-1} = -T; w-valuation is -q.
    """
    wprec = (q - 1) * prec
    y = RamifiedElem.y(q, field, wprec + 2 * q)
    lead = y.mul_laurent(
        LaurentSeries(field, -1, [field.neg(1)], prec + 4))
    prod = LaurentSeries.const(field, 1, prec + 4)
    n = 1
    while q ** n - 1 <= prec + 3:
        # (1 - T^{1-q^n})^{-1}
        width = prec + 4
        step = q ** n - 1
        cs = [0] * width
        k = 0
        while k < width:
            cs[k] = 1
            k += step
        prod = prod * LaurentSeries(field, 0, cs, width)
        n += 1
    out = lead.mul_laurent(prod)
    return out.truncate_w(wprec)
