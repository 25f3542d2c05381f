"""Laurent series at the infinite place and the ramified extension holding
the Carlitz period.

A LaurentSeries stores coefficients of T^{-n} (of Y^{-n} inside a
RamifiedElem, of u^n = P^n in A_P) for n in [val, prec): the valuation
v(T) = -1 convention, so val is the infinity-adic valuation (v_P in A_P)
and prec is the first unknown exponent.  A series that is zero as far as it
is known has val == prec and an empty coefficient list.  Products go
through polynomials.mul_coeffs and q-th powers through Poly.frob_power.

RamifiedElem models K_inf = k_inf(Y), Y^{q-1} = -T, which is totally
ramified of degree q - 1 over k_inf: 1/Y is a uniformizer, and an element
is one LaurentSeries in 1/Y.  Its valuation and precision are in w-units,
w = (q-1) * v, so that w(Y) = -1 and everything stays integral.  Series
in 1/T enter by the digit map T^{-n} = (-1)^n Y^{-(q-1)n}, and
RamifiedElem.trace reads the trace down to k_inf back as a series in 1/T.
"""

import operator

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

    def inv(self):
        """By the long-division recurrence (inv_coeffs).  verify inverts
        series of at most depth + 14 digits here (class blocks, cnf
        ratios, L-values) and 9 in the Euler products;
        exp_eval's wider 1/D_i, up to a few hundred digits, come from
        CarlitzTables.d_inverse, once per i."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero-to-precision series")
        F = self.field
        out = inv_coeffs(F, self.coeffs, self.prec - self.val)
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
        # x^n for the stored coefficient of n: x is 1/T, 1/Y or u
        if not self.coeffs:
            return "O(x^%d)" % self.prec
        terms = ["%s*x^%d" % (self.field.fmt(c), self.val + i)
                 for i, c in enumerate(self.coeffs[:8]) if c]
        more = "+..." if len(self.coeffs) > 8 else ""
        return "+".join(terms) + more + " + O(x^%d)" % self.prec


class RamifiedElem:
    """Element of K_inf = k_inf(Y), Y^{q-1} = -T, as one Laurent series s in
    the uniformizer 1/Y.

    The extension is totally ramified of degree q - 1, so K_inf = F((1/Y))
    and s.val, s.prec are the w-valuation and w-precision: w = (q-1) * v_inf,
    w(Y) = -1 and w(T^{-1}) = q-1.  A series in 1/T enters through the digit
    map T^{-n} = (-1)^n Y^{-(q-1)n}; trace() maps it back down to k_inf.
    """

    __slots__ = ("q", "field", "s")

    def __init__(self, q, s):
        self.q = q
        self.field = s.field
        self.s = s

    @classmethod
    def zero(cls, q, field, wprec):
        return cls(q, LaurentSeries.zero(field, wprec))

    @classmethod
    def from_laurent(cls, s, q):
        """The series s in 1/T, through the digit map."""
        return cls(q, _in_y(s, q))

    @classmethod
    def y(cls, q, field, wprec):
        """The chosen (q-1)-st root Y of -T (for q = 2, Y = -T itself)."""
        return cls(q, LaurentSeries(field, -1, [1], wprec))

    def trace(self):
        """Tr_{K_inf/k_inf} as a series in 1/T, known to ceil(wprec/(q-1)):
        Tr Y^j = 0 for 0 < j < q - 1, so it is q - 1 = -1 times the Y^0
        part, the digits at w = (q-1) n, which the digit map signs (-1)^n."""
        s, e, F = self.s, self.q - 1, self.field
        lo, hi = (-(-w // e) for w in (s.val, s.prec))
        cs = s.coeffs[e * lo - s.val::e]
        return LaurentSeries(F, lo, [_signed(F, lo + i + 1, c)
                                     for i, c in enumerate(cs)], hi)

    def wprec(self):
        return self.s.prec

    def wval(self):
        """Exact w-valuation, or None if zero to precision."""
        return self.s.valuation()

    def __add__(self, other):
        return RamifiedElem(self.q, self.s + other.s)

    def __sub__(self, other):
        return RamifiedElem(self.q, self.s - other.s)

    def __mul__(self, other):
        return RamifiedElem(self.q, self.s * other.s)

    def mul_laurent(self, s):
        # the digit map spaces s's digits q - 1 apart: the sparse factor
        # goes first, whose zeros mul_coeffs's loop over an extension skips
        return RamifiedElem(self.q, _in_y(s, self.q) * self.s)

    def mul_scalar_poly(self, a):
        """Multiply by an exact element of A (F_q coefficients embed)."""
        # a's window reaches past every digit the product can certify
        pr = (self.s.prec - self.s.val) // (self.q - 1) + 1
        return self.mul_laurent(LaurentSeries.from_poly(a, pr, self.field))

    def frobq(self):
        return RamifiedElem(self.q, self.s.frobq(self.q))

    def truncate_w(self, wprec):
        return RamifiedElem(self.q, self.s.truncate(wprec))

    def agrees_with(self, other, upto_w=None):
        return self.s.agrees_with(other.s, upto_w)

    def __repr__(self):
        return "RamifiedElem(q=%d, %r)" % (self.q, self.s)


def inv_coeffs(F, cs, width):
    """The first `width` coefficients of 1/(cs[0] + cs[1] x + ...) over F,
    cs[0] != 0, by the recurrence of long division: out[k] = -(1/cs[0])
    sum_{j>=1} cs[j] out[k-j], so a prefix of a wider inverse is the
    narrower one.  Over a prime field each sum is taken on ints and
    reduced once."""
    c0inv = F.inv(cs[0])
    out = [0] * width
    out[0] = c0inv
    tail = cs[1:width]
    if F.base is None:
        p, m0 = F.p, -c0inv
        for k in range(1, width):
            out[k] = m0 * sum(map(operator.mul, tail, out[k - 1::-1])) % p
        return out
    for k in range(1, width):
        acc = 0
        for j in range(1, min(k, len(cs) - 1) + 1):
            if cs[j] and out[k - j]:
                acc = F.add(acc, F.mul(cs[j], out[k - j]))
        out[k] = F.neg(F.mul(c0inv, acc))
    return out


def _in_y(s, q):
    """The digit map T^{-n} = (-1)^n Y^{-(q-1)n} of a series in 1/T."""
    e, F = q - 1, s.field
    cs = [0] * (e * len(s.coeffs))
    for i, c in enumerate(s.coeffs):
        cs[e * i] = _signed(F, s.val + i, c)
    return LaurentSeries(F, e * s.val, cs, e * s.prec)


def _signed(F, n, c):
    return F.neg(c) if n % 2 else c


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
