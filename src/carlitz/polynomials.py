"""Dense univariate polynomials and rational functions over a finite field.

Coefficients are field-encoded ints (see fields.py); the coefficient
tuple has no trailing zeros.  The zero polynomial has degree MINUS_INF,
a dedicated sentinel that compares below every int.
"""

from __future__ import annotations

import re

import numpy as np

MINUS_INF = float("-inf")

_NUMPY_CUTOFF = 48  # schoolbook below this length


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, c, k):
        return cls(field, (0,) * k + (c,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        if F.base is None and len(a) + len(b) > _NUMPY_CUTOFF:
            conv = np.convolve(np.array(a, dtype=np.int64),
                               np.array(b, dtype=np.int64))
            return Poly(F, (conv % F.p).tolist())
        out = [0] * (len(a) + len(b) - 1)
        add, mul = F.add, F.mul
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = add(out[i + j], mul(ca, cb))
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        if c == 0:
            return Poly.zero(F)
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def shift(self, k):
        """Multiply by T^k (k >= 0)."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, den):
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        dd = len(den.coeffs) - 1
        inv_lead = F.inv(den.leading())
        num = list(self.coeffs)
        q = [0] * max(len(num) - dd, 0)
        for k in range(len(num) - 1, dd - 1, -1):
            c = num[k]
            if c:
                f = F.mul(c, inv_lead)
                q[k - dd] = f
                num[k] = 0
                for j in range(dd):
                    if den.coeffs[j]:
                        num[k - dd + j] = F.sub(num[k - dd + j],
                                                F.mul(f, den.coeffs[j]))
        return Poly(F, q), Poly(F, num[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        r, b = Poly.one(self.field), self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def frob_power(self, q):
        """self**q for q a power of the characteristic: sparse exponent map."""
        F = self.field
        out = [0] * (q * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                out[q * i] = F.pow(c, q)
        return Poly(F, out)

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if a.coeffs else a

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic (or zero)."""
        F = self.field
        r0, r1 = self, other
        s0, s1 = Poly.one(F), Poly.zero(F)
        t0, t1 = Poly.zero(F), Poly.one(F)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.coeffs and r0.coeffs[-1] != 1:
            c = F.inv(r0.leading())
            r0, s0, t0 = r0.scale(c), s0.scale(c), t0.scale(c)
        return r0, s0, t0

    def evaluate(self, x, target=None, embed=None):
        """Horner evaluation at x in `target` (default: own field).

        `embed` maps coefficients into target; defaults to the identity,
        which is right whenever the coefficient field sits inside target
        with compatible int encoding (F_q inside a residue field).
        """
        F = target if target is not None else self.field
        emb = embed if embed is not None else (lambda c: c)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), emb(c))
        return acc

    def is_irreducible(self):
        """Trial division by monic irreducibles of degree <= deg/2."""
        F = self.field
        deg = self.degree
        if deg is MINUS_INF or deg == 0:
            return False
        if deg == 1:
            return True
        if self.coeffs[0] == 0:
            return False
        # dividing by reducible candidates too is wasteful but harmless
        # at the degrees this library runs at (<= 9)
        for d in range(1, int(deg) // 2 + 1):
            for den in monic_polys(F, d):
                if (self % den).is_zero():
                    return False
        return True

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def monic_polys(field, deg):
    """All monic polynomials of exact degree deg, ascending code order."""
    q = field.order
    for code in range(q ** deg):
        cs, x = [], code
        for _ in range(deg):
            cs.append(x % q)
            x //= q
        cs.append(1)
        yield Poly(field, cs)


def monic_irreducibles(field, max_deg):
    """Monic irreducibles of degree 1..max_deg, ascending (degree, code)."""
    out = []
    for d in range(1, max_deg + 1):
        for f in monic_polys(field, d):
            if all((f % g).coeffs for g in out if 2 * g.degree <= d):
                out.append(f)
                yield f


class RatFunc:
    """Reduced fraction num/den of Polys, den monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        F = num.field
        if den is None:
            den = Poly.one(F)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.one(F)
        elif reduce:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        if not den.is_monic():
            c = F.inv(den.leading())
            num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly.one(p.field), reduce=False)

    @classmethod
    def zero(cls, field):
        return cls(Poly.zero(field), Poly.one(field), reduce=False)

    @classmethod
    def one(cls, field):
        return cls(Poly.one(field), Poly.one(field), reduce=False)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_one()

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def scale(self, c):
        return RatFunc(self.num.scale(c), self.den, reduce=False)

    def frob_power(self, q):
        return RatFunc(self.num.frob_power(q), self.den.frob_power(q),
                       reduce=False)

    def coeff_frob(self, q):
        """c -> c^q on the coefficients, T fixed: the Frobenius of the
        coefficient leg of F tensor k."""
        F = self.field

        def fr(p):
            return Poly(F, [F.pow(c, q) for c in p.coeffs])
        return RatFunc(fr(self.num), fr(self.den), reduce=False)

    def __repr__(self):
        if self.is_poly():
            return "RatFunc(%s)" % format_poly(self.num)
        return "RatFunc((%s)/(%s))" % (format_poly(self.num),
                                       format_poly(self.den))


def rat_reduce_mod_P(r, F):
    """Image of r in the residue field F = A/PA (T -> theta).

    Common powers of P are cleared from num and den first, so any
    P-integral rational function reduces; a genuine pole at P raises.
    """
    P = F.P
    num, den = r.num, r.den
    while True:
        qn, rn = divmod(num, P)
        if rn.is_zero() and not num.is_zero():
            qd, rd = divmod(den, P)
            if rd.is_zero():
                num, den = qn, qd
                continue
        break
    dval = den.evaluate(F.theta, target=F)
    if dval == 0:
        raise ZeroDivisionError("rational function not P-integral")
    nval = num.evaluate(F.theta, target=F)
    return F.div(nval, dval)


# -- text form ----------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(?P<coef>[^*]+)\*)?(?:T(?:\^(?P<exp>\d+))?)?$")


def _parse_coef(tok, field):
    tok = tok.strip()
    if re.fullmatch(r"\d+", tok):
        return int(tok) % field.p
    m = re.fullmatch(r"g(?:\^(\d+))?", tok)
    if m and field.base is not None:
        j = int(m.group(1)) if m.group(1) else 1
        return field.pow(field.gen(), j)
    raise ValueError("cannot parse coefficient %r" % tok)


def parse_poly(s, field):
    """Parse `c*T^k` terms joined by + and -.

    Coefficients are nonnegative ints, or `g^j` over an extension field
    where g is the residue class of the modulus variable.  Examples:
    `T^2+T+1`, `2*T^3+1`, `g^2*T+g`.
    """
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    # split into signed terms
    terms = []
    sign, cur = 1, ""
    for i, ch in enumerate(s):
        if ch in "+-" and i != 0 and s[i - 1] not in "+-^*":
            terms.append((sign, cur))
            sign, cur = (1 if ch == "+" else -1), ""
        elif ch in "+-" and i == 0:
            sign = 1 if ch == "+" else -1
        else:
            cur += ch
    terms.append((sign, cur))

    coeffs = {}
    for sign, t in terms:
        m = _TERM_RE.match(t)
        if not m or (m.group("coef") is None and "T" not in t):
            # bare coefficient term (no T)
            c = _parse_coef(t, field)
            k = 0
        else:
            coef_tok = m.group("coef")
            c = _parse_coef(coef_tok, field) if coef_tok is not None else 1
            if "T" in t:
                k = int(m.group("exp")) if m.group("exp") else 1
            else:
                k = 0
        if sign < 0:
            c = field.neg(c)
        coeffs[k] = field.add(coeffs.get(k, 0), c)
    deg = max(coeffs) if coeffs else 0
    return Poly(field, [coeffs.get(k, 0) for k in range(deg + 1)])


def format_poly(p, var="T"):
    if p.is_zero():
        return "0"
    F = p.field
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        cs = F.fmt(c)
        if k == 0:
            parts.append(cs)
        else:
            head = "" if cs == "1" else cs + "*"
            parts.append("%s%s" % (head, var if k == 1 else "%s^%d" % (var, k)))
    return "+".join(parts)
