"""Dense univariate polynomials and rational functions over a finite field.

Coefficients are field-encoded ints (see fields.py); the coefficient
tuple has no trailing zeros.  The zero polynomial has degree MINUS_INF,
a dedicated sentinel that compares below every int.

mul_coeffs is the one product of coefficient lists (of Polys, of
LaurentSeries, and of the digits of extension-field elements without
tables).  Over a prime field it is one big-int multiply (Kronecker
substitution, von zur Gathen & Gerhard, *Modern Computer Algebra* 8.4):
each coefficient list is packed into an int, one slot per coefficient,
and the slots of the integer product are the coefficients of the
product before reduction mod p.  A slot holds at most
min(len a, len b)*(p-1)^2, so its width is that bound's byte length,
rounded up to an array item size (1, 2, 4 or 8 bytes) where one fits.
The bound is exact, so no width is tuned and no slot can carry into the
next, for any p and any lengths.  Extension fields multiply schoolbook.
"""

import re
import sys
from array import array
from itertools import product

MINUS_INF = float("-inf")


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
        return hash((self.field, self.coeffs))

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
        return Poly(F, mul_coeffs(F, self.coeffs, other.coeffs))

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
        dc = den.coeffs
        dd = len(dc) - 1
        if len(self.coeffs) <= dd:
            return Poly.zero(F), self
        inv_lead = F.inv(dc[-1])
        p = F.p if F.base is None else None
        num = list(self.coeffs)
        q = [0] * (len(num) - dd)
        for k in range(len(num) - 1, dd - 1, -1):
            c = num[k]
            if c:
                f = c * inv_lead % p if p else F.mul(c, inv_lead)
                q[k - dd] = f
                lo = k - dd
                # num[k] is left as it is: only num[:dd] is read after k
                if p:
                    num[lo:k] = [(x - f * y) % p for x, y in zip(num[lo:k], dc)]
                else:
                    num[lo:k] = [F.sub(x, F.mul(f, y)) if y else x
                                 for x, y in zip(num[lo:k], dc)]
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

    def evaluate(self, x, target=None):
        """Horner evaluation at x in `target` (default: own field).

        The coefficients enter target as they are, which is right
        whenever the coefficient field sits inside target with
        compatible int encoding (F_q inside a residue field).
        """
        F = target if target is not None else self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def is_irreducible(self):
        """Rabin's test: f of degree n > 0 over F_q is irreducible iff f
        divides T^{q^n} - T and T^{q^{n/r}} - T is prime to f for every
        prime r | n.  n Frobenius steps x -> x^q mod f, each spreading
        the coefficients q apart (c^q = c on F_q) and one remainder."""
        deg = self.degree
        if deg is MINUS_INF or deg == 0:
            return False
        F, n, q = self.field, int(deg), self.field.order
        t = Poly.x(F) % self
        x, frob = t, [t]  # frob[k] = T^{q^k} mod f
        for _ in range(n):
            spread = [0] * (q * len(x.coeffs) - q + 1)
            spread[::q] = x.coeffs
            x = Poly(F, spread) % self
            frob.append(x)
        return x == t and all((frob[n // r] - t).gcd(self).degree == 0
                              for r in _trial_factor(n))

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def _trial_factor(n):
    """Prime factors of n (small n, trial division), ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def monic_polys(field, deg):
    """All monic polynomials of exact degree deg, ascending code order."""
    for code in range(field.order ** deg):
        yield _monic_of_code(field, deg, code)


def _monic_of_code(field, deg, code):
    """The monic polynomial of degree deg whose lower coefficients are the
    base-q digits of code, constant first."""
    cs = []
    for _ in range(deg):
        code, c = divmod(code, field.order)
        cs.append(c)
    return Poly(field, cs + [1])


def mul_coeffs(F, a, b, width=None):
    """Coefficients of the product of a and b over F, constant first,
    both factors and the product cut to `width` when one is given; the
    list may end in zeros.  A one-term factor scales the other; otherwise
    Kronecker over a prime field (module docstring), a schoolbook loop
    stopped at `width` over extensions."""
    if width is not None:
        a, b = a[:width], b[:width]
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = min(full, width or full)  # a width of 0 has returned above
    if len(a) == 1 or len(b) == 1:  # a constant factor scales the other
        (c,), x = (a, b) if len(a) == 1 else (b, a)
        if F.base is None:
            return [c * v % F.p for v in x]
        return [F.mul(c, v) for v in x]
    if F.base is None:  # Kronecker substitution
        p, order = F.p, sys.byteorder
        w = _slot_bytes(min(len(a), len(b)), p)
        if w <= 8:
            k = (w - 1).bit_length()
            code, w = "BHIQ"[k], 1 << k
            x = int.from_bytes(array(code, a), order)
            y = x if b == a else int.from_bytes(array(code, b), order)
            # the first n*w bytes hold the low n slots in either byte order
            prod = array(code, (x * y).to_bytes(full * w, order)[:n * w])
            return [c % p for c in prod]
        x, y = (int.from_bytes(b"".join(c.to_bytes(w, order) for c in cs),
                               order) for cs in (a, b))
        prod = (x * y).to_bytes(full * w, order)
        return [int.from_bytes(prod[i:i + w], order) % p
                for i in range(0, n * w, w)]
    out = [0] * n
    add, mul = F.add, F.mul
    for i, ca in enumerate(a):
        if ca:
            for k, cb in zip(range(i, n), b):
                if cb:
                    out[k] = add(out[k], mul(ca, cb))
    return out


def _slot_bytes(n, p):
    """Bytes in a Kronecker slot: a coefficient of a product whose shorter
    factor has n coefficients in 0..p-1 is at most n (p-1)^2."""
    return ((n * (p - 1) ** 2).bit_length() + 7) // 8


def monic_irreducibles(field, max_deg):
    """Monic irreducibles of degree 1..max_deg, ascending (degree, code).

    A sieve per degree d: a reducible monic of degree d has a monic
    irreducible factor g with 2 deg g <= d, so marking the code of g*h
    for each such g and each monic h = T^k + c T^{k-1} + t of degree k =
    d - deg g leaves exactly the irreducibles unmarked.  g*h = g (T^k +
    c T^{k-1}) + g*t: the head is formed once per (g, c) and each g*t
    once per g, and the tails t of degree < k - 1 are listed once per k
    for every g, so no list as long as the monics of degree d - 1 is
    kept.  Over a prime field with p <= 36 whose products fit one byte
    per Kronecker slot (module docstring), g and t are packed ints, and
    the big-endian bytes of a product, each mapped to the digit of its
    value mod p, are its code in base p behind a leading 1; there the
    multiples of the linear factors, more than half the marks, are the
    monics with a root in F_p instead, found from the values of every
    monic at every r.  Other fields multiply Polys.
    """
    q, p = field.order, field.p
    if (field.base is None and p <= 36
            and _slot_bytes(max_deg // 2 + 1, p) == 1):
        digits = bytes(b"0123456789abcdefghijklmnopqrstuvwxyz"[v % p]
                       for v in range(256))

        def pack(cs):
            return int.from_bytes(bytes(cs), "little")

        def mark(composite, head, gt, d):
            off = q ** d
            for x in gt:
                composite[int((head + x).to_bytes(d + 1, "big")
                              .translate(digits), p) - off] = 1

        # f has the factor T - r exactly when f(r) = 0: vals[r] holds f(r)
        # for each monic of degree d in code order, and f = T h + c gives
        # the next degree by one translate per c (Horner's rule)
        horner = [[bytes((c + r * v) % p for v in range(p)).ljust(256, b"\0")
                   for c in range(q)] for r in range(q)]
        is_zero = bytes([1] + [0] * 255)
        vals = [b"\x01"] * q

        def unmarked(d):
            """Degree d's marks before any product, those of the monics
            with a linear factor, and the index in `found` of the first
            factor left to mark by products."""
            for r, tabs in enumerate(horner):
                nxt = bytearray(q ** d)
                for c, tab in enumerate(tabs):
                    nxt[c::q] = vals[r].translate(tab)
                vals[r] = bytes(nxt)
            if d == 1:  # T - r itself is irreducible
                return bytearray(q), 0
            roots = 0
            for v in vals:
                roots |= int.from_bytes(v.translate(is_zero), "little")
            return bytearray(roots.to_bytes(q ** d, "little")), q
    else:
        def pack(cs):
            return Poly(field, cs)

        def mark(composite, head, gt, d):
            for x in gt:
                composite[sum(c * q ** i for i, c in
                              enumerate((head + x).coeffs[:d]))] = 1

        def unmarked(d):
            return bytearray(q ** d), 0
    found, tails = [], [[pack(())]]
    for d in range(1, max_deg + 1):
        composite, first = unmarked(d)
        for g in found[first:]:
            k = d - len(g.coeffs) + 1
            if k < d - k:
                break
            while len(tails) < k:  # tails[j]: every t of degree < j, by code
                lead = [pack((0,) * (len(tails) - 1) + (c,)) for c in range(q)]
                tails.append([x + y for y in lead for x in tails[-1]])
            G = pack(g.coeffs)
            gt = [G * t for t in tails[k - 1]]
            for c in range(q):
                mark(composite, G * pack((0,) * (k - 1) + (c, 1)), gt, d)
        # product() lists the digit tuples in code order, top digit first
        for hit, top in zip(composite, product(range(q), repeat=d)):
            if not hit:
                found.append(Poly(field, top[::-1] + (1,)))
                yield found[-1]


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

    def __repr__(self):
        if self.is_poly():
            return "RatFunc(%s)" % format_poly(self.num)
        return "RatFunc((%s)/(%s))" % (format_poly(self.num),
                                       format_poly(self.den))


def rat_reduce_mod_P(r, F):
    """Image of r in the residue field F = A/PA (T -> theta), P being
    F's modulus.

    Common powers of P are cleared from num and den first, so any
    P-integral rational function reduces; a genuine pole at P raises.
    """
    P = Poly(F.base, F.modulus)
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
        # an int code of the base field, as FiniteField.fmt prints it
        return int(tok) % (field.base or field).order
    if re.fullmatch(r"#\d+", tok) and int(tok[1:]) < field.order:
        # an int code, as FiniteField.fmt prints it over a field without tables
        return int(tok[1:])
    m = re.fullmatch(r"g(?:\^(\d+))?", tok)
    if m and field.base is not None:
        # g is the least primitive element, as FiniteField.fmt prints it
        if field._exp is None:
            raise ValueError("cannot parse %r over %r: no power table names g"
                             % (tok, field))
        return field._exp[int(m.group(1) or 1) % (field.order - 1)]
    raise ValueError("cannot parse coefficient %r" % tok)


def parse_poly(s, field):
    """Parse `c*T^k` terms joined by + and -.

    Coefficients as format_poly prints them: nonnegative ints, `g^j`
    over a field with tables (g the least primitive element), `#code`
    over one without.  Examples: `T^2+T+1`, `g^2*T+g`, `T+#2`.
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
