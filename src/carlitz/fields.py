"""Finite fields with int-encoded elements.

An element of a field with ``p**e`` elements is a plain int in
``range(p**e)`` encoding the coefficient vector of its polynomial
representative in base ``p`` (constant digit first).  Extension fields
keep eager log/exp tables whenever the order is at most ``TABLE_LIMIT``,
so multiplication and inversion are table lookups.  The tables walk the
powers of the least primitive element ``g`` on int codes: times ``X``
shifts one digit up and adds the top digit ``t`` back as
``t*(X^m - modulus)`` by two lookups, one per half of the code (over
``F_2``, an XOR).  When ``g = X`` the walk is that step alone, one list
comprehension without a branch (``t = 0`` folds by the identity);
any other ``g`` multiplies by Horner's rule in its digits.  Fields
without tables multiply by ``_mul_poly``: the ``Poly`` product of the two
digit vectors over the base field (one Kronecker product over a prime
base, see polynomials.py), reduced mod the modulus.

Addition takes one of three paths, none of which recurses through the
tower of base fields:

* prime fields add mod ``p``;
* in characteristic 2 the encoding is binary all the way down, so
  addition and subtraction are XOR and negation is the identity;
* odd extensions with tables keep Zech logarithms, ``Z[k] = log(1 +
  g^k)`` (``None`` where ``1 + g^k = 0``), so ``g^i + g^j = g^(i +
  Z[j - i])`` and ``-g^i = g^(i + (order - 1)/2)`` are lookups (Lidl
  and Niederreiter, *Finite Fields*, on Zech logarithms), and so is
  ``g^i - g^j = g^(i + Z[j + (order - 1)/2 - i])``.  ``Z`` takes
  no field call per element: over ``F_p``, ``1 + x`` is ``x + 1``, or
  ``x - (p - 1)`` where the constant digit is ``p - 1``.

Odd extensions above ``TABLE_LIMIT`` add digit by digit through the
base field (``_add_digits``), which is also the tests' oracle.
"""

import functools

from .polynomials import Poly, _trial_factor, monic_polys

TABLE_LIMIT = 1 << 20


class FiniteField:
    """A finite field; either a prime field or an extension of one.

    Public attributes:
      p        characteristic
      e        degree over the prime field
      order    number of elements
      base     base field (None for prime fields)
      modulus  tuple of base-field ints, monic, length deg+1 (None for prime)
      theta    extensions only: the class of the modulus variable, gen()
    """

    def __init__(self, p):
        # prime field constructor; use .extension() for the rest
        if p < 2 or any(p % r == 0 for r in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.e = 1
        self.order = p
        self.base = None
        self.modulus = None
        self.deg_over_base = 1
        self._exp = None
        self._log = None
        self._zech = None
        if p <= TABLE_LIMIT:
            self._build_tables()

    @classmethod
    def extension(cls, base, modulus):
        """Extension of `base` by a monic irreducible `modulus`.

        `modulus` is a tuple of base-field ints, constant term first,
        leading coefficient 1.  Irreducibility is the caller's problem;
        residue_field() and make_field() both check it.
        """
        self = object.__new__(cls)
        m = len(modulus) - 1
        if m < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = base.p
        self.e = base.e * m
        self.order = base.order ** m
        self.base = base
        self.modulus = tuple(modulus)
        self.deg_over_base = m
        self._exp = None
        self._log = None
        self._zech = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        self.theta = self.gen()
        return self

    # -- element encoding -------------------------------------------------

    def digits(self, x):
        """Base-field digit vector of x, length deg_over_base."""
        if self.base is None:
            return (x,)
        b = self.base.order
        out = []
        for _ in range(self.deg_over_base):
            out.append(x % b)
            x //= b
        return tuple(out)

    def from_digits(self, ds):
        if self.base is None:
            return ds[0] % self.p
        b = self.base.order
        x = 0
        for d in reversed(ds):
            x = x * b + d
        return x

    def gen(self):
        """Residue class of the modulus variable (prime fields: 1)."""
        if self.base is None:
            return 1 % self.p
        return self.base.order if self.deg_over_base > 1 else self.neg(self.modulus[0])

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        zech = self._zech
        if zech is None:
            return a ^ b if self.p == 2 else self._add_digits(a, b)
        if not a or not b:
            return a or b
        log = self._log
        la = log[a]
        k = zech[log[b] - la]  # a negative index wraps mod order - 1
        return 0 if k is None else self._exp[(la + k) % len(zech)]

    def neg(self, a):
        if self.base is None:
            return (-a) % self.p
        if self._zech is not None:
            if not a:
                return 0
            return self._exp[(self._log[a] + self._half) % len(self._zech)]
        if self.p == 2:
            return a
        return self.from_digits([self.base.neg(c) for c in self.digits(a)])

    def sub(self, a, b):
        if self.base is None:
            return (a - b) % self.p
        zech = self._zech
        if zech is None:
            return a ^ b if self.p == 2 else self._add_digits(a, self.neg(b))
        if not b:
            return a
        # g^i - g^j = g^i + g^(j + half)
        log, M = self._log, len(zech)
        lb = log[b] + self._half
        if not a:
            return self._exp[lb % M]
        la = log[a]
        k = zech[(lb - la) % M]
        return 0 if k is None else self._exp[(la + k) % M]

    def _add_digits(self, a, b):
        """a + b digit by digit through the tower: the path of odd
        extensions without tables, and the oracle for the others."""
        return self.from_digits(list(map(self.base.add, self.digits(a),
                                         self.digits(b))))

    def is_zero(self, a):
        return a == 0

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        if self.base is None:
            return (a * b) % self.p
        return self._mul_poly(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._log is not None:
            return self._exp[(-self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        n = int(n)
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if n else 1
        if self._log is not None:
            return self._exp[(self._log[a] * n) % (self.order - 1)]
        n %= self.order - 1
        r, b = 1, a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def _mul_poly(self, a, b):
        # the digit vectors' Poly product over the base, mod the modulus
        base = self.base
        prod = Poly(base, self.digits(a)) * Poly(base, self.digits(b))
        return self.from_digits((prod % Poly(base, self.modulus)).coeffs)

    def _build_tables(self):
        n = self.order
        # least primitive g by int code; pow has no tables to use yet.
        # Above degree 1 the base constants (codes < b) have order < b
        fac = _trial_factor(n - 1)
        lo = 1 if self.deg_over_base == 1 else self.base.order
        g = next((c for c in range(lo, n)
                  if all(self.pow(c, (n - 1) // f) != 1 for f in fac)), None)
        if g is None:
            raise ArithmeticError("no generator of GF(%d)^*" % n)
        if self.deg_over_base > 1 and g == self.base.order:
            exp = self._x_powers()
        else:
            exp = list(self._powers(g))
        log = [None] * n
        for k, x in enumerate(exp):
            log[x] = k
        self._exp, self._log = exp, log
        if self.base is not None and self.p != 2:
            # Zech logarithms Z[k] = log(1 + g^k); 1 + x moves only the
            # constant digit c, by step[c] (over F_p: 1, or 1 - p at c = p - 1)
            bb = self.base.order
            step = [self.base.add(c, 1) - c for c in range(bb)]
            self._zech = [log[x + step[x % bb]] for x in exp]
            self._half = (n - 1) // 2  # -1 = g^half

    def _halves(self, dmap):
        """Half-code tables (lo, hi) of the digit-wise map v -> dmap(i, v)
        at digit i: it sends x to lo[x % bk] + hi[x // bk], where
        bk = b^ceil(m/2) (m = deg_over_base, b = the base's order)."""
        m, b = self.deg_over_base, self.base.order
        bk = b ** ((m + 1) // 2)
        tabs = [[0], [0]]
        for i in range(m):
            col = [dmap(i, v) * b ** i for v in range(b)]
            h = tabs[b ** i >= bk]
            h[:] = [c + u for c in col for u in h]
        return tabs

    def _fold_tables(self):
        """fold[t], the half-code tables of + t*(X^m - modulus), for every
        base digit t (fold[0] is the identity)."""
        base = self.base
        return [self._halves(lambda i, v, t=t: base.add(
            v, base.mul(t, base.neg(self.modulus[i]))))
            for t in range(base.order)]

    def _x_powers(self):
        """X^0, ..., X^(order - 2) for deg_over_base m >= 2, as one
        comprehension of the shift-and-fold step x -> x*X.  Over F_2 it
        is x << 1, XOR the modulus where the top bit was set.  Otherwise
        x*X is the shift (x mod top)*X folded by fold[t], t = x // top
        the top digit.  The fold tables split the code at the digit
        k = ceil(m/2), so the low half of x*X reads the k - 1 lowest
        digits of x and t (lo), and the high half reads x // c,
        c = b^(k - 1), whose top digit is t (hi).  fold[0] is the
        identity, so the step has no branch."""
        n, m, x = self.order, self.deg_over_base, 1
        if self.p == 2 and self.base.base is None:
            red, s = (0, self.from_digits(self.modulus)), m - 1
            return [1] + [x := x << 1 ^ red[x >> s] for _ in range(n - 2)]
        b = self.base.order
        top, c, fold = b ** (m - 1), b ** ((m - 1) // 2), self._fold_tables()
        lo = [fold[t][0][j * b] for t in range(b) for j in range(c)]
        hi = [fold[t][1][r] for t in range(b) for r in range(top // c)]
        return [1] + [x := lo[x % c + x // top * c] + hi[x // c]
                      for _ in range(n - 2)]

    def _powers(self, g):
        """g^0, ..., g^(order - 2): x*g by Horner's rule in g's digits c,
        acc = acc*X + c*x, where times X shifts one digit up and folds the
        top digit t back as t*(X^m - modulus).  The path of every g other
        than X, and the oracle of _x_powers."""
        n, m, x = self.order, self.deg_over_base, 1
        base = self.base
        gd = self.digits(g)
        gd = gd[:max(j for j, c in enumerate(gd) if c) + 1]
        if base is None:
            for _ in range(n - 1):
                yield x
                x = x * g % self.p
        elif self.p == 2 and base.base is None:
            mod = self.from_digits(self.modulus)  # binary: add is XOR
            for _ in range(n - 1):
                yield x
                acc = 0
                for c in reversed(gd):  # shift, fold the top bit, add c*x
                    acc = acc << 1 ^ (mod if acc >> m - 1 else 0) ^ (x if c else 0)
                x = acc
        else:
            # int codes: a digit-wise map of x is lo[x % bk] + hi[x // bk]
            b, bmul = base.order, base.mul
            top, bk = b ** (m - 1), b ** ((m + 1) // 2)
            # fold[t]: + t*(X^m - modulus); scale[c]: times the digit c
            fold = self._fold_tables()
            scale = {c: self._halves(lambda i, v, c=c: bmul(c, v))
                     for c in gd if c}
            lo, hi = scale[gd[-1]]
            for _ in range(n - 1):
                yield x
                acc = x if gd[-1] == 1 else lo[x % bk] + hi[x // bk]
                for c in gd[-2::-1]:
                    t, r = divmod(acc, top)
                    acc = r * b
                    if t:
                        f_lo, f_hi = fold[t]
                        acc = f_lo[acc % bk] + f_hi[acc // bk]
                    if c:
                        s_lo, s_hi = scale[c]
                        acc = self._add_digits(acc, s_lo[x % bk] + s_hi[x // bk])
                x = acc

    # -- misc ---------------------------------------------------------------

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def mult_order(self, a):
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        if self._log is not None:
            from math import gcd
            return (self.order - 1) // gcd(self._log[a], self.order - 1)
        n = self.order - 1
        for f in sorted(_trial_factor(n)):
            while n % f == 0 and self.pow(a, n // f) == 1:
                n //= f
        return n

    def fmt(self, x):
        """Render an element: prime -> int, extension -> g^j / 0 / 1."""
        if self.base is None or x < self.base.order:
            return str(x)
        if self._log is not None:
            return "g^%d" % self._log[x]
        return "#%d" % x

    def __repr__(self):
        if self.base is None:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.e)

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.e == other.e
                and self.modulus == other.modulus
                and (self.base == other.base))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))


# ---------------------------------------------------------------------------


@functools.cache
def make_field(p, e=1):
    """GF(p^e) with the lexicographically least monic irreducible modulus.

    Candidate moduli are ordered by their integer encoding (constant digit
    first, base p).  e == 1 gives the prime field itself.
    """
    if e == 1:
        return FiniteField(p)
    prime = make_field(p)
    for cand in monic_polys(prime, e):
        if cand.is_irreducible():
            return FiniteField.extension(prime, cand.coeffs)
    raise ArithmeticError("no monic irreducible of degree %d over GF(%d)"
                          % (e, p))


@functools.cache
def residue_field(P):
    """A/PA for a monic irreducible P in F_q[T].

    Returns a FiniteField extension of P's coefficient field; the class
    of T is field.theta.  Elements embed F_q as ints < q.  Cached: the
    same P always hands back the same field object (and its tables).
    """
    if not isinstance(P, Poly):
        raise TypeError("P must be a Poly")
    if not P.is_monic():
        raise ValueError("P must be monic")
    if not P.is_irreducible():
        raise ValueError("P must be irreducible")
    return FiniteField.extension(P.field, P.coeffs)


def residue_rep(P, x):
    """The representative in F_q[T], of degree < deg P, of x in
    residue_field(P)."""
    return Poly(P.field, residue_field(P).digits(x))
