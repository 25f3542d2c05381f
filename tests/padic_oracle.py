"""The P-adic completion on polynomials mod P^N: the oracle that the
uniformizer model carlitz.padics.MuRing is checked against.

PadicContext holds A_P mod P^N as Polys reduced mod P^N, with the
powers of P, Newton unit inverses, Teichmuller lifts by Frobenius
iteration and v_P by synthetic division.  On it, class_totals,
l_padic_poly and special_point_coords are the class-sum table, the
P-adic L-values and the special points as the library computed them
before they moved into A_P = F[[u]].

CycPadicRing is A_P[lambda] mod P^N on the lambda-power basis.  An
element is L coordinates in A reduced mod P^prec, with a shared
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
from carlitz.fields import residue_field, residue_rep
from carlitz.lvalues import class_blocks
from carlitz.polynomials import Poly


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
        the P-adic digits; memoised."""
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


def class_totals(ctx, n_max):
    """Unit sigma -> the sum of the closed-form class blocks of degree
    n <= n_max at sigma, each num * unit_inv(den) mod P^N."""
    PN = ctx.P_pow(ctx.N)
    units = residue_field(ctx.P).units()
    totals = dict.fromkeys(units, Poly.zero(ctx.field))
    for n in range(n_max + 1):
        for sigma, (num, den) in zip(units, class_blocks(ctx.P, n, units)):
            totals[sigma] = (totals[sigma] + (num % PN)
                             * ctx.unit_inv(den % PN, ctx.N)) % PN
    return totals


def l_padic_poly(chi, ctx, totals):
    """L_P(1, chi) mod P^N as a Poly: sum_sigma teich(chi(sigma)) T_sigma."""
    acc = Poly.zero(ctx.field)
    for sigma, s in totals.items():
        c = chi(sigma)
        if c and not s.is_zero():
            acc = ctx.reduce(acc + s * ctx.teichmuller(c))
    return acc


def special_point_coords(cyc, m, ctx, totals):
    """The lambda-coordinates mod P^N of L_{m,P} = sum_sigma
    sigma(lambda)^m T_sigma, summed over sigma."""
    coords = [Poly.zero(cyc.Fq) for _ in range(cyc.L)]
    for sigma, s in totals.items():
        for i, p in enumerate(cyc.sigma_power(sigma, m)):
            coords[i] = ctx.reduce(coords[i] + p * s)
    return coords


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
    ring at padded precision beyond ctx.N.  P, q and d are the
    context's, as MuRing has them.
    """

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.P, self.q, self.d = ctx.P, ctx.q, ctx.d
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
