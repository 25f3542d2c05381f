"""The P-th cyclotomic function field K = k(lambda) and its actors.

lambda is a generator of the Carlitz P-torsion; O_K = A[lambda] with
minimal polynomial psi_P(X) = phi_P(X)/X, monic of degree L = q^d - 1
and Eisenstein at P.  The Galois group Delta = (A/PA)^* acts through
sigma_b(lambda) = phi_b(lambda); characters are the powers of the
Teichmuller character omega(sigma_b) = b.

Elements of F tensor K (F = A/PA) are coordinate vectors over the
lambda-power basis with coefficients in F(T); the tensor product of the
two fields is again a field, so plain rational-function arithmetic does
all the bookkeeping.
"""

from __future__ import annotations

from .core import _embed_poly, carlitz_act, carlitz_poly, exp_eval
from .fields import residue_field
from .laurent import LaurentSeries, RamifiedElem, pi_bar
from .padics import (PadicContext, CycPadicRing, embed_tensor_to_padic,
                     lambda_power_rows, teichmuller_lift)
from .polynomials import Poly, RatFunc, monic_irreducibles


class CycField:
    """Precomputed data for one cyclotomic field K = k(lambda_P).

    One instance per P in a process; it owns every table derived from P
    and builds each on first use, once per key.
    """

    _instances = {}

    def __new__(cls, P):
        if P not in cls._instances:
            self = object.__new__(cls)
            self._init(P)
            cls._instances[P] = self
        return cls._instances[P]

    def _init(self, P):
        Fq = P.field
        q = Fq.order
        d = int(P.degree)
        self.P = P
        self.Fq = Fq
        self.q = q
        self.d = d
        self.L = q ** d - 1
        self.F = residue_field(P)

        phi = carlitz_poly(P)
        self.phi_coeffs = list(phi.coeffs)
        # psi_P(X) = phi_P(X)/X: monic degree L, Eisenstein at P
        psi = [Poly.zero(Fq)] * (self.L + 1)
        for i, c in enumerate(phi.coeffs):
            psi[q ** i - 1] = c
        self.psi = psi
        if psi[0] != P or not psi[-1].is_one():
            raise ValueError("psi_P must be monic with constant term P")
        if any(not (phi.coeffs[i] % P).is_zero() for i in range(1, d)):
            raise ValueError("psi_P not Eisenstein at P")

        # reduction rows: coords of lambda^k for k = L .. hi, over A
        self.rows = lambda_power_rows(psi)
        self._cache = {}

    def _memo(self, key, build):
        """The value stored under `key`, calling build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- tables derived from P, each built once per key -----------------------

    def class_table(self, depth):
        """Infinity-adic class sums certified to `depth`."""
        from .lvalues import ClassSumTable  # lvalues builds on this module
        return self._memo(("class_table", depth),
                          lambda: ClassSumTable(self.P, depth))

    def padic_table(self, N):
        """P-adic class sums mod P^N."""
        from .lvalues import PadicClassSumTable
        return self._memo(("padic_table", N),
                          lambda: PadicClassSumTable(self.P, N))

    def infty_embedding(self, field, prec):
        """Embedding of `field` tensor K at the places above infinity."""
        return self._memo(("infty_embedding", field, prec),
                          lambda: InftyEmbedding(self, field, prec))

    def padic_ring(self, N):
        """A_P[lambda] mod P^N."""
        return self._memo(("padic_ring", N), lambda: CycPadicRing(
            PadicContext(self.P, N), self.psi))

    def teichmuller(self, c, N):
        """Teichmuller lift to A_P mod P^N of c in F = A/PA."""
        return self._memo(("teichmuller", c, N),
                          lambda: teichmuller_lift(c, self.padic_ring(N).ctx))

    def irreducibles(self, max_deg):
        """Monic irreducibles of F_q[T] of degree 1..max_deg, ascending."""
        return self._memo(("irreducibles", max_deg),
                          lambda: tuple(monic_irreducibles(self.Fq, max_deg)))

    # -- exact coordinate arithmetic over A ----------------------------------

    def reduce_coords_A(self, conv):
        """Reduce a power-basis convolution (length <= hi+1) to L coords."""
        L = self.L
        out = list(conv[:L]) + [Poly.zero(self.Fq)] * max(L - len(conv), 0)
        for k in range(L, len(conv)):
            c = conv[k]
            if not c.is_zero():
                for j, r in enumerate(self.rows[k - L]):
                    if not r.is_zero():
                        out[j] = out[j] + c * r
        return out

    def mul_coords_A(self, u, v):
        L = self.L
        conv = [Poly.zero(self.Fq)] * (2 * L - 1)
        for i, a in enumerate(u):
            if a.is_zero():
                continue
            for j, b in enumerate(v):
                if not b.is_zero():
                    conv[i + j] = conv[i + j] + a * b
        return self.reduce_coords_A(conv)

    def unit_rep_poly(self, b):
        """Canonical polynomial representative (degree < d) of b in Delta."""
        digs = []
        x = b
        for _ in range(self.d):
            digs.append(x % self.q)
            x //= self.q
        return Poly(self.Fq, digs)

    def sigma_lambda(self, b):
        """Coords over A of sigma_b(lambda) = phi_b(lambda)."""
        def build():
            lam = self.reduce_coords_A([Poly.zero(self.Fq), Poly.one(self.Fq)])
            return tuple(carlitz_act(self.unit_rep_poly(b),
                                     _AElem(self, lam)).coords)
        return self._memo(("sigma_lambda", b), build)

    def sigma_powers(self, b):
        """Coords over A of (sigma_b lambda)^i for i = 0..L-1."""
        def build():
            slam = self.sigma_lambda(b)
            pows = [(Poly.one(self.Fq),) + (Poly.zero(self.Fq),) * (self.L - 1)]
            for _ in range(self.L - 1):
                pows.append(tuple(self.mul_coords_A(pows[-1], slam)))
            return pows
        return self._memo(("sigma_powers", b), build)

    def sigma_power(self, b, m):
        """Coords over A of (sigma_b lambda)^m, any m >= 0."""
        if m < self.L:
            return self.sigma_powers(b)[m]
        return self._memo(("sigma_power", b, m), lambda: tuple(
            self.mul_coords_A(self.sigma_power(b, m - 1), self.sigma_lambda(b))))

    def units(self):
        return range(1, self.L + 1)

    def infty_coset_reps(self):
        """Lexicographically least representatives of F_q^* cosets in
        Delta; these index the places of K above infinity."""
        reps, seen = [], set()
        for b in self.units():
            if b in seen:
                continue
            reps.append(b)
            for c in range(1, self.q):
                seen.add(self.F.mul(c, b))
        return reps


class _AElem:
    """Internal: O_K element with A-coordinates, just enough protocol for
    carlitz_act."""

    __slots__ = ("cyc", "coords")

    def __init__(self, cyc, coords):
        self.cyc = cyc
        self.coords = list(coords)

    def __add__(self, other):
        return _AElem(self.cyc, [a + b for a, b in zip(self.coords, other.coords)])

    def mul_scalar_poly(self, p):
        return _AElem(self.cyc, [c * p for c in self.coords])

    def frobq(self):
        q = self.cyc.q
        conv = [Poly.zero(self.cyc.Fq)] * (q * (self.cyc.L - 1) + 1)
        for i, c in enumerate(self.coords):
            if not c.is_zero():
                conv[q * i] = c.frob_power(q)
        return _AElem(self.cyc, self.cyc.reduce_coords_A(conv))


# -- elements of F tensor K ----------------------------------------------------


class CycElem:
    """Element of (coefficient field) tensor K, lambda-basis coordinates
    as rational functions.  The coefficient field is F_q or A/PA; either
    way F_q sits inside it with matching int encoding, so the reduction
    rows apply verbatim."""

    __slots__ = ("cyc", "field", "coords")

    def __init__(self, cyc, field, coords):
        self.cyc = cyc
        self.field = field
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, cyc, field):
        return cls(cyc, field, [RatFunc.zero(field)] * cyc.L)

    @classmethod
    def one(cls, cyc, field):
        return cls(cyc, field,
                   [RatFunc.one(field)] + [RatFunc.zero(field)] * (cyc.L - 1))

    @classmethod
    def from_A_coords(cls, cyc, field, coords_A):
        return cls(cyc, field,
                   [RatFunc.from_poly(_embed_poly(c, field)) for c in coords_A])

    @classmethod
    def scalar(cls, cyc, field, r):
        out = [RatFunc.zero(field)] * cyc.L
        out[0] = r
        return cls(cyc, field, out)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, CycElem) and self.cyc is other.cyc
                and self.coords == other.coords)

    def __add__(self, other):
        return CycElem(self.cyc, self.field,
                       [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return CycElem(self.cyc, self.field, [-c for c in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cyc, F = self.cyc, self.field
        L = cyc.L
        conv = [RatFunc.zero(F)] * (2 * L - 1)
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if not b.is_zero():
                    conv[i + j] = conv[i + j] + a * b
        return CycElem(cyc, F, _reduce_coords(cyc, F, conv))

    def scale(self, r):
        """Multiply by a scalar rational function (the F tensor k leg)."""
        return CycElem(self.cyc, self.field, [c * r for c in self.coords])

    def scale_coeff(self, c):
        """Multiply by a coefficient-field constant."""
        return CycElem(self.cyc, self.field,
                       [x.scale(c) for x in self.coords])

    def mul_scalar_poly(self, p):
        r = RatFunc.from_poly(_embed_poly(p, self.field))
        return self.scale(r)

    def frobq(self):
        cyc, F = self.cyc, self.field
        q = cyc.q
        conv = [RatFunc.zero(F)] * (q * (cyc.L - 1) + 1)
        for i, c in enumerate(self.coords):
            if not c.is_zero():
                conv[q * i] = c.frob_power(q)
        return CycElem(cyc, F, _reduce_coords(cyc, F, conv))

    def coeff_frob(self):
        """Frobenius on the coefficient leg only: c tensor x -> c^q tensor x.
        Coefficients of the rational functions move, T stays."""
        q = self.cyc.q
        return CycElem(self.cyc, self.field,
                       [c.coeff_frob(q) for c in self.coords])

    def __repr__(self):
        return "CycElem(%r)" % (list(self.coords),)


def _reduce_coords(cyc, field, conv):
    L = cyc.L
    out = list(conv[:L]) + [RatFunc.zero(field)] * max(L - len(conv), 0)
    for k in range(L, len(conv)):
        c = conv[k]
        if c.is_zero():
            continue
        for j, r in enumerate(cyc.rows[k - L]):
            if not r.is_zero():
                out[j] = out[j] + c * RatFunc.from_poly(_embed_poly(r, field))
    return out


def sigma_act(cyc, b, x):
    """Galois action sigma_b on a CycElem (acts on the K leg only)."""
    pows = cyc.sigma_powers(b)
    F = x.field
    out = [RatFunc.zero(F)] * cyc.L
    for i, c in enumerate(x.coords):
        if c.is_zero():
            continue
        for j, m in enumerate(pows[i]):
            if not m.is_zero():
                out[j] = out[j] + c * RatFunc.from_poly(_embed_poly(m, F))
    return CycElem(cyc, F, out)


# -- characters -----------------------------------------------------------------


class Character:
    """omega^n on Delta = (A/PA)^*, values in F = A/PA."""

    def __init__(self, cyc, n):
        self.cyc = cyc
        self.n = n % cyc.L

    def __call__(self, b):
        return self.cyc.F.pow(b, self.n)

    def inv(self):
        return Character(self.cyc, -self.n)

    def pow_frob(self, j=1):
        return Character(self.cyc, self.n * self.cyc.q ** j)

    def is_trivial(self):
        return self.n == 0

    def is_odd(self):
        """chi restricted to F_q^* is the identity embedding."""
        return self.n % (self.cyc.q - 1) == 1 % (self.cyc.q - 1)

    def orbit_rep(self):
        n, L, q = self.n, self.cyc.L, self.cyc.q
        return min((n * q ** j) % L for j in range(self.cyc.d))

    def ring_hom_power(self):
        """j if chi = omega^{q^j} (the characters extending to ring maps
        A/PA -> F), else None."""
        for j in range(self.cyc.d):
            if self.n == pow(self.cyc.q, j, self.cyc.L):
                return j
        return None

    def at_T(self):
        """chi evaluated on the class of T."""
        return self.cyc.F.pow(self.cyc.F.theta, self.n)

    def __eq__(self, other):
        return isinstance(other, Character) and self.cyc is other.cyc \
            and self.n == other.n

    def __repr__(self):
        return "Character(omega^%d)" % self.n


def all_characters(cyc):
    return [Character(cyc, n) for n in range(cyc.L)]


def idempotent_project(chi, x):
    """e_chi x = -sum_b chi^{-1}(b) sigma_b(x).

    The minus sign is |Delta| = q^d - 1 = -1 in characteristic p, making
    e_chi idempotent without a division.
    """
    cyc = chi.cyc
    F = x.field
    acc = CycElem.zero(cyc, F)
    for b in cyc.units():
        acc = acc + sigma_act(cyc, b, x).scale_coeff(chi.inv()(b))
    return -acc


def project_vector(chi, coords, mul_poly, scale):
    """e_chi on a coordinate vector with caller-supplied value ops.

    `coords` has length L over any module where mul_poly(v, p) multiplies
    by an exact A-polynomial and scale(v, c) by an F-constant.  Used for
    analytic (Laurent-coordinate) elements; CycElem has its own path.
    """
    cyc = chi.cyc
    out = None
    for b in cyc.units():
        pows = cyc.sigma_powers(b)
        c = chi.inv()(b)
        if c == 0:
            continue
        moved = [None] * cyc.L
        for i, v in enumerate(coords):
            if v is None:
                continue
            for j, m in enumerate(pows[i]):
                if not m.is_zero():
                    term = mul_poly(v, m)
                    moved[j] = term if moved[j] is None else moved[j] + term
        scaled = [None if v is None else scale(v, c) for v in moved]
        if out is None:
            out = scaled
        else:
            out = [a if b_ is None else (b_ if a is None else a + b_)
                   for a, b_ in zip(out, scaled)]
    return [None if v is None else scale(v, cyc.F.neg(1)) for v in out]


# -- Gauss-Thakur sums ------------------------------------------------------------


def gauss_thakur(chi):
    """tau(chi) in F tensor O_K.

    Basic sums tau(omega^{q^i}) = -sum_b omega^{-q^i}(b) (1 tensor
    sigma_b lambda); general chi = omega^n multiplies them along the
    base-q digits of n.  tau(1) = 1.
    """
    cyc = chi.cyc

    def build():
        digits = []
        n = chi.n
        for _ in range(cyc.d):
            digits.append(n % cyc.q)
            n //= cyc.q
        out = CycElem.one(cyc, cyc.F)
        for i, s in enumerate(digits):
            if s == 0:
                continue
            basic = _basic_gauss(cyc, i)
            for _ in range(s):
                out = out * basic
        return out
    return cyc._memo(("gauss_thakur", chi.n), build)


def _basic_gauss(cyc, i):
    F = cyc.F
    qi = cyc.q ** i
    acc = [RatFunc.zero(F)] * cyc.L
    for b in cyc.units():
        w = F.inv(F.pow(b, qi))
        for j, m in enumerate(cyc.sigma_lambda(b)):
            if not m.is_zero():
                acc[j] = acc[j] + RatFunc.from_poly(_embed_poly(m, F)).scale(w)
    return CycElem(cyc, F, [-c for c in acc])


def lambda_inverse_coords(cyc, field):
    """1/lambda in F(T) coordinates: from psi_P(lambda) = 0,
    lambda^{-1} = -(1/P) sum_{i>=1} c_i lambda^{q^i - 2}."""
    P = RatFunc.from_poly(_embed_poly(cyc.P, field))
    out = [RatFunc.zero(field)] * cyc.L
    conv = [RatFunc.zero(field)] * (cyc.q ** cyc.d)
    for i in range(1, cyc.d + 1):
        c = cyc.phi_coeffs[i]
        if not c.is_zero():
            k = cyc.q ** i - 2
            conv[k] = conv[k] + RatFunc.from_poly(_embed_poly(c, field))
    red = _reduce_coords(cyc, field, conv)
    for j, c in enumerate(red):
        if not c.is_zero():
            out[j] = -(c / P)
    return out


def exact_ratio_to_tau(proj, tau):
    """c with proj = c * tau, or None when proj = 0; raises when proj is
    not proportional to tau."""
    ratio = None
    for a, t in zip(proj.coords, tau.coords):
        if t.is_zero():
            if not a.is_zero():
                raise ArithmeticError("projection not proportional to the "
                                      "Gauss-Thakur generator")
            continue
        r = a / t
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise ArithmeticError("inconsistent ratio across coordinates")
    if ratio is None or ratio.is_zero():
        return None
    return ratio


def b1(chi):
    """B_{1,chi}: the scalar with e_chi(1 tensor 1/lambda) = B tau(chi).

    Returns a RatFunc over F.  Consistency across every coordinate is
    checked, which re-proves the defining property each time it runs.
    """
    cyc = chi.cyc
    F = cyc.F
    lam_inv = CycElem(cyc, F, lambda_inverse_coords(cyc, F))
    ratio = exact_ratio_to_tau(idempotent_project(chi, lam_inv),
                               gauss_thakur(chi))
    return RatFunc.zero(F) if ratio is None else ratio


def normal_basis_eta(cyc):
    """eta = sum_chi tau(chi); descends to O_K and generates it as an
    A[Delta]-module.  Returns (eta in A-coords, determinant of the
    change of basis {sigma_b eta} -> {lambda^i}, a unit of A)."""
    F = cyc.F
    acc = CycElem.zero(cyc, F)
    for n in range(cyc.L):
        acc = acc + gauss_thakur(Character(cyc, n))
    coords_A = []
    for c in acc.coords:
        assert c.is_poly(), "eta coordinate not integral"
        # coefficients must lie in F_q inside F
        cs = []
        for coef in c.num.coeffs:
            assert coef < cyc.q, "eta coordinate does not descend to A"
            cs.append(coef)
        coords_A.append(Poly(cyc.Fq, cs))
    rows = []
    for b in cyc.units():
        img = sigma_act(cyc, b, CycElem.from_A_coords(cyc, cyc.Fq, coords_A))
        rows.append([c for c in img.coords])
    det = _det_ratfunc(rows, cyc.Fq)
    assert det.is_poly() and det.num.degree == 0 and not det.is_zero(), \
        "eta is not a normal integral basis"
    return coords_A, det


def _det_ratfunc(rows, field):
    # fraction-free enough at these sizes: plain Gaussian elimination
    n = len(rows)
    m = [row[:] for row in rows]
    det = RatFunc.one(field)
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return RatFunc.zero(field)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inv()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            for c2 in range(col, n):
                m[r][c2] = m[r][c2] - f * m[col][c2]
    return det


# -- embeddings -------------------------------------------------------------------


class InftyEmbedding:
    """Places of K above infinity: component b sends lambda to
    exp_C(b pi_bar / P), landing in K_v = k_inf(Y)."""

    def __init__(self, cyc, field, prec):
        self.cyc = cyc
        self.field = field
        self.prec = prec  # v-adic (T-exponent) precision
        q = cyc.q
        self.pib = pi_bar(q, field, prec + cyc.d + 4)
        pinv = LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(cyc.Fq), cyc.P), prec + cyc.d + 4,
            field=field, embed=lambda c: c)
        self.pib_over_P = self.pib.mul_laurent(pinv)
        self.reps = cyc.infty_coset_reps()
        self._lambda_pows = {}

    def lambda_powers(self, b):
        """(lambda_v)^i for i < L at the place indexed by coset rep b."""
        if b not in self._lambda_pows:
            q = self.cyc.q
            z = self.pib_over_P.mul_scalar_poly(self.cyc.unit_rep_poly(b))
            wtar = (q - 1) * (self.prec + self.cyc.d + 2)
            lam = exp_eval(z, wtar)
            pows = [RamifiedElem.from_laurent(
                LaurentSeries.const(self.field, 1, self.prec + self.cyc.d + 2), q)]
            for _ in range(self.cyc.L - 1):
                pows.append(pows[-1] * lam)
            self._lambda_pows[b] = pows
        return self._lambda_pows[b]

    def embed_coords(self, coords, b):
        """Value at place b of an element given by lambda-coordinates;
        each coordinate is a RatFunc (over F_q or F) or LaurentSeries."""
        pows = self.lambda_powers(b)
        acc = None
        for i, c in enumerate(coords):
            if c is None:
                continue
            if isinstance(c, RatFunc):
                if c.is_zero():
                    continue
                s = LaurentSeries.from_ratfunc(
                    c, self.prec + self.cyc.d + 2, field=self.field,
                    embed=lambda x: x)
            else:
                s = c
                if s.is_zero():
                    continue
            term = pows[i].mul_laurent(s)
            acc = term if acc is None else acc + term
        if acc is None:
            return RamifiedElem.zero(self.cyc.q, self.field,
                                     (self.cyc.q - 1) * self.prec)
        return acc

    def embed(self, x, b):
        return self.embed_coords(x.coords, b)


def embed_infty(x, prec, places=None):
    """Images of a CycElem at the infinite places (all coset reps by
    default).  Returns dict place-rep -> RamifiedElem."""
    emb = x.cyc.infty_embedding(x.field, prec)
    reps = places if places is not None else emb.reps
    return {b: emb.embed(x, b) for b in reps}


def embed_padic(x, N):
    """Image of a CycElem in the completed ring at P, coordinates via
    the Teichmuller section on the coefficient leg."""
    cyc = x.cyc
    ring = cyc.padic_ring(N)
    vals = [embed_tensor_to_padic(c, ring.ctx,
                                  lambda a: cyc.teichmuller(a, N))
            for c in x.coords]
    prec = min(v.prec for v in vals)
    return ring.elem([v.value for v in vals], prec)
