"""The P-th cyclotomic function field K = k(lambda) and its actors.

lambda is a generator of the Carlitz P-torsion; O_K = A[lambda] with
minimal polynomial psi_P(X) = phi_P(X)/X, monic of degree L = q^d - 1
and Eisenstein at P.  The Galois group Delta = (A/PA)^* acts through
sigma_b(lambda) = phi_b(lambda); characters are the powers of the
Teichmuller character omega(sigma_b) = b.

Every exact element of F tensor K (F = A/PA) that the identities below
use is integral: it lies in F tensor O_K = F[T][lambda], so it is a
coordinate vector over the lambda-power basis with coefficients in
F[T].  Rational functions appear only for the scalars that really are
rational: the dual basis of the Gauss-Thakur sums and B_{1,chi}.
"""

# padics as a module, compiled when padic_ring first reads it: a run at
# the infinite place never compiles it
from . import padics
from .core import carlitz_poly, exp_eval
from .fields import residue_field, residue_rep
from .laurent import LaurentSeries, RamifiedElem, pi_bar
from .polynomials import Poly, RatFunc, monic_irreducibles


def _embed_poly(p, field):
    if p.field is field or p.field == field:
        return p
    # F_q coefficients embed into a residue field as ints < q
    return Poly(field, list(p.coeffs))


def torsion_poly(P):
    """psi_P(X) = phi_P(X)/X as its A-coefficients, constant term first:
    monic of degree q^d - 1, Eisenstein at P."""
    Fq = P.field
    phi = carlitz_poly(P)
    psi = [Poly.zero(Fq)] * Fq.order ** int(P.degree)
    for i, c in enumerate(phi):
        psi[Fq.order ** i - 1] = c
    return psi


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
# Coordinates are lists of length L = len(rows[0]) of Polys over A or
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


def lambda_traces(rows):
    """Tr(lambda^j) in A for j = 0 .. 2L - 2, from the reduction rows.
    Multiplication by lambda^j has trace sum_i coord_i(lambda^{i+j}): L
    at j = 0, rows[i + j - L][i] summed over i >= L - j below L, and
    beyond, lambda^j = sum_i rows[j - L][i] lambda^i makes t_j the sum of
    rows[j - L][i] t_i."""
    L, Fq = len(rows[0]), rows[0][0].field
    t = [Poly(Fq, [L % Fq.p])]
    for j in range(1, L):
        t.append(sum((rows[i + j - L][i] for i in range(L - j, L)),
                     Poly.zero(Fq)))
    for j in range(L, 2 * L - 1):
        t.append(_dot(rows[j - L], t))
    return t


def _dot(u, v):
    """sum u_k v_k over Polys, skipping zeros."""
    return sum((a * b for a, b in zip(u, v) if a and b), Poly.zero(v[0].field))


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

        self.phi_coeffs = list(carlitz_poly(P))
        psi = torsion_poly(P)
        if psi[0] != P or not psi[-1].is_one():
            raise ValueError("psi_P must be monic with constant term P")
        if any(not (self.phi_coeffs[i] % P).is_zero() for i in range(1, d)):
            raise ValueError("psi_P not Eisenstein at P")

        # reduction rows: coords of lambda^k for k = L .. hi, over A; the
        # only copy, shared by the coefficient rings A and F[T]
        self.rows = lambda_power_rows(psi)
        self._cache = {}

    def memo(self, key, build):
        """The value stored under `key`, calling build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- tables derived from P, each built once per key -----------------------

    def class_table(self, depth):
        """Infinity-adic class sums certified to `depth`."""
        from .lvalues import ClassSumTable  # lvalues builds on this module
        return self.memo(("class_table", depth),
                          lambda: ClassSumTable(self.P, depth))

    def padic_table(self, N):
        """P-adic class sums mod P^N."""
        from .lvalues import PadicClassSumTable
        return self.memo(("padic_table", N),
                          lambda: PadicClassSumTable(self.P, N))

    def infty_embedding(self, prec):
        """Embedding of K at the places above infinity, over F_q."""
        return self.memo(("infty_embedding", prec),
                          lambda: InftyEmbedding(self, prec))

    def padic_ring(self, N):
        """O_{K,P} mod P^N in the uniformizer model, with A_P = F[[u]]
        inside it."""
        return self.memo(("padic_ring", N),
                         lambda: padics.MuRing(self.P, N, self.phi_coeffs))

    def irreducibles(self, max_deg):
        """Monic irreducibles of F_q[T] of degree 1..max_deg, ascending: a
        prefix of the longest tuple sieved so far."""
        top, primes = self._cache.get(("irreducibles",), (0, ()))
        if max_deg > top:
            primes = tuple(monic_irreducibles(self.Fq, max_deg))
            self._cache[("irreducibles",)] = max_deg, primes
        return tuple(f for f in primes if f.degree <= max_deg)

    def unit_rep_poly(self, b):
        """Canonical polynomial representative (degree < d) of b in Delta."""
        return residue_rep(self.P, b)

    def sigma_lambda(self, b):
        """Coords over A of sigma_b(lambda) = phi_b(lambda): with phi_b =
        sum c_i tau^i that is sum c_i lambda^{q^i}, and deg b < d keeps
        q^i <= L, inside the reduction rows (lambda^L folds when L = 1)."""
        def build():
            phi = carlitz_poly(self.unit_rep_poly(b))
            return tuple(fold_powers(
                self.rows, [(self.q ** i, c) for i, c in enumerate(phi)],
                Poly.zero(self.Fq)))
        return self.memo(("sigma_lambda", b), build)

    def sigma_power(self, b, m):
        """Coords over A of (sigma_b lambda)^m, any m >= 0.  Each unit b
        keeps one list of powers, extended by one product per power as
        far as a caller reads: the special points read m <= 5, the Galois
        action all m < L."""
        zero = Poly.zero(self.Fq)
        pows = self.memo(("sigma_power", b), lambda: [
            (Poly.one(self.Fq),) + (zero,) * (self.L - 1),
            self.sigma_lambda(b)])
        while len(pows) <= m:
            pows.append(tuple(mul_coords(self.rows, pows[-1], pows[1], zero)))
        return pows[m]

    def tau_dual(self):
        """The L x L matrix over F(T) whose entry [m][n] is the coefficient
        of tau(omega^n) in lambda^m.  The Gauss-Thakur sums span the
        chi-lines of F tensor K (Thakur 1988), and the trace form pairs
        the chi-line with the chi^{-1}-line only, so the coefficient of
        tau(chi) in x is Tr(x tau(chi^{-1})) / D_chi, where D_chi =
        Tr(tau(chi) tau(chi^{-1})) is L (-1)^d P (L for trivial chi)."""
        def build():
            F, L = self.F, self.L
            t = [_embed_poly(c, F) for c in lambda_traces(self.rows)]
            cols = []
            for n in range(L):
                inv = gauss_thakur(Character(self, -n)).coords
                num = [_dot(inv, t[m:]) for m in range(L)]
                D = _dot(gauss_thakur(Character(self, n)).coords, num)
                if D.is_zero():
                    raise ArithmeticError("the Gauss-Thakur sums are not a basis")
                cols.append([RatFunc(c, D) for c in num])
            return [list(row) for row in zip(*cols)]
        return self.memo(("tau_dual",), build)

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


# -- elements of F tensor K ----------------------------------------------------


class CycElem:
    """Element of (coefficient field) tensor O_K, lambda-basis coordinates
    as polynomials in T.  The coefficient field is F_q or A/PA; either
    way F_q sits inside it with matching int encoding, so the reduction
    rows apply verbatim."""

    __slots__ = ("cyc", "field", "coords")

    def __init__(self, cyc, field, coords):
        self.cyc = cyc
        self.field = field
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, cyc, field):
        return cls(cyc, field, [Poly.zero(field)] * cyc.L)

    @classmethod
    def one(cls, cyc, field):
        return cls(cyc, field,
                   [Poly.one(field)] + [Poly.zero(field)] * (cyc.L - 1))

    @classmethod
    def from_A_coords(cls, cyc, field, coords_A):
        return cls(cyc, field, [_embed_poly(c, field) for c in coords_A])

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
        F = self.field
        return CycElem(self.cyc, F, mul_coords(
            self.cyc.rows, self.coords, other.coords, Poly.zero(F)))

    def scale_coeff(self, c):
        """Multiply by a coefficient-field constant."""
        return CycElem(self.cyc, self.field,
                       [x.scale(c) for x in self.coords])

    def mul_scalar_poly(self, p):
        """Multiply by an exact element of A (the F tensor A leg)."""
        p = _embed_poly(p, self.field)
        return CycElem(self.cyc, self.field, [c * p for c in self.coords])

    def frobq(self):
        F = self.field
        return CycElem(self.cyc, F, frob_coords(
            self.cyc.rows, self.coords, self.cyc.q, Poly.zero(F)))

    def __repr__(self):
        return "CycElem(%r)" % (list(self.coords),)


def _sigma_coords(cyc, b, coords, mul_poly):
    """sigma_b on lambda-coordinates: coordinate i moves along the
    A-coordinates of (sigma_b lambda)^i, mul_poly(v, p) multiplying a
    value by an element of A.  None stands for zero, in and out, so a
    series that is only zero to precision is never skipped."""
    moved = [None] * cyc.L
    for i, v in enumerate(coords):
        if v is None:
            continue
        for j, m in enumerate(cyc.sigma_power(b, i)):
            if not m.is_zero():
                term = mul_poly(v, m)
                moved[j] = term if moved[j] is None else moved[j] + term
    return moved


def sigma_act(cyc, b, x):
    """Galois action sigma_b on a CycElem (acts on the K leg only)."""
    F = x.field
    moved = _sigma_coords(cyc, b, [c or None for c in x.coords],
                          lambda v, m: v * m)
    return CycElem(cyc, F, [Poly.zero(F) if v is None else v for v in moved])


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

    def is_trivial(self):
        return self.n == 0

    def is_odd(self):
        """chi restricted to F_q^* is the identity embedding."""
        return self.n % (self.cyc.q - 1) == 1 % (self.cyc.q - 1)

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


def galois_images(cyc, coords, mul_poly):
    """sigma_b of a coordinate vector for every b in cyc.units(), in that
    order: what e_chi sums, for every character chi.

    `coords` has length L over any module where mul_poly(v, p) multiplies
    by an exact A-polynomial; None entries are zero, in and out.
    """
    return [_sigma_coords(cyc, b, coords, mul_poly) for b in cyc.units()]


def project_vector(chi, images):
    """e_chi on a coordinate vector, from its galois_images."""
    cyc = chi.cyc
    out = None
    for b, image in zip(cyc.units(), images):
        c = chi.inv()(b)
        scaled = [None if v is None else v.scale(c) for v in image]
        if out is None:
            out = scaled
        else:
            out = [a if b_ is None else (b_ if a is None else a + b_)
                   for a, b_ in zip(out, scaled)]
    return [None if v is None else v.scale(cyc.F.neg(1)) for v in out]


# -- Gauss-Thakur sums ------------------------------------------------------------


def gauss_thakur(chi):
    """tau(chi) in F tensor O_K.

    tau(1) = 1.  The basic sums tau(omega^{q^j}) = -sum_b omega^{-q^j}(b)
    (1 tensor sigma_b lambda) are e_chi(1 tensor lambda), read off
    sigma_lambda; a general chi = omega^n multiplies them along the
    base-q digits of n.
    """
    cyc = chi.cyc

    def build():
        F, n = cyc.F, chi.n
        # n = 0 takes the empty product below, also when L = 1 makes the
        # trivial character omega itself
        if n and chi.ring_hom_power() is not None:
            acc, inv = [Poly.zero(F)] * cyc.L, chi.inv()
            for b in cyc.units():
                c = F.neg(inv(b))
                for i, a in enumerate(cyc.sigma_lambda(b)):
                    if a:
                        acc[i] = acc[i] + _embed_poly(a, F).scale(c)
            return CycElem(cyc, F, acc)
        out = CycElem.one(cyc, F)
        for i in range(cyc.d):
            for _ in range(n % cyc.q):
                out = out * gauss_thakur(Character(cyc, cyc.q ** i))
            n //= cyc.q
        return out
    return cyc.memo(("gauss_thakur", chi.n), build)


def p_over_lambda_coords(cyc):
    """P/lambda in A[lambda] coordinates: from psi_P(lambda) = 0,
    P/lambda = -sum_{i>=1} c_i lambda^{q^i - 2}."""
    out = [Poly.zero(cyc.Fq)] * cyc.L
    # q^i - 2 < L: no term needs folding
    for i in range(1, cyc.d + 1):
        out[cyc.q ** i - 2] = -cyc.phi_coeffs[i]
    return out


def b1(chi):
    """B_{1,chi}: the scalar with e_chi(1 tensor 1/lambda) = B tau(chi).

    Returns a RatFunc over F, read off the dual basis of the tau's:
    B = (1/P) sum_i (P/lambda)_i tau_dual[i][chi].
    """
    cyc = chi.cyc
    F = cyc.F
    dual = cyc.tau_dual()
    acc = RatFunc.zero(F)
    for i, c in enumerate(p_over_lambda_coords(cyc)):
        if not c.is_zero():
            acc = acc + RatFunc.from_poly(_embed_poly(c, F)) * dual[i][chi.n]
    return acc / RatFunc.from_poly(_embed_poly(cyc.P, F))


# -- embeddings -------------------------------------------------------------------


class InftyEmbedding:
    """Places of K above infinity: component b sends lambda to
    exp_C(b pi_bar / P), landing in K_v = k_inf(Y).  Everything it builds
    (pi_bar, the lambda_v powers, the dual basis) has coefficients in
    F_q; a coordinate over F = A/PA keeps F in embed_coords, as products
    of series take their left operand's field."""

    def __init__(self, cyc, prec):
        self.cyc = cyc
        self.field = cyc.Fq
        self.prec = prec  # v-adic (T-exponent) precision
        self.pib = pi_bar(cyc.q, cyc.Fq, prec + cyc.d + 4)
        pinv = LaurentSeries.from_ratfunc(
            RatFunc(Poly.one(cyc.Fq), cyc.P), prec + cyc.d + 4)
        self.pib_over_P = self.pib.mul_laurent(pinv)
        self.reps = cyc.infty_coset_reps()
        self._lambda_pows = {}
        self._duals = {}

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

    def coords_of(self, values):
        """The inverse of embed_coords: lambda-coordinates, series in 1/T,
        of the element x with value values[b] at each place b.  Coordinate
        j is Tr_{K/k}(x W_j), the sum of the local traces, for the
        trace-dual basis W_j = w_j / P (see recognize_integral)."""
        cyc, F, prec = self.cyc, self.field, self.prec + self.cyc.d + 2
        out = [None] * cyc.L
        for b in self.reps:
            if b not in self._duals:
                over_P = {cyc.q ** t - 1: LaurentSeries.from_ratfunc(
                    RatFunc(a, cyc.P), prec, field=F)
                    for t, a in enumerate(cyc.phi_coeffs) if t}
                self._duals[b] = [self.embed_coords(
                    [None] + [over_P.get(i + j) for i in range(1, cyc.L)]
                    if j else [LaurentSeries.const(F, F.neg(1), prec)], b)
                    for j in range(cyc.L)]
            for j, w in enumerate(self._duals[b]):
                t = (values[b] * w).trace()
                out[j] = t if out[j] is None else out[j] + t
        return out

    def embed_coords(self, coords, b):
        """Value at place b of an element given by lambda-coordinates,
        each a Poly or a LaurentSeries (None for zero), over F_q or F:
        the value is over the coordinates' field (F_q when all are zero)."""
        pows = self.lambda_powers(b)
        acc = None
        for i, c in enumerate(coords):
            # a series zero only to its precision still bounds the value's
            if c is None or isinstance(c, Poly) and c.is_zero():
                continue
            if isinstance(c, Poly):
                c = LaurentSeries.from_poly(c, self.prec + self.cyc.d + 2)
            term = pows[i].mul_laurent(c)
            acc = term if acc is None else acc + term
        if acc is None:
            return RamifiedElem.zero(self.cyc.q, self.field,
                                     (self.cyc.q - 1) * self.prec)
        return acc


def embed_padic(x, N):
    """Image of a CycElem in the completed ring at P mod P^N; its F
    coefficients enter as Teichmuller lifts, constants of the model."""
    return x.cyc.padic_ring(N).elem(x.coords, N)
