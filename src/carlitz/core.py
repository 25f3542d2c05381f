"""Carlitz module core: the twisted-polynomial action, exponential and
logarithm in their completed homes, factorial tables and
Bernoulli-Carlitz numbers.

Notation: A = F_q[T]; D_i = prod_{j<i} (T^{q^i} - T^{q^j}) are the
exponential denominators, L_i = prod_{1<=j<=i} (T^{q^j} - T) the
logarithm ones, Pi(n) = prod D_i^{n_i} the Carlitz factorial over the
base-q digits of n.
"""

# laurent as a module, compiled when exp_eval or d_inverse first reads
# it: a scan, which calls neither, never compiles it
from . import laurent
from .fields import residue_field
from .polynomials import Poly, RatFunc


class CarlitzTables:
    """Memoized D_i, L_i, the digits of 1/D_i at infinity, Carlitz
    factorials and the Bernoulli-Carlitz stream BC'_n over one base
    field."""

    _instances = {}

    def __new__(cls, field):
        if field not in cls._instances:
            self = object.__new__(cls)
            self.field = field
            self.q = field.order
            self._D = [Poly.one(field)]
            self._L = [Poly.one(field)]
            self._e = {}
            self._dinv = {}
            self._bc = [(Poly.one(field), ())]  # BC'_0 = 1
            cls._instances[field] = self
        return cls._instances[field]

    def tq_minus(self, i):
        """T^{q^i} - T."""
        F = self.field
        cs = [0] * (self.q ** i + 1)
        cs[1] = F.neg(1)
        cs[-1] = F.add(cs[-1], 1) if len(cs) == 2 else 1
        return Poly(F, cs)

    def D(self, i):
        while len(self._D) <= i:
            k = len(self._D)
            self._D.append(self.tq_minus(k) * self._D[-1].frob_power(self.q))
        return self._D[i]

    def L(self, i):
        while len(self._L) <= i:
            k = len(self._L)
            self._L.append(self.tq_minus(k) * self._L[-1])
        return self._L[i]

    def e_coeffs(self, m):
        """c_0 .. c_m in A with e_m(x) = prod over b in A of degree < m of
        (x - b) = sum c_i x^{q^i}:
        c_i = (-1)^{m-i} D_m / (D_i L_{m-i}^{q^i})."""
        if m not in self._e:
            minus = self.field.neg(1)
            self._e[m] = tuple(
                (self.D(m) // (self.D(i) * self.L(m - i).frob_power(self.q ** i)))
                .scale(minus if (m - i) % 2 else 1) for i in range(m + 1))
        return self._e[m]

    def d_inverse(self, i, width):
        """The first `width` digits of 1/D_i over F_q, from T^{-deg D_i}
        on: a prefix of the widest inverse asked for so far, which is the
        narrower inverse (laurent.inv_coeffs)."""
        have = self._dinv.get(i, ())
        if len(have) < width:
            have = self._dinv[i] = laurent.inv_coeffs(
                self.field, self.D(i).coeffs[::-1], width)
        return have[:width]

    def factorial(self, n):
        """Pi(n) for n >= 0."""
        out = Poly.one(self.field)
        i = 0
        while n:
            digit = n % self.q
            if digit:
                out = out * self.D(i) ** digit
            n //= self.q
            i += 1
        return out

    def vP_D(self, i, d):
        """v_P(D_i) for irreducible P of degree d: sum of q^j over j < i
        with d | (i - j)."""
        return sum(self.q ** j for j in range(i) if (i - j) % d == 0)

    def vP_L(self, i, d):
        return i // d

    # -- streaming BC'_n with factored denominators prod D_i^{e_i} ----------
    #
    # Numerators stay unreduced; gcd work happens only when a value is
    # exported.  Zero values have literally zero numerators, so vanishing
    # checks are free.

    def _bc_extend(self, n_max):
        F, q = self.field, self.q
        while len(self._bc) <= n_max:
            N = len(self._bc)  # computing BC'_N via coefficient of X^{N+1}
            M = N + 1
            terms = []
            i = 1
            while q ** i <= M:
                num, evec = self._bc[M - q ** i]
                if num.coeffs:
                    terms.append((i, num, evec))
                i += 1
            if not terms:
                base = Poly.one(F) if M == 1 else Poly.zero(F)
                self._bc.append((base, ()))
                continue
            # common denominator: componentwise max of evec + 1_i
            width = max(max(len(ev), i + 1) for i, _, ev in terms)
            tgt = [0] * width
            for i, _, ev in terms:
                for j, e in enumerate(ev):
                    need = e + (1 if j == i else 0)
                    tgt[j] = max(tgt[j], need)
                if len(ev) <= i:
                    tgt[i] = max(tgt[i], 1)
            acc = Poly.zero(F)
            for i, num, ev in terms:
                mult = Poly.one(F)
                for j in range(width):
                    have = (ev[j] if j < len(ev) else 0) + (1 if j == i else 0)
                    gap = tgt[j] - have
                    if gap:
                        mult = mult * self.D(j) ** gap
                acc = acc + num * mult
            if M == 1:
                # delta term with denominator prod D^tgt
                delta = Poly.one(F)
                for j, e in enumerate(tgt):
                    delta = delta * self.D(j) ** e
                acc = delta - acc
            else:
                acc = -acc
            while tgt and tgt[-1] == 0:
                tgt.pop()
            self._bc.append((acc, tuple(tgt)))

    def bc_prime(self, n):
        """BC'_n, the coefficient of X^n in X/exp_C(X), as a RatFunc, by
        the exact recurrence from exp_C's defining identity.  Coefficient
        growth is unchecked: a work limit of 512 guards the index rather
        than the arithmetic."""
        if n > 512:
            raise ValueError("index %d beyond work limit 512" % n)
        self._bc_extend(n)
        num, evec = self._bc[n]
        if num.is_zero():
            return RatFunc.zero(self.field)
        den = Poly.one(self.field)
        for j, e in enumerate(evec):
            if e:
                den = den * self.D(j) ** e
        return RatFunc(num, den)


def carlitz_poly(a):
    """phi_a = sum c_i tau^i, the image of a in A{tau} under T -> T + tau,
    as the tuple (c_0, .., c_{deg a}) of A-coefficients; () for a = 0.

    deg_tau phi_a = deg a, leading coefficient 1 for monic a, constant
    tau-coefficient a itself.
    """
    F = a.field
    q = F.order
    # phi_{T^j} by iterated composition with phi_T = T + tau
    powers = [[Poly.one(F)]]
    deg = len(a.coeffs) - 1
    t_poly = Poly.x(F)
    for _ in range(deg):
        prev = powers[-1]
        nxt = [Poly.zero(F)] * (len(prev) + 1)
        for i, c in enumerate(prev):
            # (T + tau) . c tau^i = T*c tau^i + c^q tau^{i+1}
            nxt[i] = nxt[i] + c * t_poly
            nxt[i + 1] = nxt[i + 1] + c.frob_power(q)
        powers.append(nxt)
    out = [Poly.zero(F)] * (deg + 1)
    for j, aj in enumerate(a.coeffs):
        if aj:
            for i, c in enumerate(powers[j]):
                out[i] = out[i] + c.scale(aj)
    return tuple(out)


def carlitz_act(a, x):
    """phi_a(x) for x in any module exposing frobq() and
    mul_scalar_poly(); a is an exact element of A."""
    phi = carlitz_poly(a)
    acc = None
    cur = x
    for i, c in enumerate(phi):
        if not c.is_zero():
            term = cur.mul_scalar_poly(c)
            acc = term if acc is None else acc + term
        if i + 1 < len(phi):
            cur = cur.frobq()
    if acc is None:
        return x.mul_scalar_poly(Poly.zero(a.field))
    return acc


# -- infinity-adic exponential -------------------------------------------------


def exp_eval(z, wtarget):
    """exp_C(z) for z in the ramified completion, certified to w-precision
    wtarget.  exp_C is entire: term w-valuations q^i (w(z) + (q-1) i)
    tend to infinity for every w(z), and are monotone once the inner
    factor clears 1, which is the truncation criterion below."""
    q = z.q
    tab = CarlitzTables(_base_field_of(z))
    wz = z.wval()
    if wz is None:
        return z.truncate_w(wtarget)
    window = max(wtarget, 0) // (q - 1) + 8
    acc = None
    cur = z
    i = 0
    while True:
        term_w = (q ** i) * (wz + (q - 1) * i)
        if i > 0 and term_w >= wtarget and wz + (q - 1) * i >= 1:
            break
        if i == 0:
            term = cur
        else:
            # 1/D_i over F_q, whose ints z.field holds unchanged
            deg = int(tab.D(i).degree)
            width = window + 2 * deg + 4
            term = cur.mul_laurent(laurent.LaurentSeries(
                z.field, deg, tab.d_inverse(i, width), deg + width))
        acc = term if acc is None else acc + term
        cur = cur.frobq()
        i += 1
    return acc.truncate_w(wtarget)


def _base_field_of(z):
    # Carlitz data lives over F_q; z's coefficients are either F_q itself
    # or a residue field extending it
    if z.field.order == z.q:
        return z.field
    if z.field.base is None or z.field.base.order != z.q:
        raise ValueError("coefficient field does not extend F_%d" % z.q)
    return z.field.base


# -- P-adic exponential and logarithm ------------------------------------------


def padic_exp(z):
    """exp_{C,P}(z) for z in m^2 inside the completed cyclotomic ring.

    The result is certified modulo P^prec for the input's precision:
    exp_C is F_q-linear, so a representative off by m^{L prec} perturbs
    the value by exp of that error, which has the same valuation.  The
    terms are computed from the representative widened by the largest
    v_P(D_i) (CarlitzTables.vP_D), so the divisions leave z.prec digits.
    """
    return _padic_orbit_sum(z, kind="exp")


def padic_log(z):
    """log_{C,P}(z) = sum (-1)^i z^{q^i} / L_i on m^2; same convergence
    and certification story as padic_exp (v_P(L_i) = floor(i/d))."""
    return _padic_orbit_sum(z, kind="log")


def _padic_orbit_sum(z, kind):
    ring = z.ring
    q, d = ring.q, ring.d
    tab = CarlitzTables(ring.P.field)
    den, vP = (tab.D, tab.vP_D) if kind == "exp" else (tab.L, tab.vP_L)
    vz = z.vm()
    if vz is None:
        return z
    if vz < 2:
        raise ValueError("argument must lie in m^2, got v_m = %d" % vz)
    target = z.mprec()
    # collect term indices: stop once q^i (v_m(z) - 1) clears the target,
    # since L * v_P(denominator_i) <= q^i for both D_i and L_i
    idxs = [0]
    i = 1
    while (q ** i) * (vz - 1) < target:
        idxs.append(i)
        i += 1
    pad = max(vP(i, d) for i in idxs)
    acc = cur = z.widen(z.prec + pad)
    for i in idxs[1:]:
        cur = cur.frobq()
        term = cur.div_scalar_poly(den(i), vP(i, d))
        acc = acc + (-term if kind == "log" and i % 2 == 1 else term)
    return acc.truncate(z.prec)


# -- Bernoulli-Carlitz numbers -------------------------------------------------


def bc_stream_mod_P(P, n_max):
    """Residues of BC'_0..BC'_{n_max} in A/PA, for n_max <= q^d - 2, by
    BC'_n = sum_{0<i<d} (-1/D_i) BC'_{n - (q^i - 1)}: the D_i with i < d
    are P-units.  z/e_C(z) is a series in z^{q-1}, so the stream visits
    only k = n/(q - 1), with taps s_i = (q^i - 1)/(q - 1).

    Every q-th step is a Frobenius, not a tap sum:
    BC'_{(q-1)qk} = (BC'_{(q-1)k})^q.  Proof: with x = z^{q-1},
    z/e_C(z) = 1/Q(x) for Q = sum_i x^{s_i}/D_i = 1 + x U(x^q), as
    s_i = 1 (mod q) for i > 0.  Then 1/Q = Q^{q-1} (1/Q)^q, where
    (1/Q)^q = sum_k BC'^q_{(q-1)k} x^{qk}, and the only term of
    Q^{q-1} = sum_j binom(q-1, j) x^j U^j whose exponent is 0 mod q is
    its constant 1.  So the tap sum runs at the k prime to q alone: half
    the steps at q = 2, two thirds at q = 3.

    With tables the stream keeps logarithms, where the Frobenius is
    log -> q log mod (q^d - 1) and a zero stays zero, and makes no field
    call beyond d_inverses_mod_P: odd fields add through the Zech table
    (None for log 0); characteristic 2 XORs exp[log + tap] into the sum,
    with log 0 = 2(q^d - 1) pointing into a run of zeros appended to exp.
    Without tables: F.add, F.mul and F.pow.
    """
    F = residue_field(P)
    q = P.field.order
    d = int(P.degree)
    M = q ** d - 1
    if n_max > M - 1:
        raise ValueError("streaming recurrence needs n_max <= q^d - 2")
    K = n_max // (q - 1)
    # a tap past K would read only the zero padding: dropped, with its
    # 1/D_i never computed, and the padding stays within the window
    shifts = [s for s in ((q ** i - 1) // (q - 1) for i in range(d)) if s <= K]
    steps = list(zip(shifts, d_inverses_mod_P(P, len(shifts))))[1:]
    # step k sits at pad + k, after pad zeros: its tap s_i reads step
    # k - s_i at k + (pad - s_i), and its Frobenius step k // q
    pad = max((s for s, _ in steps), default=0)
    log, exp, zech = F._log, F._exp, F._zech
    if log is None:
        vals = [0] * pad + [1]
        for k in range(1, K + 1):
            if k % q:
                acc = 0
                for s, c in steps:
                    acc = F.add(acc, F.mul(vals[k + pad - s], c))
                vals.append(F.neg(acc))
            else:
                vals.append(F.pow(vals[k // q + pad], q))
    else:
        # log(-1/D_i); -1 = g^(M/2) in odd characteristic
        taps = [(pad - s, (log[c] + (M // 2 if F.p != 2 else 0)) % M)
                for s, c in steps]
        if F.p == 2:
            zero = 2 * M
            ex, lz = exp * 2 + [0] * M, log[:]
            lz[0] = zero
            lg = [zero] * pad + [0]
            for k in range(1, K + 1):
                if k % q:
                    acc = 0
                    for o, t in taps:
                        acc ^= ex[lg[k + o] + t]
                    lg.append(lz[acc])
                else:
                    # q log, read back from the tables: no int per step
                    # outlives it
                    l = lg[k // q + pad]
                    lg.append(zero if l == zero else lz[ex[l * q % M]])
            vals = [ex[l] for l in lg]
        else:
            lg = [None] * pad + [0]
            for k in range(1, K + 1):
                if k % q:
                    acc = None
                    for o, t in taps:
                        l = lg[k + o]
                        if l is not None:
                            l += t
                            if acc is None:
                                acc = l
                            else:
                                z = zech[(l - acc) % M]
                                acc = None if z is None else acc + z
                    lg.append(None if acc is None else acc % M)
                else:
                    l = lg[k // q + pad]
                    lg.append(None if l is None else l * q % M)
            vals = [0 if l is None else exp[l] for l in lg]
    out = [0] * (n_max + 1)
    out[::q - 1] = vals[pad:]
    return out


def d_inverses_mod_P(P, count=None):
    """1/D_i in A/PA for i < count (default d = deg P; count <= d), where
    D_i is a P-unit: D_i mod P = prod_{j<i} (theta^{q^i} - theta^{q^j}).
    Entry i costs i products, an inverse and a q-th power: over a residue
    field without tables (degree 41 over F_2, say) all d of them take
    most of a second, so a stream asks only for the taps in its window."""
    F = residue_field(P)
    q = P.field.order
    count = int(P.degree) if count is None else count
    theta_pows = [F.theta]
    for _ in range(1, count):
        theta_pows.append(F.pow(theta_pows[-1], q))
    dinv = [1]
    for i in range(1, count):
        val = 1
        for j in range(i):
            val = F.mul(val, F.sub(theta_pows[i], theta_pows[j]))
        dinv.append(F.inv(val))
    return dinv
