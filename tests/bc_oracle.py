"""Irregular indices of P: the n with v_P(BC'_n) > 0, read off the
streaming residues mod P (as bc-scan reads them) or off the exact
Bernoulli-Carlitz numbers, the oracle of the stream at small P.  Also
the stream by the tap recurrence at every step, the oracle of
bc_stream_mod_P's Frobenius steps."""

from carlitz.core import CarlitzTables, bc_stream_mod_P, d_inverses_mod_P
from carlitz.fields import residue_field
from carlitz.polynomials import rat_reduce_mod_P


def bc_stream_taps(P, n_max):
    """bc_stream_mod_P(P, n_max) with the tap sum at every step k,
    including the multiples of q that bc_stream_mod_P fills by the
    Frobenius: the same logarithm tables and the same residues."""
    F = residue_field(P)
    q = P.field.order
    d = int(P.degree)
    M = q ** d - 1
    if n_max > M - 1:
        raise ValueError("streaming recurrence needs n_max <= q^d - 2")
    K = n_max // (q - 1)
    shifts = [s for s in ((q ** i - 1) // (q - 1) for i in range(d)) if s <= K]
    steps = list(zip(shifts, d_inverses_mod_P(P, len(shifts))))[1:]
    pad = max((s for s, _ in steps), default=0)  # k - s_i >= -pad
    log, exp, zech = F._log, F._exp, F._zech
    if log is None:
        vals = [0] * pad + [1]
        for k in range(pad + 1, pad + K + 1):
            acc = 0
            for s, c in steps:
                acc = F.add(acc, F.mul(vals[k - s], c))
            vals.append(F.neg(acc))
    else:
        # log(-1/D_i); -1 = g^(M/2) in odd characteristic
        taps = [(s, (log[c] + (M // 2 if F.p != 2 else 0)) % M)
                for s, c in steps]
        if F.p == 2:
            zero = 2 * M
            ex, lz = exp * 2 + [0] * M, log[:]
            lz[0] = zero
            lg = [zero] * pad + [0]
            for k in range(pad + 1, pad + K + 1):
                acc = 0
                for s, t in taps:
                    acc ^= ex[lg[k - s] + t]
                lg.append(lz[acc])
            vals = [ex[l] for l in lg]
        else:
            lg = [None] * pad + [0]
            for k in range(pad + 1, pad + K + 1):
                acc = None
                for s, t in taps:
                    l = lg[k - s]
                    if l is not None:
                        l += t
                        if acc is None:
                            acc = l
                        else:
                            z = zech[(l - acc) % M]
                            acc = None if z is None else acc + z
                lg.append(None if acc is None else acc % M)
            vals = [0 if l is None else exp[l] for l in lg]
    out = [0] * (n_max + 1)
    out[::q - 1] = vals[pad:]
    return out


def hr_scan(P, mode="streaming"):
    """Irregular indices: n with (q-1) | n, 1 < n < q^d - 1 and
    v_P(BC'_n) > 0; each flags a nontrivial omega^{1-n} eigenspace of
    the class module mod P."""
    Fq = P.field
    q = Fq.order
    L = q ** int(P.degree) - 1
    ns = [n for n in range(2, L) if n % (q - 1) == 0]
    if mode == "streaming":
        stream = bc_stream_mod_P(P, L - 1)
        return [n for n in ns if stream[n] == 0]
    if mode == "exact-small":
        F, tab = residue_field(P), CarlitzTables(Fq)
        return [n for n in ns if rat_reduce_mod_P(tab.bc_prime(n), F) == 0]
    raise ValueError("unknown scan mode %r" % mode)
