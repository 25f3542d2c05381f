"""Irregular indices of P: the n with v_P(BC'_n) > 0, read off the
streaming residues mod P (as bc-scan reads them) or off the exact
Bernoulli-Carlitz numbers, the oracle of the stream at small P."""

from carlitz.core import CarlitzTables, bc_stream_mod_P
from carlitz.fields import residue_field
from carlitz.polynomials import rat_reduce_mod_P


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
