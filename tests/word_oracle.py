"""Two references for the word kernels of `ext_automorphisms`.

`word_relation` is the per-pair word branch that `Relation.__call__` ran
before a relation was decided for all units at once as one failure mask
(`Relation.failures`), and `loop_word_cocycle` is the 64-pair loop that
`_word_cocycle` ran before it read the cocycle as eight row masks.  Both
are kept verbatim as the kernels' differential oracles.
"""


def word_relation(relation, u, x):
    """True when the word x satisfies `relation` at the word u."""
    d, cu, xu, zu = u.word
    e, _, xx, zx = x.word
    if d != e:
        raise ValueError("dimension mismatch")
    parity = (xx & zu).bit_count() + (xu & zx).bit_count() + (relation.sign < 0)
    if relation.transpose:
        parity += (xu & zu).bit_count()
    if relation.conj:
        parity += cu
    return parity % 2 == 0


def loop_word_cocycle(words):
    """The sign cocycle of eight words (d, c, x, z) of one dimension, read
    off their ints: M_a M_b has the phase c_a + c_b + 2|x_a & z_b| (as in
    SpinMatrix.__mul__) and the part (x_a ^ x_b, z_a ^ z_b), so c(a, b) is
    i^k for the phase difference k to M_(a^b).  None when a product is not
    +-M_(a^b): an odd k, or another (x, z) part."""
    out = {}
    for a, (_, ca, xa, za) in enumerate(words):
        for b, (_, cb, xb, zb) in enumerate(words):
            _, ct, xt, zt = words[a ^ b]
            k = ca + cb + 2 * (xa & zb).bit_count() - ct
            if k & 1 or xa ^ xb != xt or za ^ zb != zt:
                return None
            out[a, b] = -1 if k & 2 else 1
    return out
