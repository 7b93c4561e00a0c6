"""Two references for `core_algebra.blade_product`.

`oracle_blade_product` sorts the concatenated index lists with a bubble
sort, counting swaps, then contracts equal neighbours with the metric: it
shares no code with the library's sign rule.  `loop_blade_product` is the
bit-walking loop that `blade_product` ran before it read its sign from a
per-signature row mask, kept verbatim as the kernel's differential oracle.
"""

from cliffork.core_algebra import blade_indices, blade_mask


def oracle_blade_product(sig, a, b):
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= sig.metric(seq[i])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return blade_mask(out), sign


def loop_blade_product(sig, a, b):
    total = ((a & b) >> sig.p).bit_count()
    s = a >> 1
    while s:
        total += (s & b).bit_count()
        s >>= 1
    return a ^ b, -1 if total & 1 else 1
