"""The matrix route to the spinor bases: the differential oracle for the
word constructors of `spinor_repr`.

Before the bases were built on the word ints (d, c, x, z), `spinor_repr`
built them from the 2x2 blocks MAT_A = Z, MAT_B = X and MAT_J = ZX through
Kronecker products and matrix products: `_double` krons the blocks onto the
previous units, `_four_swap` multiplies four units, `_quaternionic_basis`
scales by i, `_complex_even_basis` krons a ladder and `_extend_with_volume`
multiplies the sub-basis out.  Those constructors are kept verbatim, with
`kron` as a function in place of the removed `SpinMatrix.kron` method, and
so are `build_spinbasis(sig, variant)` and `sweep_spinbasis_variants(sig)`
as `oracle_build_spinbasis` and `oracle_sweep_spinbasis_variants`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from cliffork.classification import odd_reduction, type_index
from cliffork.core_algebra import GaussianScalar, SignatureSpec
from cliffork.spinor_repr import (
    SpinBasis,
    SpinMatrix,
    _word,
    check_spinor_size,
    quaternionic_splits,
)

_I = GaussianScalar.I


def kron(a: SpinMatrix, b: SpinMatrix) -> SpinMatrix:
    """The Kronecker product a (x) b: on the word ints when both are words
    (a's qubits lead), else entry by entry."""
    if a.word is None or b.word is None:
        return SpinMatrix(tuple(tuple(x * y for x in r1 for y in r2)
                                for r1 in a.rows for r2 in b.rows))
    d1, c1, x1, z1 = a.word
    d2, c2, x2, z2 = b.word
    k = d2.bit_length() - 1
    return _word(d1 * d2, c1 + c2, x1 << k | x2, z1 << k | z2)


# the 2x2 building blocks
MAT_A = SpinMatrix([[1, 0], [0, -1]])  # real symmetric, squares to +I
MAT_B = SpinMatrix([[0, 1], [1, 0]])  # real symmetric, squares to +I
MAT_J = SpinMatrix([[0, 1], [-1, 0]])  # real skew, squares to -I


# ---------------------------------------------------------------------------
# all-real construction for types 0 and 2


def _double(pos: List[SpinMatrix], neg: List[SpinMatrix]) -> Tuple[List[SpinMatrix], List[SpinMatrix]]:
    d = pos[0].dim if pos else (neg[0].dim if neg else 1)
    ident = SpinMatrix.identity(d)
    new_pos = [kron(MAT_B, ident)] + [kron(MAT_A, m) for m in pos]
    new_neg = [kron(MAT_J, ident)] + [kron(MAT_A, m) for m in neg]
    return new_pos, new_neg


def _four_swap(block: List[SpinMatrix]) -> Tuple[List[SpinMatrix], List[SpinMatrix]]:
    """Convert the first four units of a same-square block; returns
    (converted_four, remaining)."""
    if len(block) < 4:
        raise ValueError("need four units of equal square to swap")
    k = block[0] * block[1] * block[2] * block[3]
    converted = [k * m for m in block[:4]]
    return converted, block[4:]


def _all_real_basis(p: int, q: int) -> List[SpinMatrix]:
    """All-real spinor basis for types 0 and 2, positives first."""
    t = (p - q) % 8
    if t not in (0, 2):
        raise ValueError(f"all-real basis exists only for types 0 and 2, got type {t}")
    n = p + q
    # chain target with the same n and p-q in {0, 2}
    r = n // 2 + (1 if t == 2 else 0)
    s = n - r
    if r == s:
        pos: List[SpinMatrix] = []
        neg: List[SpinMatrix] = []
    else:  # seed Cl(2,0)
        pos, neg = [MAT_A, MAT_B], []
    while len(pos) + len(neg) < n:
        pos, neg = _double(pos, neg)
    # four-swaps to walk p-q by steps of 8
    while len(pos) > p:
        converted, pos = _four_swap(pos)
        neg = converted + neg
    while len(pos) < p:
        converted, neg = _four_swap(neg)
        pos = pos + converted
    return pos + neg


# ---------------------------------------------------------------------------
# quaternionic variants: census splits of an all-real reference


def _quaternionic_basis(p: int, q: int, split: Tuple[int, int, int, int]) -> List[SpinMatrix]:
    r, s, x, y = split
    ref = _all_real_basis(r, s)
    pos_ref, neg_ref = ref[:r], ref[r:]
    new_pos = [m for m in pos_ref[x:]] + [mat * _I for mat in neg_ref[:y]]
    new_neg = [mat for mat in neg_ref[y:]] + [mat * _I for mat in pos_ref[:x]]
    return new_pos + new_neg


# ---------------------------------------------------------------------------
# complex ladder and odd extension


def _complex_even_basis(n: int) -> List[SpinMatrix]:
    """n even; anticommuting units all squaring to +I (entries 0, +-1, +-i)."""
    k = n // 2
    iJ = MAT_J * _I  # imaginary, squares to +I
    mats = []
    for slot in range(k):
        for block in (MAT_B, iJ):
            m = None
            for pos in range(k):
                factor = MAT_A if pos < slot else (block if pos == slot else SpinMatrix.identity(2))
                m = factor if m is None else kron(m, factor)
            mats.append(m)
    return mats


def _extend_with_volume(sub: List[SpinMatrix], target_square: int) -> SpinMatrix:
    """Last unit as c * (product of the sub-basis), c in {1, i}."""
    z = SpinMatrix.identity(sub[0].dim if sub else 1)
    for m in sub:
        z = z * m
    sq = (z * z).sign_of_identity_multiple()
    if sq == target_square:
        return z
    return z * _I


# ---------------------------------------------------------------------------
# public constructors


def oracle_build_spinbasis(sig: SignatureSpec, variant: Optional[int] = None) -> SpinBasis:
    """Construct an exact spinor basis for sig.

    variant indexes the census split for quaternionic types (default 0, the
    first admissible split); other types have a single canonical construction
    and reject variant != 0.  Raises ValueError above MAX_SPINOR_DIM.
    """
    p, q, n = sig.p, sig.q, sig.n
    check_spinor_size(n)

    if sig.field == "C":
        if variant not in (None, 0):
            raise ValueError("complex algebras have a single canonical basis")
        if n % 2 == 0:
            plus = _complex_even_basis(n)
        else:
            sub = _complex_even_basis(n - 1)
            plus = sub + [_extend_with_volume(sub, 1)]
        # mark the real form: generators past p pick up a factor of i
        mats = [m if i <= p else m * _I for i, m in enumerate(plus, start=1)]
        return SpinBasis(sig, mats, name=f"complex(n={n},mark=({p},{q}))")

    t = type_index(p, q)
    if t in (1, 5):
        raise ValueError(
            f"Cl({p},{q}) has type {t} (semi-simple); no faithful irreducible "
            "basis of the table dimension exists, use the idempotent split"
        )

    if t in (0, 2):
        if variant not in (None, 0):
            raise ValueError("types 0 and 2 have a single all-real construction")
        return SpinBasis(sig, _all_real_basis(p, q), name=f"real({p},{q})")

    if t in (4, 6):
        splits = quaternionic_splits(p, q)
        idx = 0 if variant is None else variant
        if not 0 <= idx < len(splits):
            raise ValueError(f"variant {idx} outside 0..{len(splits) - 1} for Cl({p},{q})")
        split = splits[idx]
        return SpinBasis(
            sig,
            _quaternionic_basis(p, q, split),
            name=f"quat({p},{q},split={split})",
        )

    # types 3, 7: odd, ring C
    sub = oracle_build_spinbasis(SignatureSpec(*odd_reduction(p, q)[0])).mats
    last = _extend_with_volume(sub, sig.metric(n))
    return SpinBasis(sig, sub + [last], name=f"odd({p},{q})")


def oracle_sweep_spinbasis_variants(sig: SignatureSpec) -> List[SpinBasis]:
    """All census-split variants for quaternionic types, each followed by
    its order-reversed and sign-flipped tweaks (other types and complex
    marks return the single canonical basis)."""
    t = type_index(sig.p, sig.q)
    if t not in (4, 6) or sig.field == "C":
        return [oracle_build_spinbasis(sig)]
    out = []
    for idx, split in enumerate(quaternionic_splits(sig.p, sig.q)):
        base = oracle_build_spinbasis(sig, variant=idx)
        out.append(base)
        p = sig.p
        pos, neg = base.mats[:p], base.mats[p:]
        out.append(
            SpinBasis(sig, pos[::-1] + neg[::-1], name=base.name + ",reversed")
        )
        flipped = [(-m if i % 2 else m) for i, m in enumerate(base.mats)]
        out.append(SpinBasis(sig, flipped, name=base.name + ",flipped"))
    return out
