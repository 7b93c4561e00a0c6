"""Double coverings of the orthogonal group.

Three layers, all exact:

* ``pt_structure`` -- which of the eight coverings pin^{a,b,c}(p,q) exist,
  keyed on the signature type and the division ring.  The predicted
  (a,b,c) is cross-validated against the (W,E,C) squares of
  ``ext_group_report`` whenever a spinbasis is constructible.
* ``cpt_structure`` -- the quaternionic seven-sign extension; for ring R
  the PT report already carries everything.
* ``pin_membership`` / ``spin_membership`` -- brute-force Clifford-Lipschitz
  membership at low dimension: the spinor norm N(x) = x * reversion(x) must
  be +-1, which gives the inverse N * reversion(x) for the adjoint check.

Both structures name their covers by one ``ext_automorphisms.COVER_TABLE``
row, and ``checked_cover`` rebuilds the cover from the matrix cocycle to
confirm it; the collapse covers of ``quotient`` go through the same helper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .classification import odd_reduction, ring_label, type_index
from .core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    volume_element,
    volume_square_sign,
)
from .ext_automorphisms import (
    ELEMENT_NAMES,
    MATRIX_NAMES,
    CoverRow,
    ExtMatrix,
    cover_row,
    ext_group_report,
    matrix_comm_sign,
    xor_group,
)
from .finite_groups import GroupTable, identify_small_group
from .spinor_repr import SpinBasis, SpinMatrix, build_spinbasis

_ONE = GaussianScalar.of(1)
_MINUS_ONE = GaussianScalar.of(-1)


# ---------------------------------------------------------------------------
# admissible (a,b,c) sets

_ALL_SIGNATURES = tuple(
    (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
)
A_PLUS_SET = tuple(s for s in _ALL_SIGNATURES if s[0] == 1)
A_MINUS_SET = tuple(s for s in _ALL_SIGNATURES if s[0] == -1)

# simple real types: the signature is pinned by (p mod 4, q mod 4)
_REAL_SIGNATURE = {
    0: {
        (0, 0): (1, 1, 1),
        (2, 2): (1, -1, -1),
        (3, 3): (1, -1, 1),
        (1, 1): (1, 1, -1),
    },
    2: {
        (2, 0): (-1, 1, -1),
        (0, 2): (-1, -1, 1),
        (3, 1): (-1, -1, -1),
        (1, 3): (-1, 1, 1),
    },
}


def signature_text(signature: Sequence[int]) -> str:
    """Sign vector as text, e.g. (+,-,-)."""
    return "(" + ",".join("+" if s > 0 else "-" for s in signature) + ")"


# ---------------------------------------------------------------------------
# the formal double cover, read off the matrices

def signed_cover_group(
    mats: Dict[str, ExtMatrix], names: Sequence[str] = MATRIX_NAMES
) -> GroupTable:
    """Abstract group {+-1} x {I, named matrices} with the sign cocycle
    taken from the matrix products.

    This is the double cover itself, not the matrix group: collapsed
    realizations (several names landing on the same matrix up to sign)
    still produce the full-order table.  So it stays beside the BFS closure
    of `ext_group_report(identify=True)`, which names the matrix group, and
    it cannot stand in for the CLI's letter table either: where names
    coincide up to sign (Pi = I at Cl(2,0)) the cocycle names the XOR code,
    not the first matching name.
    """
    codes = sorted({0} | {ELEMENT_NAMES.index(nm) for nm in names})
    ident = SpinMatrix.identity(next(iter(mats.values())).matrix.dim)

    def matrix(code: int) -> SpinMatrix:
        return mats[ELEMENT_NAMES[code]].matrix if code else ident

    def cocycle(a: int, b: int) -> int:
        prod, target = matrix(a) * matrix(b), matrix(a ^ b)
        if prod == target:
            return 1
        if prod == -target:
            return -1
        raise AssertionError("matrix product leaves the signed span of the named matrices")

    group = xor_group(codes, ELEMENT_NAMES, cocycle)
    if group is None:
        raise ValueError("matrix name set is not closed under composition")
    return group


def checked_cover(mats: Dict[str, ExtMatrix], names: Sequence[str]) -> CoverRow:
    """The COVER_TABLE row of the named matrices, keyed on their squares and
    their commutation.  AssertionError unless the cover rebuilt from their
    sign cocycle is the row's identified group."""
    signature = tuple(mats[name].square_sign for name in names)
    abelian = all(matrix_comm_sign(mats[x].matrix, mats[y].matrix) == 1
                  for x, y in combinations(names, 2))
    row = cover_row(signature, abelian)
    built = identify_small_group(signed_cover_group(mats, names))
    if built != row.identified:
        raise AssertionError(
            f"cover table says {row.cover} (= {row.identified}), "
            f"matrix cocycle builds {built}"
        )
    return row


# ---------------------------------------------------------------------------
# PT structure


@dataclass(frozen=True)
class CoveringReport:
    """Which double covers of the reflection group exist, and why.

    signature is the realized/forced sign vector when the clause pins one
    down ((a,b,c), or the seven-sign vector for CPT reports); admissible
    lists every vector the clause allows.  cover_group, automorphism_group
    and cliffordian come from the signature's COVER_TABLE row, and are set
    exactly when signature is.
    """

    sig: Optional[SignatureSpec]
    n: Optional[int]  # complex dimension, for reports over C
    field: str  # "R" | "C"
    ring: str
    signature: Optional[Tuple[int, ...]]
    admissible: Tuple[Tuple[int, ...], ...]
    cover_group: Optional[str]
    automorphism_group: Optional[str]
    cliffordian: Optional[bool]
    notes: Tuple[str, ...] = ()


def predicted_pt_signature(basis: SpinBasis) -> Tuple[int, int, int]:
    """(a,b,c) from the unit census alone, no matrix squaring.

    a is fixed by the type; b and c follow the census differences
    (skew: +squares minus -squares, sym likewise) mod 8, the skew product
    taking the E slot when the skew count is even and the C slot when odd.
    """
    sig = basis.sig
    t = type_index(sig.p, sig.q)
    if sig.n % 2:
        raise ValueError("census prediction needs even p+q")
    census = basis.unit_census()
    a = 1 if t in (0, 4) else -1
    skew_plus = (census.m - census.u) % 8 in (0, 1, 4, 5)
    sym_plus = (census.v - census.l) % 8 in (0, 1, 4, 5)
    skew_sign = 1 if skew_plus else -1
    sym_sign = 1 if sym_plus else -1
    if (census.u + census.m) % 2 == 0:
        return (a, skew_sign, sym_sign)
    return (a, sym_sign, skew_sign)


def _unchecked_pt_row(signature: Tuple[int, ...]) -> CoverRow:
    """The PT row of a signature read without matrices: the (W,E,C) block
    commutes exactly when its minus count is even."""
    return cover_row(signature, signature.count(-1) % 2 == 0)


def _pt_complex(n: int) -> CoveringReport:
    if n < 0:
        raise ValueError("complex dimension must be nonnegative")
    if n % 4 in (0, 1):
        signature = (1, 1, 1)
    else:
        signature = (-1, -1, -1)
    row = _unchecked_pt_row(signature)
    notes = [
        f"over C the two covers alternate with n mod 4: {signature_text(signature)}",
        f"pin^{{a,b,c}}({n},C) = (spin+({n},C) . {row.cover}) / Z2",
    ]
    if n % 2:
        notes.append(
            f"odd n: pin^{{a,b,c}}({n},C) = pin^{{a,b,c}}({n - 1},C) "
            f"u w.pin^{{a,b,c}}({n - 1},C)"
        )
    return CoveringReport(
        sig=None,
        n=n,
        field="C",
        ring="C",
        signature=signature,
        admissible=(signature,),
        cover_group=row.cover,
        automorphism_group=row.group,
        cliffordian=not row.abelian,
        notes=tuple(notes),
    )


def _semisimple_admissible(sig: SignatureSpec) -> Tuple[Tuple[Tuple[int, ...], ...], List[str]]:
    admissible: List[Tuple[int, ...]] = []
    notes = []
    for ap, aq in odd_reduction(sig.p, sig.q)[1]:
        at = type_index(ap, aq)
        block = A_PLUS_SET if at in (0, 4) else A_MINUS_SET
        tag = "a=+" if at in (0, 4) else "a=-"
        notes.append(
            f"ideal factor Cl({ap},{aq}) (type {at}) admits the {tag} four-set"
        )
        for s in block:
            if s not in admissible:
                admissible.append(s)
    return tuple(admissible), notes


def pt_structure(sig_or_n, q: Optional[int] = None, basis: Optional[SpinBasis] = None) -> CoveringReport:
    """PT-structure report for Cl(p,q), or for the complex algebra when a
    bare dimension is given.

    Simple even types pin the signature down; the quaternionic types admit a
    four-set (the basis census selects the realized member); semi-simple
    types report the admissibility sets contributed by their two ideal
    factors; the complex-ring types reduce to the complex rule one
    dimension lower.  Whenever a spinbasis is available the prediction is
    checked against the (W,E,C) squares of `ext_group_report`, and the cover
    is named by `checked_cover`.  A complex SignatureSpec raises ValueError:
    the complex report depends on n alone, so pass the bare dimension.
    """
    if isinstance(sig_or_n, SignatureSpec):
        sig = sig_or_n
    elif q is None:
        return _pt_complex(int(sig_or_n))
    else:
        sig = SignatureSpec(int(sig_or_n), int(q))
    if sig.field == "C":
        raise ValueError(
            f"PT reports over C depend on n alone; pass the dimension {sig.n}, not a mark"
        )

    p, qq = sig.p, sig.q
    t = type_index(p, qq)
    ring = ring_label(p, qq)
    notes: List[str] = []
    signature: Optional[Tuple[int, ...]] = None
    admissible: Tuple[Tuple[int, ...], ...]

    if t in (0, 2):
        signature = _REAL_SIGNATURE[t][(p % 4, qq % 4)]
        admissible = (signature,)
        notes.append(
            f"ring R, type {t}: signature pinned by (p,q) = "
            f"({p % 4},{qq % 4}) mod 4"
        )
    elif t in (4, 6):
        admissible = A_PLUS_SET if t == 4 else A_MINUS_SET
        notes.append(
            f"ring H, type {t}: every {'a=+' if t == 4 else 'a=-'} signature "
            "is admissible; the unit census picks the realized one"
        )
    elif t in (1, 5):
        admissible, add_notes = _semisimple_admissible(sig)
        notes.append(f"ring {ring}, type {t}: semi-simple, no single signature")
        notes.extend(add_notes)
    else:  # 3, 7
        inner = _pt_complex(sig.n - 1)
        signature = inner.signature
        admissible = (signature,)
        notes.append(
            f"ring C, type {t}: structure carried by pin^{{a,b,c}}"
            f"({sig.n - 1},C), here {signature_text(signature)}"
        )

    # the signature's own row; a basis, where there is one, gives the checked row
    row = _unchecked_pt_row(signature) if signature else None
    if basis is None and t in (0, 2, 4, 6) and sig.n <= 10:
        basis = build_spinbasis(sig)
    if basis is not None and t in (0, 2, 4, 6):
        report = ext_group_report(basis, identify=False)
        realized = report.signature[:3]
        row = checked_cover(report.matrices, ("W", "E", "C"))
        predicted = predicted_pt_signature(basis)
        if realized != predicted:
            raise AssertionError(
                f"{sig}: census predicts {signature_text(predicted)}, matrices "
                f"square to {signature_text(realized)}"
            )
        if signature is not None and realized != signature:
            raise AssertionError(
                f"{sig}: type table says {signature_text(signature)}, matrices "
                f"square to {signature_text(realized)}"
            )
        if realized not in admissible:
            raise AssertionError(
                f"{sig}: realized {signature_text(realized)} is not admissible"
            )
        signature = realized
        notes.append(f"checked against basis {basis.name}")

    if row:
        notes.append(
            f"pin^{signature_text(signature)}({p},{qq}) = "
            f"(spin+({p},{qq}) . {row.cover}) / Z2"
        )
    return CoveringReport(
        sig=sig,
        n=None,
        field="R",
        ring=ring,
        signature=signature,
        admissible=admissible,
        cover_group=row.cover if row else None,
        automorphism_group=row.group if row else None,
        cliffordian=not row.abelian if row else None,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# CPT structure


def cpt_structure(sig_or_p, q: Optional[int] = None, basis: Optional[SpinBasis] = None) -> CoveringReport:
    """Seven-sign covering report.

    Ring R carries no extra covers: the PT report is returned as-is (with a
    note).  Ring H takes the seven-letter COVER_TABLE row of the realized
    (W,E,C,Pi,K,S,F) squares and commutation, checked by `checked_cover`
    against the order-16 cover rebuilt from the matrix cocycle.
    """
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.field == "C":
        raise ValueError(
            "CPT reports live on real signatures; mark the complex algebra"
        )
    ring = ring_label(sig.p, sig.q)
    if ring == "R":
        rep = pt_structure(sig, basis=basis)
        return replace(rep, notes=rep.notes + (
            "ring R: no new covers, reduced to the PT structure",))
    if ring != "H":
        raise ValueError(
            f"CPT covering table needs ring R or H, got {ring} for {sig}"
        )
    if basis is None:
        basis = build_spinbasis(sig)
    report = ext_group_report(basis, identify=False)
    row = checked_cover(report.matrices, MATRIX_NAMES)
    notes = (
        f"ring H: minus-count {row.minus}, {'Abelian' if row.abelian else 'Non-Abelian'}",
        f"automorphism group {row.group}, double cover {row.cover} = {row.identified}",
        f"basis {basis.name}",
    )
    return CoveringReport(
        sig=sig,
        n=None,
        field="R",
        ring=ring,
        signature=report.signature,
        admissible=(report.signature,),
        cover_group=row.cover,
        automorphism_group=row.group,
        cliffordian=not row.abelian,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Pin / Spin membership by brute force


def norm_scalar(x: MultiVector) -> Optional[GaussianScalar]:
    """N(x) = x * reversion(x) when that lands in the scalars, else None."""
    nm = x * x.reversion()
    if not nm.is_scalar():
        return None
    return nm.scalar_part()


_MEMBERSHIP_LIMIT = 4


def _membership(x: MultiVector, even_only: bool) -> Optional[Tuple[GaussianScalar, MultiVector]]:
    """(N(x), x^-1) when x is in Pin (in Spin when even_only), else None.

    x^-1 = N * reversion(x) needs no linear solve: when N = x * reversion(x)
    is +-1, x * (N * reversion(x)) = N^2 = 1, and in a finite-dimensional
    algebra a one-sided inverse is two-sided.  Any other N (N(0) = 0) is no.
    """
    sig = x.sig
    if sig.n > _MEMBERSHIP_LIMIT:
        raise ValueError(
            f"brute-force membership is kept to p+q <= {_MEMBERSHIP_LIMIT}"
        )
    if even_only and any(g % 2 for g in x.grades()):
        return None
    nv = norm_scalar(x)
    if nv not in (_ONE, _MINUS_ONE):
        return None
    inv = x.reversion() * nv
    for i in range(1, sig.n + 1):
        image = x * MultiVector.unit(sig, i) * inv
        if any(g != 1 for g in image.grades()):
            return None
    return nv, inv


def pin_membership(x: MultiVector) -> bool:
    """x invertible, N(x) = +-1, and conjugation keeps every generator in
    the grade-1 span."""
    return _membership(x, even_only=False) is not None


def spin_membership(x: MultiVector) -> bool:
    """Pin membership plus even grading."""
    return _membership(x, even_only=True) is not None


@dataclass(frozen=True)
class PinElement:
    value: MultiVector
    norm: GaussianScalar


def pin_element(x: MultiVector) -> PinElement:
    """Validated Pin member; also checks the twisted action (grade-involuted
    left factor), which must land in grade 1 as well."""
    member = _membership(x, even_only=False)
    if member is None:
        raise ValueError("not a Pin element")
    norm, inv = member
    for i in range(1, x.sig.n + 1):
        image = x.grade_involution() * MultiVector.unit(x.sig, i) * inv
        if any(g != 1 for g in image.grades()):
            raise ValueError("twisted action leaves the grade-1 span")
    return PinElement(x, norm)


# ---------------------------------------------------------------------------
# odd-dimensional decomposition


@dataclass(frozen=True)
class OddDecomposition:
    sig: SignatureSpec
    omega_square: int
    branch: str  # "i" when w^2 = -1, "e" (double unit) when w^2 = +1
    identities: Tuple[str, ...]
    unitary_label: Optional[str]


_UNITARY_SPLIT = {
    (3, 0): "SU(2) u iSU(2)",
    (0, 3): "SU(2) u eSU(2)",
    (5, 0): "Sp(2) u eSp(2)",
    (0, 5): "Sp(2) u iSp(2)",
}


def odd_dimensional_decomposition_report(sig_or_p, q: Optional[int] = None) -> OddDecomposition:
    """Pin(p,q) split along the volume element, odd dimensions only.

    The generic identities hold for every odd type; the four low-dimensional
    cases additionally carry their unitary-group dress, the branch letter
    ('i' vs the double unit 'e') decided by the sign of w^2.
    """
    sig = SignatureSpec.of(sig_or_p, q)
    p, qq, n = sig.p, sig.q, sig.n
    if n % 2 == 0:
        raise ValueError(f"Cl({p},{qq}) is even-dimensional, nothing to split")
    w2 = volume_square_sign(p, qq)
    if n <= 11:
        direct = (volume_element(sig) ** 2).scalar_part()
        if direct != GaussianScalar.of(w2):
            raise AssertionError("volume square sign disagrees with the blades")
    branch = "i" if w2 == -1 else "e"
    identities = [f"Pin({p},{qq}) = Spin({p},{qq}) u w.Spin({p},{qq})"]
    identities += [f"Pin({p},{qq}) = Pin({fp},{fq}) u w.Pin({fp},{fq})"
                   for fp, fq in odd_reduction(p, qq)[1]]
    unitary = _UNITARY_SPLIT.get((p, qq))
    if unitary is not None:
        tail = unitary.split(" u ")[1]
        if not tail.startswith(branch):
            raise AssertionError("unitary split letter defies the volume square")
    return OddDecomposition(
        sig=sig,
        omega_square=w2,
        branch=branch,
        identities=tuple(identities),
        unitary_label=unitary,
    )
