"""Double coverings of the orthogonal group.

Two reports, both exact:

* ``pt_structure`` -- which of the eight coverings pin^{a,b,c}(p,q) exist.
  Even types read (a,b,c) from a spinor basis; semi-simple types report the
  sets their ideal factors admit, complex-ring types the complex rule.
* ``cpt_structure`` -- the seven-sign extension: on ring H the W..F part of
  the basis report whose (W,E,C) part is the PT structure, on ring R the PT
  structure itself.

Both structures read a basis through one helper, `_basis_cover`, and name
their covers by one ``ext_automorphisms.COVER_TABLE`` row.  That row is
picked by ``ExtGroupReport.cover`` from the sign cocycle the report keeps,
for the code subgroup {0, 1, 2, 3} (PT) or all eight codes (CPT): the
squares are its diagonal, the abelianness its symmetry, and the row is
confirmed against the cover the cocycle's form names.  The collapse covers
of ``quotient`` read a report's survivor codes through the same method.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .classification import check_complex_dimension, odd_reduction, ring_label, type_index
from .core_algebra import SignatureSpec
from .ext_automorphisms import CoverRow, cover_row, ext_group_report
from .spinor_repr import SpinBasis, build_spinbasis


# ---------------------------------------------------------------------------
# admissible (a,b,c) sets

_ALL_SIGNATURES = tuple(
    (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
)
A_PLUS_SET = tuple(s for s in _ALL_SIGNATURES if s[0] == 1)
A_MINUS_SET = tuple(s for s in _ALL_SIGNATURES if s[0] == -1)


def signature_text(signature: Sequence[int]) -> str:
    """Sign vector as text, e.g. (+,-,-)."""
    return "(" + ",".join("+" if s > 0 else "-" for s in signature) + ")"


# ---------------------------------------------------------------------------
# PT structure


class CoveringReport(NamedTuple):
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
    check_complex_dimension(n)
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


def _basis_cover(sig: SignatureSpec, basis: Optional[SpinBasis],
                 codes: range) -> Tuple[str, Tuple[int, ...], CoverRow]:
    """(basis name, squares of the coded matrices, the report's cover row of
    those codes) for an even cell, read from `basis`, the canonical one when
    None.

    ValueError for an imaginary unit on ring R (see pt_structure) and above
    MAX_SPINOR_DIM; AssertionError unless the (W,E,C) squares are the census
    prediction.
    """
    if basis is None:
        basis = build_spinbasis(sig)
    if type_index(sig.p, sig.q) in (0, 2) and basis.unit_census().a:
        raise ValueError(
            f"{sig}: basis {basis.name} has imaginary units; ring R covers are "
            "read from a real basis"
        )
    report = ext_group_report(basis)
    realized, predicted = report.signature[:3], predicted_pt_signature(basis)
    if realized != predicted:
        raise AssertionError(
            f"{sig}: census predicts {signature_text(predicted)}, matrices "
            f"square to {signature_text(realized)}"
        )
    return basis.name, tuple(report.signature[c - 1] for c in codes), report.cover(codes)


def pt_structure(sig_or_n, q: Optional[int] = None, basis: Optional[SpinBasis] = None) -> CoveringReport:
    """PT-structure report for Cl(p,q), or for the complex algebra when a
    bare dimension is given.

    Every even type reads (a,b,c) from the (W,E,C) squares of a basis
    (`basis`, or the canonical one), checked against the census prediction,
    and names the cover of the codes 1..3 by `ExtGroupReport.cover`; the
    quaternionic types admit a four-set, of which the basis realizes one
    member.  Semi-simple types report the admissibility sets contributed by
    their two ideal factors; the complex-ring types reduce to the complex
    rule one dimension lower.

    Ring R reads a real basis only, and a basis with an imaginary unit is a
    ValueError.  E and C intertwine each unit with its transpose, so only a
    real orthogonal change of basis keeps their squares; an imaginary unit
    can move them (the Cl(1,1) basis iJ, iA squares to (+,-,+)).  A real
    symmetric unit squares to +I and a real skew one to -I, so every real
    basis has the census (v,l,u,m) = (p,0,q,0), and the census prediction
    pins (a,b,c) by (p,q) mod 4, as the printed type tables do.

    A complex SignatureSpec raises ValueError: the complex report depends on
    n alone, so pass the bare dimension.
    """
    if q is None and not isinstance(sig_or_n, SignatureSpec):
        return _pt_complex(sig_or_n)
    sig = SignatureSpec.of(sig_or_n, q)
    if sig.field == "C":
        raise ValueError(
            f"PT reports over C depend on n alone; pass the dimension {sig.n}, not a mark"
        )

    p, qq = sig.p, sig.q
    t = type_index(p, qq)
    ring = ring_label(p, qq)
    notes: List[str] = []
    signature: Optional[Tuple[int, ...]] = None
    row: Optional[CoverRow] = None
    admissible: Tuple[Tuple[int, ...], ...]

    if t in (0, 2, 4, 6):
        name, signature, row = _basis_cover(sig, basis, range(1, 4))
        if t in (0, 2):
            admissible = (signature,)
            notes.append(
                f"ring R, type {t}: signature pinned by (p,q) = "
                f"({p % 4},{qq % 4}) mod 4"
            )
        else:
            admissible = A_PLUS_SET if t == 4 else A_MINUS_SET
            notes.append(
                f"ring H, type {t}: every {'a=+' if t == 4 else 'a=-'} signature "
                "is admissible; the unit census picks the realized one"
            )
        notes.append(f"checked against basis {name}")
    elif t in (1, 5):
        admissible, add_notes = _semisimple_admissible(sig)
        notes.append(f"ring {ring}, type {t}: semi-simple, no single signature")
        notes.extend(add_notes)
    else:  # 3, 7
        signature = _pt_complex(sig.n - 1).signature
        row = _unchecked_pt_row(signature)
        admissible = (signature,)
        notes.append(
            f"ring C, type {t}: structure carried by pin^{{a,b,c}}"
            f"({sig.n - 1},C), here {signature_text(signature)}"
        )

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

    Ring H takes the seven-letter COVER_TABLE row of the realized
    (W,E,C,Pi,K,S,F) squares and commutation, from the same basis report
    that `pt_structure` reads (W,E,C) from.  Ring R returns the PT report
    with a note: on a real basis Pi is the empty product, so K = W, S = E
    and F = C, and C adds no letter.
    """
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.field == "C":
        raise ValueError(
            "CPT reports live on real signatures; mark the complex algebra"
        )
    ring = ring_label(sig.p, sig.q)
    if ring == "R":
        rep = pt_structure(sig, basis=basis)
        return rep._replace(notes=rep.notes + (
            "ring R: no new covers, reduced to the PT structure",))
    if ring != "H":
        raise ValueError(
            f"CPT covering table needs ring R or H, got {ring} for {sig}"
        )
    name, signature, row = _basis_cover(sig, basis, range(1, 8))
    notes = (
        f"ring H: minus-count {row.minus}, {'Abelian' if row.abelian else 'Non-Abelian'}",
        f"automorphism group {row.group}, double cover {row.cover} = {row.identified}",
        f"basis {name}",
    )
    return CoveringReport(
        sig=sig,
        n=None,
        field="R",
        ring=ring,
        signature=signature,
        admissible=(signature,),
        cover_group=row.cover,
        automorphism_group=row.group,
        cliffordian=not row.abelian,
        notes=notes,
    )

