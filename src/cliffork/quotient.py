"""Collapse of an odd-dimensional algebra along its central volume element.

For odd n the volume element omega is central and omega^2 = +-1.  Scaling by a
unit eps in {1, i} so that (eps*omega)^2 = +1 gives two central idempotents
(1 +- eps*omega)/2, and sending eps*omega -> 1 defines an algebra homomorphism
onto the subalgebra spanned by the first n-1 generators.  This module builds
that homomorphism, decides which of the eight discrete transformations
{1, P, T, PT, C, CP, CT, CPT} survive the collapse, and labels the surviving
symmetry class and the reduced Pin covering.

The eight transformations are the Z2^3 table of `ext_automorphisms`: a
name's code is its position in PHYSICAL_NAMES, with P, T and C as bits 0, 1
and 2, and composition is XOR.  The same code names the realizing matrix
(I, W, E, C, Pi, K, S, F for 1, P, T, PT, C, CP, CT, CPT) and the pin letter
(a..g for codes 1..7).  A covering's label and matrices are read off its
survivor set: {1, T, CP, CPT} has codes 0, 2, 5, 7, so it is realized by
I, E, K, F and labelled pin^{b,e,g}.  A closed survivor set is a subgroup
of the codes, and its concrete cover over a target is the target report's
`ExtGroupReport.cover` of those codes.

The printed catalog is one row per class: its symmetry set (CLASS_SETS) and
how the coefficient conjugation reduces downstairs (_REDUCTIONS), both keyed
by the class label that `_class_label` picks.  A covering's survivors are
that set folded by the reductions.  On ring R (C~I, CP~P, ...) the
conjugation becomes the identity, so each name drops its C factor: C~I
drops to 1 and CP~P renames to P.  On ring H (C~C', CP~C'P) it becomes the
conjugation C' of the quaternionic structure, still a symmetry in its own
right, so the name and its code stay and only the realization changes.

Two routes are kept separate on purpose.  The transfer verdicts come from the
fixed-point condition phi(eps*omega) = eps*omega, evaluated both by a parity
formula and by literally applying phi to eps*omega; the two must agree.  The
class and covering labels follow the printed catalog instead.  Where the
catalog's sign bookkeeping disagrees with the direct computation the reports
keep the catalog label and carry the directly computed set in a note.
`quotient_class` disagrees in every complex cell with n = 3 mod 4, in the
complex cells with n = 1 mod 4 whose mark has type 1 or 5 (C(1,0), C(3,2),
C(5,0), ...), and in the real cells with q odd: 27 of the 45 odd cells with
p+q <= 9.  `quotient_group`, which compares after folding the reductions,
disagrees in 19 of them: every complex cell with n = 3 mod 4, and the type-5
cells among the rest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .classification import odd_reduction, ring_label
from .core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    reversion_sign,
    volume_element,
    volume_square_sign,
    _multivector,
    _term,
)
from .ext_automorphisms import ELEMENT_NAMES, PHYSICAL_NAMES, PIN_LETTERS, ext_group_report
from .finite_groups import GroupTable, identify_small_group
from .spinor_repr import build_spinbasis

__all__ = [
    "EpsilonContext",
    "TransferEntry",
    "TransferReport",
    "QuotientClassReport",
    "QuotientGroupReport",
    "CLASS_SETS",
    "PHYSICAL_NAMES",
    "epsilon_context",
    "central_idempotents",
    "epsilon_map",
    "transfer_report",
    "quotient_class",
    "quotient_group",
]


# ---------------------------------------------------------------------------
# context


class EpsilonContext:
    """Everything the collapse needs: the odd algebra, the unit eps, the
    element eps*omega that gets sent to 1, and the target subalgebra."""

    def __init__(self, sig: SignatureSpec, epsilon: GaussianScalar, omega: MultiVector,
                 ew: MultiVector, target: SignatureSpec,
                 target_labels: Tuple[SignatureSpec, ...]):
        self.sig = sig
        self.epsilon = epsilon  # 1 or i, with (epsilon*omega)^2 = +1
        self.omega = omega
        self.ew = ew  # epsilon * omega
        self.target = target  # drop-last-generator subalgebra, where epsilon_map lands
        self.target_labels = target_labels  # catalog decompositions

    @cached_property
    def transfers(self) -> "TransferReport":
        """The context's transfer report, computed once."""
        return transfer_report(self)


def epsilon_context(sig_or_p, q=None) -> EpsilonContext:
    """Build the collapse context for an odd-dimensional algebra.

    Real algebras need omega^2 = +1, i.e. p-q = 1,5 (mod 8); the other odd
    real types only admit the collapse after complexification (field 'C').
    """
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.n % 2 == 0:
        raise ValueError(f"{sig} is even-dimensional: the volume element is not central")
    omega = volume_element(sig)
    if volume_square_sign(sig.p, sig.q) == 1:
        eps = GaussianScalar.ONE
    elif sig.field == "C":
        eps = GaussianScalar.I
    else:
        raise ValueError(
            f"omega^2 = -1 in {sig} (type {sig.type_index()}): no real unit scalar "
            "fixes that; collapse the complexified algebra instead"
        )
    ew = omega * eps
    sq = ew * ew
    if not (sq.is_scalar() and sq.scalar_part() == GaussianScalar.ONE):
        raise AssertionError(f"(eps*omega)^2 != 1 in {sig}")

    sub, factors = odd_reduction(sig.p, sig.q)
    target = SignatureSpec(*sub, sig.field)
    if sig.field == "C":
        labels: Tuple[SignatureSpec, ...] = (target,)
    else:
        labels = tuple(SignatureSpec(*f) for f in factors)
    return EpsilonContext(sig, eps, omega, ew, target, labels)


def central_idempotents(ctx: EpsilonContext) -> Tuple[MultiVector, MultiVector]:
    """(lambda+, lambda-) = ((1 +- eps*omega)/2), checked by multiplication."""
    sq = ctx.ew * ctx.ew
    if not (sq.is_scalar() and sq.scalar_part() == GaussianScalar.ONE):
        raise ValueError(f"(eps*omega)^2 != 1 in {ctx.sig}")
    one = MultiVector.scalar(ctx.sig, 1)
    half = MultiVector.scalar(ctx.sig, Fraction(1, 2))
    lam_p = half * (one + ctx.ew)
    lam_m = half * (one - ctx.ew)
    for lam in (lam_p, lam_m):
        if not (lam * lam - lam).is_zero():
            raise AssertionError("idempotency failed")
    if not (lam_p * lam_m).is_zero():
        raise AssertionError("idempotents do not annihilate")
    if not (lam_p + lam_m - one).is_zero():
        raise AssertionError("idempotents do not sum to 1")
    return lam_p, lam_m


def epsilon_map(x: MultiVector, ctx: EpsilonContext) -> MultiVector:
    """Collapse x = A1 + eps*omega*A2 to A1 + A2 in the target subalgebra.

    Blades free of the last generator pass through; the rest are folded by one
    more multiplication with eps*omega (its own square is 1, so this recovers
    A2).  The kernel is exactly {y - eps*omega*y}.

    A one-term x, such as a blade or a product of blades, stays one term: it
    is relabelled into the target as it is, or after one fold by eps*omega,
    whose product with it is again one term, so no dict is built.
    """
    if x.sig is not ctx.sig and x.sig != ctx.sig:
        raise ValueError(f"element lives in {x.sig}, context is for {ctx.sig}")
    top = 1 << (ctx.sig.n - 1)
    if x._c is None:
        if x._m & top:
            x = ctx.ew * x
            if x._m & top:
                raise AssertionError("folding by eps*omega left the subalgebra")
        return _term(ctx.target, x._m, x._re, x._im)
    out: Dict[int, GaussianScalar] = {}
    high: Dict[int, GaussianScalar] = {}
    for mask, c in x.items():
        if mask & top:
            high[mask] = c
        else:
            out[mask] = c
    if high:
        folded = ctx.ew * _multivector(ctx.sig, high)
        for mask, c in folded.items():
            if mask & top:
                raise AssertionError("folding by eps*omega left the subalgebra")
            s = out.get(mask)
            if s is not None:
                c = s + c
            if c:
                out[mask] = c
            else:
                del out[mask]
    return _multivector(ctx.target, out)


# ---------------------------------------------------------------------------
# transfer of the discrete transformations


class TransferEntry(NamedTuple):
    name: str
    transfers: bool
    reason: str


class TransferReport(NamedTuple):
    sig: SignatureSpec
    epsilon: GaussianScalar
    entries: Dict[str, TransferEntry]

    def transferred(self) -> Tuple[str, ...]:
        """Surviving transformations, identity included."""
        return ("1",) + tuple(n for n in PHYSICAL_NAMES[1:] if self.entries[n].transfers)


def apply_transformation(x: MultiVector, name: str) -> MultiVector:
    """Act on x with the transformation carrying the given physical name.

    P is the grade involution, T the reversion, PT their composition.  The
    C factor conjugates coefficients; over a real signature it also flips
    every generator that squares to -1 (the two agree on which real form is
    held fixed: for field 'C' the stored generators are that real form).
    """
    code = PHYSICAL_NAMES.index(name)
    out = x
    if code & 1:
        out = out.grade_involution()
    if code & 2:
        out = out.reversion()
    if code & 4:
        out = out.pseudo_conjugation() if x.sig.field == "R" else out.complex_conjugation()
    return out


def _sign_factors(name: str, sig: SignatureSpec, eps: GaussianScalar) -> Tuple[int, str]:
    code = PHYSICAL_NAMES.index(name)
    sign = 1
    parts = []
    if code & 1:
        sign = -sign
        parts.append("grade flip on odd omega: -1")
    if code & 2:
        s = reversion_sign(sig.n)
        sign *= s
        parts.append(f"reversal of {sig.n} generators: {s:+d}")
    if code & 4:
        if sig.field == "R":
            s = -1 if sig.q % 2 else 1
            parts.append(f"flip of {sig.q} negative generators: {s:+d}")
        else:
            s = 1 if eps.is_real() else -1
            parts.append(f"conjugation of eps={eps}: {s:+d}")
        sign *= s
    return sign, "; ".join(parts) if parts else "identity"


def transfer_report(ctx: EpsilonContext) -> TransferReport:
    """Which of the seven nontrivial transformations descend to the target.

    A transformation phi descends iff phi(eps*omega) = eps*omega (otherwise it
    trades the two idempotent ideals and is not single-valued downstairs).
    Each verdict is computed from the parity formula and re-checked by acting
    on eps*omega directly; disagreement is a hard error.
    """
    entries: Dict[str, TransferEntry] = {}
    for name in PHYSICAL_NAMES[1:]:
        sign, why = _sign_factors(name, ctx.sig, ctx.epsilon)
        direct = (apply_transformation(ctx.ew, name) - ctx.ew).is_zero()
        if (sign == 1) != direct:
            raise AssertionError(
                f"parity route ({sign:+d}) disagrees with direct action for {name} on {ctx.sig}"
            )
        verdict = "fixes eps*omega" if sign == 1 else "sends eps*omega to -(eps*omega)"
        entries[name] = TransferEntry(name, sign == 1, f"{why} -> {verdict}")
    if entries["P"].transfers:
        raise AssertionError("grade involution cannot fix an odd volume element")
    return TransferReport(ctx.sig, ctx.epsilon, entries)


# ---------------------------------------------------------------------------
# symmetry classes of the collapsed representations


CLASS_SETS: Dict[str, Tuple[str, ...]] = {
    "a1": ("T", "C~I"),
    "a2": ("T", "C"),
    "b": ("T", "CP", "CPT"),
    "c": ("PT", "C", "CPT"),
    "d1": ("PT", "CP~IP", "CT~IT"),
    "d2": ("PT", "CP", "CT"),
    "e1": ("T", "C~I", "CT~IT"),
    "e2": ("T", "CP~IP", "CPT~IPT"),
    "f1": ("T", "C~C'", "CT~C'T"),
    "f2": ("T", "CP~C'P", "CPT~C'PT"),
}

# how the coefficient conjugation reduces downstairs, per class (no row: it
# does not reduce).  C~I and CP~P fold the C factor away; C~C' does not.
_REDUCTIONS: Dict[str, Tuple[str, ...]] = {
    "a1": ("C~I",),
    "d1": ("CP~P", "CT~T"),
    "e1": ("C~I", "CT~T"),
    "e2": ("CP~P", "CPT~PT"),
    "f1": ("C~C'",),
    "f2": ("CP~C'P",),
}


class QuotientClassReport(NamedTuple):
    sig: SignatureSpec
    label: str
    symmetry_set: Tuple[str, ...]
    ring: str  # ring of the (marked) parent algebra
    transferred: Tuple[str, ...]  # direct fixed-point route, identity included
    notes: Tuple[str, ...] = ()


def _class_label(sig: SignatureSpec) -> str:
    t = sig.type_index()
    if sig.field == "C":
        if sig.n % 4 == 1:
            return {1: "a1", 5: "a2", 3: "b", 7: "b"}[t]
        return {3: "c", 7: "c", 1: "d1", 5: "d2"}[t]
    if t == 1:
        return "e1" if sig.q % 2 == 0 else "e2"
    if t == 5:
        return "f1" if sig.q % 2 == 0 else "f2"
    raise ValueError(f"{sig} (type {t}) is outside the classified cases")


def _strip_tags(names: Tuple[str, ...]) -> Tuple[str, ...]:
    return tuple(n.split("~")[0] for n in names)


def quotient_class(ctx: EpsilonContext) -> QuotientClassReport:
    """Catalog class of the collapsed representation.

    Complex branch: a1/a2/b for n = 1 (mod 4) and c/d1/d2 for n = 3 (mod 4),
    split by the ring of the marked real form.  Real branch: e1/e2 for type 1
    and f1/f2 for type 5, split by the parity of q.  The '~' tags record that
    the coefficient conjugation collapses to the identity (ring R) or to the
    conjugation C' of the quaternionic structure (ring H) downstairs.
    """
    label = _class_label(ctx.sig)
    names = CLASS_SETS[label]
    honest = ctx.transfers.transferred()
    notes = []
    catalog = set(_strip_tags(names))
    direct = set(honest) - {"1"}
    if catalog != direct:
        notes.append(
            "direct fixed-point route keeps {%s}; catalog set retained as the label"
            % ", ".join(n for n in PHYSICAL_NAMES if n in direct)
        )
    return QuotientClassReport(
        ctx.sig, label, names, ring_label(ctx.sig), honest, tuple(notes)
    )


# ---------------------------------------------------------------------------
# collapsed coverings


class QuotientGroupReport(NamedTuple):
    sig: SignatureSpec
    label: str  # e.g. "pin^{a,b,c}", the pin letters of the survivors
    survivors: Tuple[str, ...]  # physical names, identity first
    matrix_names: Tuple[str, ...]  # the matrices with the survivors' codes
    reductions: Tuple[str, ...]  # how coefficient conjugation folds downstairs
    cayley: Optional[GroupTable]  # None when the printed set is not closed
    abstract: Optional[str]
    targets: Tuple[SignatureSpec, ...]
    cover_formulas: Tuple[str, ...]
    cover_names: Dict[str, str]  # per target, concrete double-cover group
    notes: Tuple[str, ...] = ()


def _target_text(sig: SignatureSpec) -> str:
    return f"({sig.n},C)" if sig.field == "C" else f"({sig.p},{sig.q})"


def _concrete_cover(target: SignatureSpec, codes: List[int]) -> Optional[str]:
    try:
        basis = build_spinbasis(target)
    except ValueError:
        return None
    return ext_group_report(basis).cover(codes).cover


def quotient_group(ctx: EpsilonContext) -> QuotientGroupReport:
    """Label of the collapsed Pin covering with its surviving symmetry group.

    The superscript letters are the pin letters of the survivors' codes,
    naming the extended-automorphism matrices that survive the collapse
    (a..g for W,E,C,Pi,K,S,F).  Closed survivor sets (two or four elements)
    come with their multiplication table, the covering formula
    pin^{..}(target) = (spin+(target) . C^{..})/Z2 and the concrete cover
    over each buildable target; the printed three-element set {1,T,C} of
    pin^{b,d} is not closed, so it carries no table.
    """
    sig = ctx.sig
    cls = _class_label(sig)
    reductions = _REDUCTIONS.get(cls, ())
    # the C bit of every code survives unless a reduction folds it away
    keep = 3 if any("'" not in r for r in reductions) else 7
    codes = sorted({0} | {PHYSICAL_NAMES.index(n) & keep for n in _strip_tags(CLASS_SETS[cls])})
    survivors = tuple(PHYSICAL_NAMES[c] for c in codes)
    mat_names = tuple(ELEMENT_NAMES[c] for c in codes)
    letters = ",".join(PIN_LETTERS[c - 1] for c in codes[1:])
    label = f"pin^{{{letters}}}"

    notes = []
    cayley, abstract = None, None
    if all(a ^ b in codes for a in codes for b in codes):
        cayley = GroupTable(list(survivors), [[codes.index(a ^ b) for b in codes] for a in codes], 0)
        abstract = identify_small_group(cayley)
    else:
        miss = PHYSICAL_NAMES[codes[1] ^ codes[2]]
        notes.append(
            "{%s} is not closed (%s.%s = %s missing): no covering group"
            % (", ".join(survivors), survivors[1], survivors[2], miss)
        )

    formulas = []
    covers: Dict[str, str] = {}
    for target in ctx.target_labels:
        text = _target_text(target)
        if cayley is None:
            continue
        formulas.append(f"pin^{{{letters}}}{text} = (spin+{text} . C^{{{letters}}}) / Z2")
        concrete = _concrete_cover(target, codes)
        if concrete is not None:
            covers[text] = concrete

    # the direct route folds by the same rule
    folded = {PHYSICAL_NAMES[PHYSICAL_NAMES.index(n) & keep]
              for n in ctx.transfers.transferred()} - {"1"}
    if folded != set(survivors) - {"1"}:
        notes.append(
            "direct fixed-point route keeps {%s}; catalog label retained"
            % ", ".join(n for n in PHYSICAL_NAMES if n in folded)
        )

    return QuotientGroupReport(
        sig,
        label,
        survivors,
        mat_names,
        reductions,
        cayley,
        abstract,
        ctx.target_labels,
        tuple(formulas),
        covers,
        tuple(notes),
    )
