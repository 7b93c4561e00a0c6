"""The extended automorphism matrices of a spinor basis.

For an even-dimensional basis E_1..E_n the eight-element set
{I, W, E, C, Pi, K, S, F} realizes the discrete (anti)automorphisms.  Each
of the seven is fixed by one relation with every unit E_i, and
DEFINING_RELATIONS holds the seven relations; `ext_matrices` and the
`pseudo` and `defining` sweeps all read them from there.

The eight symmetries form Z2^3, encoded once: a symmetry's code is its
position in ELEMENT_NAMES and in PHYSICAL_NAMES, two symmetries compose to
the XOR of their codes, and the pin letters a..g are the codes 1..7:

    code      0  1  2  3   4   5   6   7
    matrix    I  W  E  C   Pi  K   S   F
    physical  1  P  T  PT  C   CP  CT  CPT
    pin          a  b  c   d   e   f   g

So W..F realize P..CPT, with P = W, T = E and C = Pi as bits 0, 1 and 2, and
pin^{b,e,g} is {1, T, CP, CPT} = {I, E, K, F}.  `xor_group` builds the
group table of a closed code set, plain or as the double cover with a sign
cocycle, and COVER_TABLE names that cover for one, three or seven letters.

Each matrix is a product of unit matrices selected by the census (real or
imaginary, symmetric or skew, read from SpinBasis.unit_species); every
defining relation is verified on construction, and each square is forced to
be exactly +-I.  Those construction checks stay even though the `pseudo` and
`defining` sweeps check the same relations again: they keep every caller
right-or-raise, a user-supplied basis (`ext-group --basis FILE`) included,
while the sweeps re-check to count the checks and to report counterexamples.

Two independent prediction routes accompany the constructions: the universal
factor-count commutation rule, and the printed parity predicates in terms of
the census counts (v, l, u, m).  For the commutation ledger that second route
is one rule, `comm_parity_terms`: per pair, the printed clause and the
reorder cross-term it omits, each pair family written once.  The acceptance
sweeps confirm that both routes agree with the matrix truth on every variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .classification import type_index
from .core_algebra import SignatureSpec
from .finite_groups import GroupTable, generate_group_from_matrices, identify_small_group
from .spinor_repr import (
    SpinBasis,
    SpinMatrix,
    UnitCensus,
    check_spinor_size,
    signed_lookup,
    sweep_spinbasis_variants,
)

# the Z2^3 table of the module docstring: position is the code
MATRIX_NAMES = ("W", "E", "C", "Pi", "K", "S", "F")
ELEMENT_NAMES = ("I",) + MATRIX_NAMES
PHYSICAL_NAMES = ("1", "P", "T", "PT", "C", "CP", "CT", "CPT")
PIN_LETTERS = "abcdefg"  # the letter of code c >= 1 is PIN_LETTERS[c - 1]

# The double cover of a closed letter set, keyed on (letters, minus count,
# abelian): the group the letters form up to sign, the double cover
# {+-1} x letters, and that cover as identify_small_group names it.  One
# letter is a lone collapse survivor, three are the PT block W, E, C and
# seven are W..F; the starred CPT cover is the central product D4oZ4.
COVER_TABLE: Dict[Tuple[int, int, bool], Tuple[str, str, str]] = {
    (1, 0, True): ("Z2", "Z2xZ2", "Z2xZ2"),
    (1, 1, True): ("Z2", "Z4", "Z4"),
    (3, 0, True): ("Z2xZ2", "Z2xZ2xZ2", "Z2xZ2xZ2"),
    (3, 1, False): ("D4/Z2", "D4", "D4"),
    (3, 2, True): ("Z4", "Z4xZ2", "Z4xZ2"),
    (3, 3, False): ("Q4/Z2", "Q4", "Q4"),
    (7, 0, True): ("Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2"),
    (7, 2, False): ("D4", "D4xZ2", "D4xZ2"),
    (7, 4, True): ("Z4xZ2", "Z4xZ2xZ2", "Z4xZ2xZ2"),
    (7, 4, False): ("*Z4xZ2", "*Z4xZ2xZ2", "D4oZ4"),
    (7, 6, False): ("Q4", "Q4xZ2", "Q4xZ2"),
}


class CoverRow(NamedTuple):
    """One COVER_TABLE row: its key, then its three names."""

    letters: int
    minus: int
    abelian: bool
    group: str  # the letters up to sign
    cover: str  # {+-1} x letters
    identified: str  # the cover as identify_small_group names it

    @property
    def order_structure(self) -> Tuple[int, int]:  # (# square +I, # square -I)
        return self.letters - self.minus, self.minus


def cover_row(signature: Sequence[int], abelian: bool) -> CoverRow:
    """The COVER_TABLE row of the letters' squares and their abelianness;
    ValueError for any key outside the table."""
    if any(s not in (1, -1) for s in signature):
        raise ValueError("signature entries must be +-1")
    key = (len(signature), list(signature).count(-1), bool(abelian))
    if key not in COVER_TABLE:
        raise ValueError(f"signature {tuple(signature)} with abelian={abelian} is not a cover")
    return CoverRow(*key, *COVER_TABLE[key])


def xor_group(codes: Sequence[int], names: Sequence[str],
              cocycle: Optional[Callable[[int, int], int]] = None) -> Optional[GroupTable]:
    """The code set `codes` (0 first) under XOR, element c named names[c];
    None when the set is not closed.  With cocycle(a, b) = +-1 it is the
    double cover {+-1} x codes, (s, a)(t, b) = (s t cocycle(a, b), a ^ b),
    with elements +name, -name for each code in turn."""
    if any(a ^ b not in codes for a in codes for b in codes):
        return None
    signs = (1,) if cocycle is None else (1, -1)
    sign = {(a, b): 1 if cocycle is None else cocycle(a, b) for a in codes for b in codes}
    elements = [(s, c) for c in codes for s in signs]
    index = {el: i for i, el in enumerate(elements)}
    table = [[index[s * t * sign[a, b], a ^ b] for t, b in elements] for s, a in elements]
    labels = [names[c] if cocycle is None else ("+" if s > 0 else "-") + names[c]
              for s, c in elements]
    return GroupTable(labels, table, index[1, 0])


@dataclass(frozen=True)
class ExtMatrix:
    name: str
    matrix: SpinMatrix
    factors: Tuple[int, ...]  # unit index set the matrix is proportional to
    form: str  # census form tag
    square_sign: int


@dataclass
class ExtGroupReport:
    sig: SignatureSpec
    basis_name: str
    census: UnitCensus
    matrices: Dict[str, ExtMatrix]
    signature: Tuple[int, ...]  # signs of (W,E,C,Pi,K,S,F)^2
    pi_bar_sign: int  # sign of Pi * conj(Pi)
    commutation: Dict[Tuple[str, str], int]
    abelian: bool
    order_structure: Tuple[int, int]  # (# square +I, # square -I)
    group_name: str
    abstract_group: Optional[str] = None
    notes: List[str] = field(default_factory=list)


# name -> relation(u, x), true when x satisfies the relation at the unit u
DEFINING_RELATIONS = {
    "W": lambda u, x: x * u == -(u * x),  # W u W^-1 = -u: grade involution
    "E": lambda u, x: u * x == x * u.transpose(),  # reversion intertwiner
    "C": lambda u, x: u * x == -(x * u.transpose()),  # conjugation intertwiner
    "Pi": lambda u, x: u * x == x * u.conj(),  # pseudo intertwiner
    "K": lambda u, x: -(u * x) == x * u.conj(),  # K conj(u) K^-1 = -u
    "S": lambda u, x: u * x == x * u.conj().transpose(),  # S conj(u)^T S^-1 = u
    "F": lambda u, x: -(u * x) == x * u.conj().transpose(),  # F conj(u)^T F^-1 = -u
}


def _symdiff(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sorted(set(a) ^ set(b)))


def _checked(basis: SpinBasis, name: str, matrix: SpinMatrix,
             factors: Tuple[int, ...], form: str) -> ExtMatrix:
    relation = DEFINING_RELATIONS[name]
    for i, u in enumerate(basis.mats, start=1):
        if not relation(u, matrix):
            raise AssertionError(f"{name} relation failed at unit {i}")
    return ExtMatrix(name, matrix, factors, form, (matrix * matrix).sign_of_identity_multiple())


def ext_matrices(basis: SpinBasis) -> Dict[str, ExtMatrix]:
    """W, E, C, Pi, K, S, F of an even-dimensional basis, in that order,
    each checked against its DEFINING_RELATIONS entry on every unit.

    W is the volume product.  E takes the skew units when they are even in
    number, else the symmetric ones; C takes the other class.  Pi takes the
    imaginary units when they are even in number, else the real ones.  K, S
    and F are Pi times W, E and C; the census form of S and F is c
    (imag-sym + real-skew factors) or d (imag-skew + real-sym).
    """
    n = basis.sig.n
    if n % 2:
        raise ValueError(f"extended automorphism matrices need even n, got {basis.sig}")
    sp = basis.unit_species()
    units = tuple(range(1, n + 1))
    skew, sym = tuple(sorted(sp["u"] + sp["m"])), tuple(sorted(sp["v"] + sp["l"]))
    imag, real = tuple(sorted(sp["l"] + sp["m"])), tuple(sorted(sp["v"] + sp["u"]))
    if len(skew) % 2 == 0:
        (e_factors, e_form), (c_factors, c_form) = (skew, "skew"), (sym, "sym")
    else:
        (e_factors, e_form), (c_factors, c_form) = (sym, "sym"), (skew, "skew")
    pi_factors, pi_form = (imag, "imaginary") if len(imag) % 2 == 0 else (real, "real")
    w = _checked(basis, "W", basis.product_of(units), units, "volume")
    e = _checked(basis, "E", basis.product_of(e_factors), e_factors, e_form)
    c = _checked(basis, "C", basis.product_of(c_factors), c_factors, c_form)
    pi = _checked(basis, "Pi", basis.product_of(pi_factors), pi_factors, pi_form)
    pi_im = pi_form == "imaginary"
    k = _checked(basis, "K", pi.matrix * w.matrix, _symdiff(pi_factors, units),
                 "real" if pi_im else "imaginary")
    s = _checked(basis, "S", pi.matrix * e.matrix, _symdiff(pi_factors, e_factors),
                 "c" if pi_im == (e_form == "skew") else "d")
    f = _checked(basis, "F", pi.matrix * c.matrix, _symdiff(pi_factors, c_factors),
                 "c" if pi_im == (c_form == "skew") else "d")
    return {m.name: m for m in (w, e, c, pi, k, s, f)}


def signed_letter_table(mats: Dict[str, ExtMatrix]) -> Tuple[List[str], List[List[Optional[str]]]]:
    """The letters I, W, ..., F and their signed multiplication table: cell
    (a, b) names a * b as a signed letter ("-K"), or is None when the
    product is not one of the eight up to sign."""
    elements = list(ELEMENT_NAMES)
    pool = {"I": SpinMatrix.identity(mats["W"].matrix.dim)}
    pool.update((name, mats[name].matrix) for name in MATRIX_NAMES)
    by_matrix = signed_lookup(pool)
    return elements, [[by_matrix.get(pool[a] * pool[b]) for b in elements] for a in elements]


# ---------------------------------------------------------------------------
# predictions from the census (the printed parity laws)


def predicted_pi_bar(census: UnitCensus, pi_form: str) -> int:
    """Sign of Pi * conj(Pi) from the census, factor squares folded in.

    Pi is the ascending product of one reality class, and conj(Pi) = Pi in
    both branches (the imaginary branch has an even factor count), so the
    sign is the plain product square over that class. For the quaternionic
    ring this always lands on -I: the map x -> Pi * conj(x) is an antilinear
    intertwiner, and its square is pinned to -1 by the commutant.
    """
    if pi_form == "imaginary":
        return product_square_sign(census.a, census.l)
    return product_square_sign(census.b, census.u)


def printed_pi_bar_mod4(census: UnitCensus, pi_form: str) -> int:
    """The bare a,b mod 4 parity rule. Valid only when the chosen reality
    class has an even count of negative-square units (see
    printed_pi_bar_applicable); every canonical census satisfies that."""
    count = census.a if pi_form == "imaginary" else census.b
    return 1 if count % 4 in (0, 1) else -1


def printed_pi_bar_applicable(census: UnitCensus, pi_form: str) -> bool:
    negatives = census.l if pi_form == "imaginary" else census.u
    return negatives % 2 == 0


def predicted_K_square(census: UnitCensus, k_form: str) -> int:
    if k_form == "imaginary":
        return 1 if (census.m - census.l) % 8 in (1, 5) else -1
    return 1 if (census.v - census.u) % 8 in (0, 4) else -1


def predicted_S_square(census: UnitCensus, s_form: str) -> int:
    if s_form == "c":
        return 1 if (census.u + census.l) % 8 in (0, 4) else -1
    return 1 if (census.m + census.v) % 8 in (1, 5) else -1


def predicted_F_square(census: UnitCensus, f_form: str) -> int:
    if f_form == "d":
        return 1 if (census.m + census.v) % 8 in (0, 4) else -1
    return 1 if (census.u + census.l) % 8 in (3, 7) else -1


def product_square_sign(total: int, negatives: int) -> int:
    """Square of a product of `total` pairwise-anticommuting units of which
    `negatives` square to -I."""
    sign = -1 if (total * (total - 1) // 2) % 2 else 1
    return -sign if negatives % 2 else sign


# ---------------------------------------------------------------------------
# commutation: matrix truth, universal rule, printed predicates


def universal_comm_sign(factors_x: Sequence[int], factors_y: Sequence[int]) -> int:
    """Products of distinct anticommuting units X (x factors) and Y (y
    factors) sharing t of them satisfy XY = (-1)^(xy - t) YX."""
    x, y = len(factors_x), len(factors_y)
    t = len(set(factors_x) & set(factors_y))
    return -1 if (x * y - t) % 2 else 1


def matrix_comm_sign(a: SpinMatrix, b: SpinMatrix) -> int:
    ab = a * b
    ba = b * a
    if ab == ba:
        return 1
    if ab == -ba:
        return -1
    raise ValueError("matrices neither commute nor anticommute")


def commutation_profile(mats: Dict[str, ExtMatrix]) -> Dict[Tuple[str, str], int]:
    prof = {}
    for i, x in enumerate(MATRIX_NAMES):
        for y in MATRIX_NAMES[i + 1:]:
            prof[(x, y)] = matrix_comm_sign(mats[x].matrix, mats[y].matrix)
    return prof


def comm_parity_terms(pair: Tuple[str, str], forms: Dict[str, str],
                      census: UnitCensus) -> Optional[Tuple[int, int]]:
    """(printed, correction): the commutation parity (0 commute, 1
    anticommute) of a pair of W..F, named in MATRIX_NAMES order as
    `commutation_profile` keys it, by the printed ledger's clause, and the
    cross-term that clause omits.  KeyError for any other pair.

    The pair's matrices (anti)commute by (printed + correction) % 2, so the
    verbatim printed clause holds exactly when correction == 0.  The printed
    derivations split each factor set as (shared block)(rest) and recombine
    the leftovers without the reorder sign between the two leftover blocks.
    Only E or C against Pi, K, S or F meet that slip: their clause has the
    form a*(b + c) and the omitted sign is b*c, with b, c = l, u or v, m
    when keyed on the reality of Pi or K, and l, m or u, v when keyed on
    the c/d form of S or F.  It vanishes on every census the printed
    examples use.  None for the three pairs inside {W, E, C}, whose
    relations the universal factor-count rule fixes.
    """
    v, l, u, m = census.v, census.l, census.u, census.m
    x, y = pair
    if pair in (("W", "E"), ("W", "C"), ("E", "C")):
        return None
    if x in ("E", "C") and y in ("Pi", "K", "S", "F"):
        skew = forms[x] == "skew"
        if y in ("Pi", "K"):
            im = forms[y] == "imaginary"
            a = (m if skew else l) if im else (u if skew else v)
            b, c = (l, u) if im == skew else (v, m)
        else:
            cf = forms[y] == "c"
            a = (u if skew else l) if cf else (m if skew else v)
            b, c = (l, m) if cf == skew else (u, v)
        return a * (b + c) % 2, b * c % 2
    pi_im, k_im = forms["Pi"] == "imaginary", forms["K"] == "imaginary"
    s_c, f_c = forms["S"] == "c", forms["F"] == "c"
    printed = {
        ("W", "Pi"): 0 if pi_im else 1,
        ("W", "K"): 1 if k_im else 0,
        ("W", "S"): 0 if s_c else 1,
        ("W", "F"): 1 if f_c else 0,
        ("Pi", "K"): census.a * census.b,
        ("Pi", "S"): (m if s_c else l) if pi_im else ((v + 1) if s_c else u),
        ("Pi", "F"): (m if f_c else l) if pi_im else (v if f_c else (u + 1)),
        ("K", "S"): ((m + 1) if s_c else l) if k_im else (v if s_c else u),
        ("K", "F"): (m if f_c else (l + 1)) if k_im else (v if f_c else u),
        ("S", "F"): (l + u) * (m + v),
    }[x, y]
    return printed % 2, 0


# ---------------------------------------------------------------------------
# the printed case table: (abc pattern, minus count among defg, type) ->
# admissible groups

_P, _M = 1, -1
ADMISSIBLE_DETAILED: Dict[Tuple[Tuple[int, int, int], int, int], frozenset] = {}


def _admit(abc, dm, typ, name):
    key = (abc, dm, typ)
    ADMISSIBLE_DETAILED.setdefault(key, frozenset())
    ADMISSIBLE_DETAILED[key] = ADMISSIBLE_DETAILED[key] | {name}


_admit((_P, _P, _P), 0, 4, "Z2xZ2xZ2")
_admit((_P, _P, _P), 4, 4, "Z4xZ2")
for _abc, _typ in (((_P, _M, _M), 4), ((_M, _P, _M), 6), ((_M, _M, _P), 6)):
    _admit(_abc, 2, _typ, "Z4xZ2")
    _admit(_abc, 2, _typ, "*Z4xZ2")
_admit((_M, _M, _M), 3, 6, "Q4")
_admit((_P, _M, _M), 4, 4, "Q4")
_admit((_M, _P, _M), 4, 6, "Q4")
_admit((_M, _M, _P), 4, 6, "Q4")
_admit((_P, _M, _P), 1, 4, "D4")
_admit((_P, _P, _M), 1, 4, "D4")
_admit((_M, _P, _P), 1, 6, "D4")
_admit((_P, _P, _P), 2, 4, "D4")
_admit((_P, _M, _M), 0, 4, "D4")
_admit((_M, _P, _M), 0, 6, "D4")
_admit((_M, _M, _P), 0, 6, "D4")
_admit((_P, _M, _P), 3, 4, "*Z4xZ2")
_admit((_P, _P, _M), 3, 4, "*Z4xZ2")
_admit((_M, _P, _P), 3, 6, "*Z4xZ2")
_admit((_M, _M, _M), 1, 6, "*Z4xZ2")


def admissible_groups(signature: Sequence[int], typ: int) -> frozenset:
    """Groups the detailed case table allows for this 7-signature and type.
    Raises when the (pattern, type) slot does not occur."""
    abc = tuple(signature[:3])
    dm = sum(1 for s in signature[3:] if s == -1)
    key = (abc, dm, typ)
    if key not in ADMISSIBLE_DETAILED:
        raise ValueError(
            f"signature {tuple(signature)} with type {typ} is outside the case table"
        )
    return ADMISSIBLE_DETAILED[key]


# ---------------------------------------------------------------------------
# full report and census sweeps


def ext_group_report(basis: SpinBasis, identify: bool = True) -> ExtGroupReport:
    """Matrices, census, signature, commutation ledger and group label of one
    basis, all from a single classification of its units.

    With identify=True the matrix group is also closed by BFS and named.
    That is the group the matrices actually generate, which can be smaller
    than the formal order-16 double cover `coverings.signed_cover_group`
    builds from the sign cocycle: the two disagree on 21 of the 25 even
    cells with p+q <= 8 (Cl(6,2): Z4xZ2 here, Z4xZ2xZ2 there).  Both stay.
    """
    mats = ext_matrices(basis)
    census = basis.unit_census()
    signature = tuple(mats[name].square_sign for name in MATRIX_NAMES)
    prof = commutation_profile(mats)
    abelian = all(s == 1 for s in prof.values())
    row = cover_row(signature, abelian)
    report = ExtGroupReport(
        sig=basis.sig,
        basis_name=basis.name,
        census=census,
        matrices=mats,
        signature=signature,
        pi_bar_sign=(mats["Pi"].matrix * mats["Pi"].matrix.conj()).sign_of_identity_multiple(),
        commutation=prof,
        abelian=abelian,
        order_structure=row.order_structure,
        group_name=row.group,
    )
    if basis.sig.field == "R" and type_index(basis.sig.p, basis.sig.q) in (4, 6):
        allowed = admissible_groups(signature, type_index(basis.sig.p, basis.sig.q))
        if row.group not in allowed:
            raise AssertionError(
                f"classified {row.group} but the case table admits {sorted(allowed)}"
            )
    if identify:
        table = generate_group_from_matrices([m.matrix for m in mats.values()])
        report.abstract_group = identify_small_group(table)
        report.notes.append(
            f"signed group of order {len(table.elements)} = {report.abstract_group}"
        )
    if mats["Pi"].form == "imaginary" and census.a == 0:
        report.notes.append("Pi is the empty product (identity): all units real")
    return report


def quaternionic_cells(max_n: int) -> List[SignatureSpec]:
    """Every quaternionic signature (types 4 and 6) with p + q <= max_n.
    Raises ValueError when max_n passes the spinor size limit."""
    check_spinor_size(max_n)
    return [SignatureSpec(p, n - p)
            for n in range(2, max_n + 1, 2)
            for p in range(n + 1)
            if (2 * p - n) % 8 in (4, 6)]


def quaternionic_signatures(max_n: int = 10) -> Iterator[Tuple]:
    """(sig, basis, report) over every quaternionic signature with
    p + q <= max_n and every census-split variant with its reversed and
    sign-flipped tweaks.  The cells are listed, and the size limit checked,
    when this is called, before any basis is built."""
    cells = quaternionic_cells(max_n)
    return ((sig, basis, ext_group_report(basis, identify=False))
            for sig in cells
            for basis in sweep_spinbasis_variants(sig))


def enumerate_signatures(max_n: int = 10) -> Dict[Tuple[int, ...], List[str]]:
    """Distinct realized 7-signatures mapped to the labels that realize them.
    Every signature is already checked against the admissible case table:
    `ext_group_report` raises on a real type-4/6 signature outside it, and
    every report `quaternionic_signatures` yields is one."""
    realized: Dict[Tuple[int, ...], List[str]] = {}
    for sig, basis, report in quaternionic_signatures(max_n):
        realized.setdefault(report.signature, []).append(
            f"{sig}:{basis.name}"
        )
    return realized
