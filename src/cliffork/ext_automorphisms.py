"""The extended automorphism matrices of a spinor basis.

For an even-dimensional basis E_1..E_n the eight-element set
{I, W, E, C, Pi, K, S, F} realizes the discrete (anti)automorphisms.  Each
of the seven is fixed by one relation with every unit E_i,
u x = s x T(u) for a sign s and T(u) one of u, u^T, conj(u), conj(u)^T.
DEFINING_RELATIONS holds the seven as data (`Relation`), and `ext_matrices`
and the `pseudo` and `defining` sweeps all read them from there.

The eight symmetries form Z2^3, encoded once: a symmetry's code is its
position in ELEMENT_NAMES and in PHYSICAL_NAMES, two symmetries compose to
the XOR of their codes, and the pin letters a..g are the codes 1..7:

    code      0  1  2  3   4   5   6   7
    matrix    I  W  E  C   Pi  K   S   F
    physical  1  P  T  PT  C   CP  CT  CPT
    pin          a  b  c   d   e   f   g

So W..F realize P..CPT, with P = W, T = E and C = Pi as bits 0, 1 and 2, and
pin^{b,e,g} is {1, T, CP, CPT} = {I, E, K, F}.  A covering is read from a
subgroup of these codes: {0, 1, 2, 3} for PT, all eight for CPT, and the
survivors of a collapse.

Each matrix is a product of unit matrices selected by the census (real or
imaginary, symmetric or skew, read from SpinBasis.unit_species); every
defining relation is verified on construction, at every unit.
`ext_group_report` keeps the matrices' `sign_cocycle` c,
M_a M_b = c(a, b) M_(a^b), and a product outside the signed span raises, so
each square is exactly +-I.  On signed Pauli words (every built basis) no
matrix product is taken.  A relation is decided for all units at once
(`Relation.failures`): one failure mask per matrix, an XOR of unit masks
that the basis keeps per qubit.  The eight matrices are closed up to sign
exactly when their x, z and c mod 2 are linear on the codes, four
comparisons, and then c is eight 8-bit row masks (`_word_cocycle`).  A
dense matrix (a user-loaded basis) takes the products.  The report's
squares are the diagonal of c, its commutation ledger is c(a, b) c(b, a),
and it names from c the cover of a code subgroup (`ExtGroupReport.cover`,
through COVER_TABLE), its `matrix_group` and its `letter_table`.  The
construction checks keep every caller right-or-raise, a user-supplied basis
(`ext-group --basis FILE`) included.  The `pseudo` and `defining` sweeps
check the same relations again only to count the checks: a failed relation
raises in `ext_group_report` before any sweep check runs, so it surfaces as
an internal check failure (CLI exit 1), never as a suite counterexample.

Two independent prediction routes accompany the constructions: the universal
factor-count commutation rule, and the printed parity predicates in terms of
the census counts (v, l, u, m).  For the commutation ledger that second route
is one rule, `comm_parity_terms`: per pair, the printed clause and the
reorder cross-term it omits, each pair family written once.  The acceptance
sweeps confirm that both routes agree with the matrix truth on every variant.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .classification import type_index
from .core_algebra import SignatureSpec
from .finite_groups import cocycle_group
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
# {+-1} x letters, and that cover as cocycle_group names it.  One
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
    identified: str  # the cover as cocycle_group names it

    @property
    def order_structure(self) -> Tuple[int, int]:  # (# square +I, # square -I)
        return self.letters - self.minus, self.minus


def cover_row(signature: Sequence[int], abelian: bool) -> CoverRow:
    """The COVER_TABLE row of the letters' squares and their abelianness;
    ValueError for any key outside the table."""
    if not {*signature} <= {1, -1}:
        raise ValueError("signature entries must be +-1")
    key = (len(signature), list(signature).count(-1), bool(abelian))
    if key not in COVER_TABLE:
        raise ValueError(f"signature {tuple(signature)} with abelian={abelian} is not a cover")
    return CoverRow(*key, *COVER_TABLE[key])


class ExtMatrix(NamedTuple):
    name: str
    matrix: SpinMatrix
    factors: Tuple[int, ...]  # unit index set the matrix is proportional to
    form: str  # census form tag


_SQUARES = tuple((c, c) for c in range(1, 8))  # the codes of W..F, paired with themselves


class ExtGroupReport:
    def __init__(self, sig: SignatureSpec, census: UnitCensus, matrices: Dict[str, ExtMatrix],
                 cocycle: Dict[Tuple[int, int], int], pi_bar_sign: int):
        self.sig = sig
        self.census = census
        self.matrices = matrices
        self.cocycle = cocycle  # c(a, b) over the codes 0..7; all below read it
        self.pi_bar_sign = pi_bar_sign  # sign of Pi * conj(Pi)
        self.notes: List[str] = []
        # read from the cocycle once, then by `group_name`, `order_structure`
        # and the sweeps
        self.signature = tuple(map(cocycle.__getitem__, _SQUARES))  # signs of (W..F)^2
        self.commutation = commutation_profile(cocycle)
        self.abelian = -1 not in self.commutation.values()

    @property
    def order_structure(self) -> Tuple[int, int]:  # (# square +I, # square -I)
        return cover_row(self.signature, self.abelian).order_structure

    @property
    def group_name(self) -> str:  # of the seven-letter COVER_TABLE row
        return cover_row(self.signature, self.abelian).group

    def cover(self, codes: Iterable[int]) -> CoverRow:
        """The COVER_TABLE row of the code subgroup {0} | codes, from the
        squares and commutation in the sign cocycle.  ValueError, naming the
        set, unless it is a subgroup of the codes 0..7.  AssertionError unless
        the cocycle's formal double cover {+-1} x codes is the row's
        identified group; codes whose matrices land on one matrix up to sign
        (Pi = I at Cl(2,0)) still count apart there."""
        group = sorted({0, *codes})
        closed = all(a ^ b in group for a in group for b in group)
        if not (closed and set(group) <= set(range(8))):
            named = "{" + ", ".join(map(str, group)) + "}"
            raise ValueError(f"code set {named} is not a subgroup of the codes 0..7")
        cocycle = {(a, b): self.cocycle[a, b] for a in group for b in group}
        abelian = all(cocycle[a, b] == cocycle[b, a] for a, b in cocycle)
        row = cover_row([cocycle[a, a] for a in group[1:]], abelian)
        _, built = cocycle_group(cocycle)
        if built != row.identified:
            raise AssertionError(
                f"cover table says {row.cover} (= {row.identified}), "
                f"matrix cocycle builds {built}"
            )
        return row

    @property
    def matrix_group(self) -> Tuple[int, str]:
        """(order, name) of the group the matrices I, W..F generate: the
        cocycle's form on Z2^3 modulo the codes whose matrix is +-I.  It holds
        -I when the cocycle takes -1 (-I = M_a M_b M_(a^b)^-1) or a code's
        matrix is -I.  It is smaller than the formal cover `cover(range(8))`
        names on 21 of the 25 real even cells with p+q <= 8 (Cl(6,2): Z4xZ2
        here, Z4xZ2xZ2 there)."""
        m = _code_matrices(self.matrices)
        kernel = [c for c in range(8) if m[c] == m[0] or m[c] == -m[0]]
        minus = any(s < 0 for s in self.cocycle.values()) or any(m[c] != m[0] for c in kernel)
        return cocycle_group(self.cocycle, kernel, minus)

    @property
    def letter_table(self) -> Tuple[List[str], List[List[str]]]:
        """The letters I, W, ..., F and their signed multiplication table from
        the cocycle: cell (a, b) names a * b = c(a, b) M_(a^b) by its first
        letter up to sign ("-K")."""
        m = _code_matrices(self.matrices)
        by_matrix = signed_lookup(dict(zip(ELEMENT_NAMES, m)))
        return list(ELEMENT_NAMES), [[by_matrix[m[a ^ b] if self.cocycle[a, b] > 0 else -m[a ^ b]]
                                      for b in range(8)] for a in range(8)]


class Relation(NamedTuple):
    """The defining relation u x = sign * x T(u) of one of W..F at the unit
    u, where T(u) is u, u^T, conj(u) or conj(u)^T as `transpose` and `conj`
    say.  Called as relation(u, x), true when x satisfies it at u, from the
    products; `failures` decides it at every unit of a basis at once.

    When u and x are both words, each side is a word with the same (x, z)
    part, and their phases differ by (-1)^(|x_x & z_u| + |x_u & z_x|) (the
    symplectic form: u x = +-x u), by (-1)^|x_u & z_u| for the transpose
    (u^T = +-u) and by (-1)^c_u for conj (conj(u) = +-u).  So on a basis
    of words the relation fails at a unit exactly when these parities and
    the sign's (1 for -1) add up to an odd number.  Each parity, taken over
    all units, is a unit mask read off the basis's per-qubit columns
    (`SpinBasis._unit_columns`), so the failures at all n units are one XOR
    of masks, with no product.  ValueError on a dimension mismatch either
    way."""

    sign: int
    transpose: bool = False
    conj: bool = False

    def failures(self, basis: SpinBasis, x: SpinMatrix) -> int:
        """The units at which x fails the relation, bit i-1 for unit i: one
        XOR of unit masks when x and the units are words, one relation(u, x)
        per unit otherwise."""
        columns = basis._unit_columns()
        if columns is None or x.word is None:
            return sum(1 << i for i, u in enumerate(basis.mats) if not self(u, x))
        d, _, xx, zx = x.word
        if d != basis.dim:
            raise ValueError("dimension mismatch")
        qubits, transposed, conjugated, every = columns
        failed = every if self.sign < 0 else 0
        for bit, x_col, z_col in qubits:  # the units that anticommute with x
            if xx & bit:
                failed ^= z_col
            if zx & bit:
                failed ^= x_col
        if self.transpose:
            failed ^= transposed
        if self.conj:
            failed ^= conjugated
        return failed

    def __call__(self, u: SpinMatrix, x: SpinMatrix) -> bool:
        t = u.conj() if self.conj else u
        rhs = x * (t.transpose() if self.transpose else t)
        return u * x == (rhs if self.sign > 0 else -rhs)


# name -> its defining relation, checked at every unit u
DEFINING_RELATIONS = {
    "W": Relation(-1),  # W u W^-1 = -u: grade involution
    "E": Relation(1, transpose=True),  # reversion intertwiner
    "C": Relation(-1, transpose=True),  # conjugation intertwiner
    "Pi": Relation(1, conj=True),  # pseudo intertwiner
    "K": Relation(-1, conj=True),  # K conj(u) K^-1 = -u
    "S": Relation(1, transpose=True, conj=True),  # S conj(u)^T S^-1 = u
    "F": Relation(-1, transpose=True, conj=True),  # F conj(u)^T F^-1 = -u
}


def _symdiff(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sorted(set(a) ^ set(b)))


def _checked(basis: SpinBasis, name: str, matrix: SpinMatrix,
             factors: Tuple[int, ...], form: str) -> ExtMatrix:
    failed = DEFINING_RELATIONS[name].failures(basis, matrix)
    if failed:  # name the lowest failing unit
        raise AssertionError(f"{name} relation failed at unit {(failed & -failed).bit_length()}")
    return ExtMatrix(name, matrix, factors, form)


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


def _code_matrices(mats: Dict[str, ExtMatrix]) -> List[SpinMatrix]:
    """M_c for the codes c = 0..7: I, then the matrices W..F."""
    return [SpinMatrix.identity(mats["W"].matrix.dim)] + [mats[n].matrix for n in MATRIX_NAMES]


# bit b of _LINEAR[v] is the parity of |b & v|: the eight linear forms on
# the codes, as row masks
_LINEAR = tuple(sum(((b & v).bit_count() & 1) << b for b in range(8)) for v in range(8))
# the signs c(a, 0..7) of a row mask, -1 where its bit is set (product
# counts in binary with the last entry as bit 0)
_ROW_SIGNS = tuple(signs[::-1] for signs in product((1, -1), repeat=8))
_CODE_PAIRS = tuple((a, b) for a in range(8) for b in range(8))


def _word_cocycle(words: List[Tuple[int, int, int, int]]) -> Optional[Dict[Tuple[int, int], int]]:
    """The sign cocycle of eight words (d, c, x, z) of one dimension,
    words[0] the identity, read off their ints; None when a product is not
    +-M_(a^b).

    M_a M_b has the phase c_a + c_b + 2|x_a & z_b| (as in SpinMatrix.__mul__)
    and the part (x_a ^ x_b, z_a ^ z_b), so it is +-M_(a^b) exactly when
    the parts match and k = c_a + c_b + 2|x_a & z_b| - c_(a^b) is even, and
    then c(a, b) = i^k.  That holds for every a, b exactly when x, z and
    c mod 2 are linear on the codes, f(a ^ b) = f(a) ^ f(b): with M_0 = I
    that is four comparisons, at the codes 3, 5, 6 and 7, of the three
    packed into one int.

    Write c = 2h + l.  A linear l gives l_a + l_b - l_(a^b) = 2 l_a l_b, so
    c(a, b) = -1 exactly when k/2 is odd:

        l_a l_b + |x_a & z_b| + h_a + h_b + h_(a^b)   (mod 2).

    Row a is the 8-bit mask of the b where this is odd.  The first two terms
    are bilinear, so the generator rows a = 1, 2, 4 give them: each is the
    linear form in b fixed by its values at b = 1, 2, 4, and the others are
    XORs of these.  The last three are all of the row when h_a, the mask H
    of the codes with h set, and H with its bits permuted by b -> a ^ b
    (swaps of bits, bit pairs and nibbles for the bits of a).  _ROW_SIGNS
    expands the rows into the 64 signs."""
    (d, c0, _, _), (_, c1, x1, z1), (_, c2, x2, z2), (_, c3, x3, z3), \
        (_, c4, x4, z4), (_, c5, x5, z5), (_, c6, x6, z6), (_, c7, x7, z7) = words
    # x, z and c mod 2 of a code packed into one int, so that XOR adds them
    k = d.bit_length()
    k1, k2, k4 = ((x1 << k | z1) << 1 | c1 & 1, (x2 << k | z2) << 1 | c2 & 1,
                  (x4 << k | z4) << 1 | c4 & 1)
    if ((x3 << k | z3) << 1 | c3 & 1 != k1 ^ k2 or (x5 << k | z5) << 1 | c5 & 1 != k1 ^ k4
            or (x6 << k | z6) << 1 | c6 & 1 != k2 ^ k4
            or (x7 << k | z7) << 1 | c7 & 1 != k1 ^ k2 ^ k4):
        return None
    # l_a l_b + |x_a & z_b| = |(x_a << 1 | l_a) & (z_b << 1 | l_b)|, linear in b
    p1, p2, p4 = z1 << 1 | c1 & 1, z2 << 1 | c2 & 1, z4 << 1 | c4 & 1
    b1, b2, b4 = (_LINEAR[(q & p1).bit_count() & 1 | ((q & p2).bit_count() & 1) << 1
                          | ((q & p4).bit_count() & 1) << 2]
                  for q in (x1 << 1 | c1 & 1, x2 << 1 | c2 & 1, x4 << 1 | c4 & 1))
    H = (c0 >> 1 | (c1 >> 1) << 1 | (c2 >> 1) << 2 | (c3 >> 1) << 3 | (c4 >> 1) << 4
         | (c5 >> 1) << 5 | (c6 >> 1) << 6 | (c7 >> 1) << 7)
    # s_a: H with bit b moved to a ^ b, from swaps of bits, bit pairs, nibbles
    s1 = (H & 0x55) << 1 | H >> 1 & 0x55
    s2 = (H & 0x33) << 2 | H >> 2 & 0x33
    s3 = (s1 & 0x33) << 2 | s1 >> 2 & 0x33
    s4, s5, s6, s7 = ((H & 0x0F) << 4 | H >> 4, (s1 & 0x0F) << 4 | s1 >> 4,
                      (s2 & 0x0F) << 4 | s2 >> 4, (s3 & 0x0F) << 4 | s3 >> 4)
    row, every = _ROW_SIGNS, 0xFF  # c_a & 2 is h_a
    return dict(zip(_CODE_PAIRS,
                    row[every if c0 & 2 else 0]
                    + row[b1 ^ H ^ s1 ^ (every if c1 & 2 else 0)]
                    + row[b2 ^ H ^ s2 ^ (every if c2 & 2 else 0)]
                    + row[b1 ^ b2 ^ H ^ s3 ^ (every if c3 & 2 else 0)]
                    + row[b4 ^ H ^ s4 ^ (every if c4 & 2 else 0)]
                    + row[b1 ^ b4 ^ H ^ s5 ^ (every if c5 & 2 else 0)]
                    + row[b2 ^ b4 ^ H ^ s6 ^ (every if c6 & 2 else 0)]
                    + row[b1 ^ b2 ^ b4 ^ H ^ s7 ^ (every if c7 & 2 else 0)]))


def sign_cocycle(mats: Dict[str, ExtMatrix]) -> Dict[Tuple[int, int], int]:
    """c(a, b) = +-1 with M_a M_b = c(a, b) M_(a^b) over the codes 0..7.
    Read off the ints when the eight matrices are words of one dimension;
    otherwise (a dense matrix, or a product leaving the signed span) one
    product per pair of nonzero codes.  AssertionError when a product leaves
    the signed span of the named matrices."""
    m = _code_matrices(mats)
    words = [x.word for x in m]
    if None not in words and len({w[0] for w in words}) == 1:
        cocycle = _word_cocycle(words)
        if cocycle is not None:
            return cocycle
    negated = [-x for x in m]

    def sign(a: int, b: int) -> int:
        if not (a and b):
            return 1
        prod = m[a] * m[b]
        if prod == m[a ^ b]:
            return 1
        if prod == negated[a ^ b]:
            return -1
        raise AssertionError(f"{ELEMENT_NAMES[a]} * {ELEMENT_NAMES[b]} leaves the "
                             "signed span of the named matrices")

    return {(a, b): sign(a, b) for a in range(8) for b in range(8)}


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
# commutation: the cocycle's ledger, universal rule, printed predicates


def universal_comm_sign(mask_x: int, mask_y: int) -> int:
    """Products of distinct anticommuting units X (x factors) and Y (y
    factors) sharing t of them satisfy XY = (-1)^(xy - t) YX.  Each factor
    set is given as a mask, bit i for unit i."""
    t = (mask_x & mask_y).bit_count()
    return -1 if (mask_x.bit_count() * mask_y.bit_count() - t) % 2 else 1


# each pair of W..F in MATRIX_NAMES order, with its codes
_LETTER_PAIRS = tuple(((MATRIX_NAMES[a - 1], MATRIX_NAMES[b - 1]), a, b)
                      for a in range(1, 8) for b in range(a + 1, 8))


def commutation_profile(cocycle: Dict[Tuple[int, int], int]) -> Dict[Tuple[str, str], int]:
    """+1 or -1 as each pair of W..F, in MATRIX_NAMES order, commutes or
    anticommutes: M_a M_b = c(a, b) c(b, a) M_b M_a."""
    return {pair: cocycle[a, b] * cocycle[b, a] for pair, a, b in _LETTER_PAIRS}


# the printed clause of each pair among W, Pi, K, S and F, as a function of
# the census n and of whether Pi and K are imaginary and S and F of form c
_PRINTED_CLAUSES = {
    ("W", "Pi"): lambda n, pi_im, k_im, s_c, f_c: 0 if pi_im else 1,
    ("W", "K"): lambda n, pi_im, k_im, s_c, f_c: 1 if k_im else 0,
    ("W", "S"): lambda n, pi_im, k_im, s_c, f_c: 0 if s_c else 1,
    ("W", "F"): lambda n, pi_im, k_im, s_c, f_c: 1 if f_c else 0,
    ("Pi", "K"): lambda n, pi_im, k_im, s_c, f_c: n.a * n.b,
    ("Pi", "S"): lambda n, pi_im, k_im, s_c, f_c:
        (n.m if s_c else n.l) if pi_im else ((n.v + 1) if s_c else n.u),
    ("Pi", "F"): lambda n, pi_im, k_im, s_c, f_c:
        (n.m if f_c else n.l) if pi_im else (n.v if f_c else (n.u + 1)),
    ("K", "S"): lambda n, pi_im, k_im, s_c, f_c:
        ((n.m + 1) if s_c else n.l) if k_im else (n.v if s_c else n.u),
    ("K", "F"): lambda n, pi_im, k_im, s_c, f_c:
        (n.m if f_c else (n.l + 1)) if k_im else (n.v if f_c else n.u),
    ("S", "F"): lambda n, pi_im, k_im, s_c, f_c: (n.l + n.u) * (n.m + n.v),
}


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
    x, y = pair
    if pair in (("W", "E"), ("W", "C"), ("E", "C")):
        return None
    if x in ("E", "C") and y in ("Pi", "K", "S", "F"):
        v, l, u, m = census
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
    printed = _PRINTED_CLAUSES[pair](census, forms["Pi"] == "imaginary",
                                     forms["K"] == "imaginary", forms["S"] == "c",
                                     forms["F"] == "c")
    return printed % 2, 0


# ---------------------------------------------------------------------------
# the printed case table: (abc pattern, minus count among defg, type) ->
# admissible groups.  Kept as a transcription, and checked by
# `ext_group_report` on every real quaternionic basis: it is the only check
# of the printed table.  Deriving it from the six bits (W^2, E^2, Pi^2 and
# the [W,E], [W,Pi], [E,Pi] signs) would replace that check, not repeat it.

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
    dm = list(signature[3:]).count(-1)
    key = (abc, dm, typ)
    if key not in ADMISSIBLE_DETAILED:
        raise ValueError(
            f"signature {tuple(signature)} with type {typ} is outside the case table"
        )
    return ADMISSIBLE_DETAILED[key]


# ---------------------------------------------------------------------------
# full report and the quaternionic stream


def ext_group_report(basis: SpinBasis) -> ExtGroupReport:
    """Matrices, census and sign cocycle of one basis, from one classification
    of its units and one pass of products.  AssertionError when a real
    quaternionic basis's group is outside the printed case table."""
    mats = ext_matrices(basis)
    pi = mats["Pi"].matrix
    report = ExtGroupReport(
        sig=basis.sig,
        census=basis.unit_census(),
        matrices=mats,
        cocycle=sign_cocycle(mats),
        pi_bar_sign=(pi * pi.conj()).sign_of_identity_multiple(),
    )
    group = report.group_name
    typ = type_index(basis.sig.p, basis.sig.q)
    if basis.sig.field == "R" and typ in (4, 6):
        allowed = admissible_groups(report.signature, typ)
        if group not in allowed:
            raise AssertionError(
                f"classified {group} but the case table admits {sorted(allowed)}"
            )
    if mats["Pi"].form == "imaginary" and report.census.a == 0:
        report.notes.append("Pi is the empty product (identity): all units real")
    return report


def quaternionic_signatures(max_n: int) -> Iterator[Tuple]:
    """(sig, basis, report), built one pair at a time, for each census-split
    variant (with its reversed and sign-flipped tweaks) of each quaternionic
    cell with p + q <= max_n; every cell has one or more.  ValueError past the
    spinor size limit, from the call itself, before any basis is built."""
    check_spinor_size(max_n)
    cells = [SignatureSpec(p, n - p)
             for n in range(2, max_n + 1, 2)
             for p in range(n + 1)
             if (2 * p - n) % 8 in (4, 6)]
    return ((sig, basis, ext_group_report(basis))
            for sig in cells
            for basis in sweep_spinbasis_variants(sig))
