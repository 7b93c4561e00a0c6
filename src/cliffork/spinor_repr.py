"""Exact spinor representations: signed Pauli word bases for Cl(p,q).

Every route builds its units on the word ints (d, c, x, z) of i^c Z^z X^x
on d = 2^k, and makes SpinMatrix words only at the end:
  * types 0,2 (ring R): an all-real basis via the doubling chain
    Cl(r,s) -> Cl(r+1,s+1) from the seeds Cl(0,0), Cl(2,0) = {Z, X}.  Each
    doubling puts a new leading qubit in front: X on it is the new positive
    unit, ZX the new negative one, and every old unit gets Z on it.  Then
    four-unit swaps (a quartet of same-square units, each multiplied by
    their product, a word product) move along p - q in steps of 8;
  * types 4,6 (ring H): an all-real reference basis with x symmetric and
    y skew units multiplied by i (the census split (x,y) indexes variants);
  * types 3,7 and complex algebras of odd dimension: a basis for the first
    n-1 generators plus E_n = c * E_1...E_{n-1} with c in {1, i};
  * complex algebras of even dimension: the ladder of two units per qubit,
    Z on every qubit before it and X or iZX on it.

Types 1 and 5 are semi-simple and have no faithful irreducible of the table
dimension; build_spinbasis rejects them (the quotient module handles the
split), and it rejects any basis above MAX_SPINOR_DIM.

So every constructed unit is a signed Pauli word, and so is every product
of words (products of units, the W..F matrices, their closure: the image of
Salingaros' vee group).  SpinMatrix therefore has two internal forms,
chosen from the entries:

  * word form, the four ints (d, c, x, z), on which products, -, conj,
    transpose, scaling by i^k, the +-I test, == and hash are O(1) int
    work.  `classify_matrix` reads a unit's census species off c and
    |x & z|.  `SpinBasis.product_of` folds a product of units on the ints
    into one matrix, and the extended automorphism report decides each
    defining relation at every unit at once from the basis's per-qubit unit
    masks and reads its sign cocycle as row masks, with no matrix product;
  * dense form, d x d exact Gaussian rationals, for every other matrix: a
    user-loaded basis that is not made of words (`ext-group --basis FILE`),
    such as a signed permutation conjugate.

The form is canonical: any result that is a word is stored as a word,
whichever path computed it, so == and hash stay exact across the two forms
and every comparison downstream is exact.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .classification import odd_reduction, type_index
from .core_algebra import GaussianScalar, SignatureSpec, format_gaussian, parse_gaussian

_ZERO = GaussianScalar.ZERO
_ONE = GaussianScalar.ONE
_I = GaussianScalar.I


# ---------------------------------------------------------------------------
# exact matrices: Pauli word and dense forms

_UNITS = (_ONE, _I, -_ONE, -_I)  # i^k for k = 0..3
_PHASE = {u: k for k, u in enumerate(_UNITS)}
Word = Tuple[int, int, int, int]  # (d, c, x, z): the word i^c Z^z X^x of dimension d


def _word_rows(d: int, c: int, x: int, z: int) -> Tuple[Tuple[GaussianScalar, ...], ...]:
    """Entries of the word (d, c, x, z): row r holds i^c (-1)^|r & z| in
    column r ^ x."""
    out = []
    for r in range(d):
        row = [_ZERO] * d
        row[r ^ x] = _UNITS[(c + 2 * (r & z).bit_count()) & 3]
        out.append(tuple(row))
    return tuple(out)


def _word_form(rows) -> Optional[Word]:
    """(d, c, x, z) when the tuple rows is the signed Pauli word
    i^c Z^z X^x of a dimension d = 2^k; None otherwise."""
    d = len(rows)
    if not d or d & (d - 1):
        return None
    x = next((j for j, a in enumerate(rows[0]) if a), None)
    c = None if x is None else _PHASE.get(rows[0][x])
    if c is None:
        return None
    # row 2^j fixes bit j of z; the full comparison checks every other entry
    first = rows[0][x]
    z = sum(1 << j for j in range(d.bit_length() - 1) if rows[1 << j][(1 << j) ^ x] != first)
    return (d, c, x, z) if _word_rows(d, c, x, z) == rows else None


def _dense_product(arows, brows) -> List[List[GaussianScalar]]:
    """Entry rows of a * b.  Each row of b lists its nonzero entries once, so
    past one scan of each factor the work is one multiply-add per pair of
    nonzeros."""
    n = len(brows)
    nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in brows]
    out = []
    for row in arows:
        acc = [_ZERO] * n
        for a, terms in zip(row, nonzero):
            if a:
                for j, b in terms:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


class SpinMatrix:
    """Immutable square matrix of Gaussian rationals, in one of two forms.

    Word form: a signed Pauli word i^c Z^z X^x of dimension d = 2^k, with
    X^x the permutation r -> r ^ x and Z^z = diag((-1)^|r & z|), where |.|
    counts bits.  It is kept as the int tuple `word` = (d, c, x, z) with c
    in 0..3: row r holds i^c (-1)^|r & z| in column r ^ x.  Every unit the
    basis builders make is a word, and so is every product of words (the
    symplectic form of the Pauli group that stabilizer simulators use:
    Aaronson and Gottesman, Phys. Rev. A 70, 052328, 2004).  Products, -,
    conj, transpose, scaling by i^k, the +-I test, == and hash are O(1)
    int work on it.

    Dense form: every other matrix, for instance a user-loaded unit such as
    [[3/5,4/5],[4/5,-3/5]], a signed permutation that is not a word, or any
    matrix whose size is not a power of two.  It keeps the d x d
    GaussianScalar entries; `word` is None.

    The form is canonical: a result that is a word is stored as one
    whichever path computed it, so == and hash are exact across the two
    forms (R*R for the R above equals and hashes like the identity).
    `rows` is the read-only dense view of either form.
    """

    __slots__ = ("word", "_dense")

    def __init__(self, rows: Sequence[Sequence]):
        dense = tuple(tuple(GaussianScalar.of(x) for x in row) for row in rows)
        n = len(dense)
        if any(len(r) != n for r in dense):
            raise ValueError("SpinMatrix must be square")
        self.word = _word_form(dense)
        self._dense = dense if self.word is None else None

    @property
    def rows(self) -> Tuple[Tuple[GaussianScalar, ...], ...]:
        return self._dense if self.word is None else _word_rows(*self.word)

    @property
    def dim(self) -> int:
        return len(self._dense) if self.word is None else self.word[0]

    @classmethod
    def identity(cls, n: int) -> "SpinMatrix":
        if n and not n & (n - 1):
            return _word(n, 0, 0, 0)
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, SpinMatrix):
            return self._scaled(GaussianScalar.of(other))
        a, b = self.word, other.word
        if a is not None and b is not None:
            return _word(*_word_product(a, b))
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return SpinMatrix(_dense_product(self.rows, other.rows))

    def __rmul__(self, other):
        return self._scaled(GaussianScalar.of(other))

    def _scaled(self, s: GaussianScalar) -> "SpinMatrix":
        k = _PHASE.get(s)
        if self.word is not None and k is not None:
            d, c, x, z = self.word
            return _word(d, c + k, x, z)
        return SpinMatrix([[s * a for a in row] for row in self.rows])

    def __neg__(self) -> "SpinMatrix":
        if self.word is None:
            return SpinMatrix([[-a for a in row] for row in self._dense])
        d, c, x, z = self.word
        return _word(d, c + 2, x, z)

    def __eq__(self, other) -> bool:
        # one form per matrix, so a word never equals a dense matrix
        return (
            isinstance(other, SpinMatrix)
            and self.word == other.word
            and self._dense == other._dense
        )

    def __hash__(self):
        return hash(self._dense if self.word is None else self.word)

    def transpose(self) -> "SpinMatrix":
        if self.word is None:
            return SpinMatrix(list(zip(*self._dense)))
        d, c, x, z = self.word
        # (Z^z X^x)^T = X^x Z^z = (-1)^|x & z| Z^z X^x
        return _word(d, c + 2 * (x & z).bit_count(), x, z)

    def conj(self) -> "SpinMatrix":
        if self.word is None:
            return SpinMatrix([[a.conjugate() for a in row] for row in self._dense])
        d, c, x, z = self.word
        return _word(d, -c, x, z)

    def scalar_multiple_of_identity(self) -> Optional[GaussianScalar]:
        """c with self == c*I, or None."""
        if self.word is not None:
            _, c, x, z = self.word
            return None if x or z else _UNITS[c]
        c = self._dense[0][0]
        for i, row in enumerate(self._dense):
            for j, a in enumerate(row):
                if (a != c) if i == j else bool(a):
                    return None
        return c

    def sign_of_identity_multiple(self) -> int:
        """+1 or -1 for self == +-I; raises otherwise."""
        c = self.scalar_multiple_of_identity()
        if c == _ONE:
            return 1
        if c == -_ONE:
            return -1
        raise ValueError("matrix is not +I or -I")

    def to_lists(self) -> List[List[str]]:
        return [[format_gaussian(a) for a in row] for row in self.rows]

    def __str__(self) -> str:
        cells = self.to_lists()
        w = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[" + " ".join(c.rjust(w) for c in row) + "]" for row in cells)

    def __repr__(self) -> str:
        return f"<SpinMatrix {self.dim}x{self.dim}>"


def _word_product(first: Word, *rest: Word) -> Word:
    """The word (d, c, x, z) of the product of the words, in order, folded
    on the ints; its phase c is not yet reduced mod 4.  ValueError on a
    dimension mismatch."""
    d, c, x, z = first
    for e, c2, x2, z2 in rest:
        if d != e:
            raise ValueError("dimension mismatch")
        # X^x Z^z2 = (-1)^|x & z2| Z^z2 X^x
        c += c2 + 2 * (x & z2).bit_count()
        x ^= x2
        z ^= z2
    return d, c, x, z


def _word(d: int, c: int, x: int, z: int) -> SpinMatrix:
    """A SpinMatrix in word form, built without the entry scan."""
    m = object.__new__(SpinMatrix)
    m.word = (d, c & 3, x, z)
    m._dense = None
    return m


def signed_lookup(pool: Dict[str, SpinMatrix]) -> Dict[SpinMatrix, str]:
    """{matrix: "+name", -matrix: "-name"} over a named pool.

    Inserted in pool order without overwriting, so when several names agree
    up to sign the first one wins, exactly as a scan of the pool would.
    """
    out: Dict[SpinMatrix, str] = {}
    for name, m in pool.items():
        out.setdefault(m, "+" + name)
        out.setdefault(-m, "-" + name)
    return out


# ---------------------------------------------------------------------------
# census classification of a single matrix


class MatrixClass(NamedTuple):
    reality: str  # "real" | "imaginary" | "mixed" | "zero"
    symmetry: str  # "symmetric" | "skew" | "mixed"


def classify_matrix(m: SpinMatrix) -> MatrixClass:
    if m.word is not None:
        # every entry is i^c (-1)^j: real for an even c, imaginary for an
        # odd; the transpose is (-1)^|x & z| times the word
        _, c, x, z = m.word
        return MatrixClass(("real", "imaginary")[c & 1],
                           ("symmetric", "skew")[(x & z).bit_count() & 1])
    entries = [a for row in m.rows for a in row if a]
    if not entries:
        reality = "zero"
    elif all(a.im == 0 for a in entries):
        reality = "real"
    elif all(a.re == 0 for a in entries):
        reality = "imaginary"
    else:
        reality = "mixed"
    t = m.transpose()
    if m == t:
        symmetry = "symmetric"
    elif m == -t:
        symmetry = "skew"
    else:
        symmetry = "mixed"
    return MatrixClass(reality, symmetry)


# census species letter by (reality, symmetry); see UnitCensus
_CENSUS_LETTER = {
    ("real", "symmetric"): "v",
    ("real", "skew"): "u",
    ("imaginary", "symmetric"): "l",
    ("imaginary", "skew"): "m",
}


class UnitCensus(NamedTuple):
    """Counts of the four unit species of a spinor basis.

    v real symmetric (square +1), u real skew (-1),
    l imaginary symmetric (-1), m imaginary skew (+1).
    """

    v: int
    l: int
    u: int
    m: int

    @property
    def a(self) -> int:  # imaginary units
        return self.l + self.m

    @property
    def b(self) -> int:  # real units
        return self.u + self.v


# ---------------------------------------------------------------------------
# the spinor basis object


class SpinBasis:
    """Anticommuting unit matrices E_1..E_n with E_i^2 = metric(i) * I."""

    def __init__(self, sig: SignatureSpec, mats: Sequence[SpinMatrix], name: str = ""):
        self.sig = sig
        self.mats = list(mats)
        self.name = name
        self._species: Optional[Dict[str, Tuple[int, ...]]] = None
        self._columns: Optional[tuple] = None
        if len(self.mats) != sig.n:
            raise ValueError(f"{sig} needs {sig.n} units, got {len(self.mats)}")
        self.dim = self.mats[0].dim if self.mats else 1
        for i, m in enumerate(self.mats, start=1):
            if m.dim != self.dim:
                raise ValueError(f"unit {i} is {m.dim}x{m.dim}, unit 1 is {self.dim}x{self.dim}")

    def unit(self, i: int) -> SpinMatrix:
        """Unit E_i, 1-based; TypeError or ValueError for no such i."""
        if type(i) is not int:  # neither a bool nor a float such as 2.0
            raise TypeError(f"unit index {i!r} is not an int")
        if not 1 <= i <= len(self.mats):
            raise ValueError(f"unit index {i} outside 1..{len(self.mats)}")
        return self.mats[i - 1]

    def product_of(self, indices: Iterable[int]) -> SpinMatrix:
        """Product of the listed units (1-based), in the order given: folded
        on the word ints into one SpinMatrix when the units are words, else
        one matrix product per unit."""
        indices = tuple(indices)
        words = [self.unit(i).word for i in indices]
        if words and None not in words:
            return _word(*_word_product(*words))
        out = SpinMatrix.identity(self.dim)
        for i in indices:
            out = out * self.unit(i)
        return out

    def _unit_columns(self) -> Optional[tuple]:
        """The units read one bit per unit, bit i-1 for unit i, when every
        unit is a word; None otherwise.  It holds (2^k, x_k, z_k) for each
        qubit k, with x_k and z_k the units whose x or z part has bit k;
        then the units with u^T = -u (species u and m), those with
        conj(u) = -u (species l and m), both read from `unit_species`, and
        all n.  Computed once per basis and memoised, as `unit_species` is."""
        if self._columns is None and all(u.word is not None for u in self.mats):
            q = self.dim.bit_length() - 1
            x_cols, z_cols = [0] * q, [0] * q
            for i, u in enumerate(self.mats):
                _, _, x, z = u.word
                bit = 1 << i
                for k in range(q):
                    if x >> k & 1:
                        x_cols[k] |= bit
                    if z >> k & 1:
                        z_cols[k] |= bit
            species = self.unit_species()

            def units(*letters: str) -> int:
                return sum(1 << (idx - 1) for letter in letters for idx in species[letter])

            self._columns = (tuple(zip([1 << k for k in range(q)], x_cols, z_cols)),
                             units("u", "m"), units("l", "m"), (1 << len(self.mats)) - 1)
        return self._columns

    def unit_species(self) -> Dict[str, Tuple[int, ...]]:
        """1-based unit indices per census species (v, u, l, m).

        This is the only place a unit is classified: the result is computed
        once per basis and memoised (nothing mutates `mats` after
        construction), and every census-driven construction reads it from
        here.
        """
        if self._species is None:
            species: Dict[str, Tuple[int, ...]] = {"v": (), "u": (), "l": (), "m": ()}
            for idx, mat in enumerate(self.mats, start=1):
                c = classify_matrix(mat)
                letter = _CENSUS_LETTER.get((c.reality, c.symmetry))
                if letter is None:
                    raise ValueError(
                        f"unit {idx} is not classifiable (reality={c.reality}, "
                        f"symmetry={c.symmetry})"
                    )
                species[letter] += (idx,)
            self._species = species
        return dict(self._species)

    def unit_census(self) -> UnitCensus:
        return UnitCensus(**{k: len(v) for k, v in self.unit_species().items()})

    def validate(self) -> None:
        """Anticommutation and metric squares; raises naming the offender."""
        n = self.sig.n
        ident = SpinMatrix.identity(self.dim)
        for i in range(n):
            sq = self.mats[i] * self.mats[i]
            want = ident if self.sig.metric(i + 1) == 1 else -ident
            if sq != want:
                raise ValueError(f"unit {i + 1} squares to the wrong sign")
            for j in range(i + 1, n):
                ab = self.mats[i] * self.mats[j]
                ba = self.mats[j] * self.mats[i]
                if ab != -ba:
                    raise ValueError(f"units {i + 1} and {j + 1} do not anticommute")

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"<SpinBasis {self.sig} dim={self.dim}{tag}>"


# ---------------------------------------------------------------------------
# basis construction on the word ints
#
# Every route builds its units as word tuples (d, c, x, z), each step O(1)
# int work with the phase c reduced mod 4 only at the end: build_spinbasis
# and sweep_spinbasis_variants make the SpinMatrix words through _word.


def _times_i(words: Sequence[Word]) -> List[Word]:
    return [(d, c + 1, x, z) for d, c, x, z in words]


def _four_swap(four: Sequence[Word]) -> List[Word]:
    """Four units of one square, each multiplied by their product k: the
    square of each flips, and they still anticommute with each other and
    with every other unit."""
    k = _word_product(*four)
    return [_word_product(k, u) for u in four]


def _real_words(p: int, q: int) -> List[Word]:
    """All-real basis for types 0 and 2, positives first: the doubling
    chain from the seed Cl(0,0) or Cl(2,0) to Cl(r,s) with r+s = p+q and
    r-s in {0, 2}, then four-swaps to walk p-q by steps of 8."""
    n = p + q
    r = n // 2 + ((p - q) % 8 == 2)
    if 2 * r == n:
        d, pos, neg = 1, [], []
    else:  # seed Cl(2,0): Z and X
        d, pos, neg = 2, [(2, 0, 0, 1), (2, 0, 1, 0)], []
    while len(pos) + len(neg) < n:
        # Cl(r,s) -> Cl(r+1,s+1): a new leading qubit (bit d) holds X for the
        # new positive unit, ZX for the new negative one and Z under the rest
        pos = [(2 * d, 0, d, 0)] + [(2 * d, c, x, z | d) for _, c, x, z in pos]
        neg = [(2 * d, 0, d, d)] + [(2 * d, c, x, z | d) for _, c, x, z in neg]
        d *= 2
    while len(pos) > p:
        pos, neg = pos[4:], _four_swap(pos[:4]) + neg
    while len(pos) < p:
        pos, neg = pos + _four_swap(neg[:4]), neg[4:]
    return pos + neg


def quaternionic_splits(p: int, q: int) -> List[Tuple[int, int, int, int]]:
    """Admissible (r, s, x, y): all-real reference signature (r,s) with x
    symmetric and y skew units multiplied by i to reach (p,q)."""
    if (p - q) % 8 not in (4, 6):
        raise ValueError("census splits apply to the quaternionic types 4 and 6")
    n = p + q
    out = []
    for r in range(n, -1, -1):
        s = n - r
        if (r - s) % 8 not in (0, 2):
            continue
        for x in range(r + 1):
            y = x + (p - r)
            if 0 <= y <= s:
                out.append((r, s, x, y))
    return out


def _split_words(p: int, q: int, split: Tuple[int, int, int, int],
                 ref: List[Word]) -> Tuple[List[Word], str]:
    """The census split (r, s, x, y) of ref, the all-real basis of Cl(r,s):
    its first x positive and first y negative units times i, positives
    first; and the basis name."""
    r, _, x, y = split
    pos, neg = ref[:r], ref[r:]
    return (pos[x:] + _times_i(neg[:y]) + neg[y:] + _times_i(pos[:x]),
            f"quat({p},{q},split={split})")


def _ladder_words(n: int) -> List[Word]:
    """n even: anticommuting units all squaring to +I on n/2 qubits, two
    per qubit (slot): Z on every qubit before the slot, then X or iZX at it."""
    d = 1 << (n // 2)
    out = []
    for slot in range(n // 2):
        bit = d >> (slot + 1)
        before = d - 2 * bit
        out += [(d, 0, bit, before), (d, 1, bit, before | bit)]
    return out


def _volume_word(sub: List[Word], d: int, square: int) -> Word:
    """The last unit of an odd basis: the product v of the sub-basis, times
    i when v*v is not square * I."""
    v = _word_product((d, 0, 0, 0), *sub)
    sign = -1 if _word_product(v, v)[1] & 2 else 1
    return v if sign == square else _times_i([v])[0]


def _basis_words(sig: SignatureSpec) -> Tuple[List[Word], str]:
    """The units and name of build_spinbasis(sig)."""
    p, q, n = sig.p, sig.q, sig.n
    if sig.field == "C":
        words = _ladder_words(n - n % 2)
        if n % 2:
            words.append(_volume_word(words, 1 << (n // 2), 1))
        # mark the real form: generators past p pick up a factor of i
        return words[:p] + _times_i(words[p:]), f"complex(n={n},mark=({p},{q}))"

    t = type_index(p, q)
    if t in (1, 5):
        raise ValueError(
            f"Cl({p},{q}) has type {t} (semi-simple); no faithful irreducible "
            "basis of the table dimension exists, use the idempotent split"
        )
    if t in (0, 2):
        return _real_words(p, q), f"real({p},{q})"
    if t in (4, 6):
        split = quaternionic_splits(p, q)[0]
        return _split_words(p, q, split, _real_words(*split[:2]))
    # types 3, 7: odd, ring C
    sub, _ = _basis_words(SignatureSpec(*odd_reduction(p, q)[0]))
    return sub + [_volume_word(sub, 1 << (n // 2), sig.metric(n))], f"odd({p},{q})"


# ---------------------------------------------------------------------------
# public constructors

# Largest spinor dimension build_spinbasis constructs.  A basis for p+q = n
# has dimension 2^(n//2), so this admits p+q <= 25.  Built bases are words,
# so d hardly costs time: cold `cliffork ext-group --p N --q 0` on a 2-core
# host takes 0.13 s at N = 8, 16, 20 and 24 alike, nearly all of it start-up
# and import (0.14-0.18 s at N = 26..40 with the limit lifted).  The limit
# bounds what a basis file or `rows` materializes: d x d entries.
MAX_SPINOR_DIM = 4096


def check_spinor_size(n: int) -> None:
    """Raise ValueError when p+q = n needs a spinor dimension above
    MAX_SPINOR_DIM."""
    dim = 1 << (n // 2)
    if dim > MAX_SPINOR_DIM:
        raise ValueError(
            f"p+q = {n} needs spinor dimension {dim}, above the limit "
            f"MAX_SPINOR_DIM = {MAX_SPINOR_DIM} (p+q <= {2 * MAX_SPINOR_DIM.bit_length() - 1})"
        )


def build_spinbasis(sig: SignatureSpec) -> SpinBasis:
    """Construct an exact spinor basis for sig: the single canonical basis,
    or for the quaternionic types 4 and 6 the first census split.  Raises
    ValueError for the semi-simple types 1 and 5 and above MAX_SPINOR_DIM.
    """
    check_spinor_size(sig.n)
    words, name = _basis_words(sig)
    return SpinBasis(sig, [_word(*w) for w in words], name=name)


def sweep_spinbasis_variants(sig: SignatureSpec) -> List[SpinBasis]:
    """All census-split variants for quaternionic types, each followed by
    its order-reversed and sign-flipped tweaks (other types and complex
    marks return the single canonical basis).  Each all-real reference is
    built once per (r, s) within the call, and kept no longer."""
    p, q = sig.p, sig.q
    if type_index(p, q) not in (4, 6) or sig.field == "C":
        return [build_spinbasis(sig)]
    check_spinor_size(sig.n)
    refs: Dict[Tuple[int, int], List[Word]] = {}
    out = []
    for split in quaternionic_splits(p, q):
        rs = split[:2]
        if rs not in refs:
            refs[rs] = _real_words(*rs)
        words, name = _split_words(p, q, split, refs[rs])
        mats = [_word(*w) for w in words]
        flipped = mats[:]
        flipped[1::2] = [_word(d, c + 2, x, z) for d, c, x, z in words[1::2]]
        out += [SpinBasis(sig, mats, name=name),
                SpinBasis(sig, mats[:p][::-1] + mats[p:][::-1], name=name + ",reversed"),
                SpinBasis(sig, flipped, name=name + ",flipped")]
    return out


# ---------------------------------------------------------------------------
# serialized bases


def load_spinbasis(source: str) -> SpinBasis:
    """Load a basis from a JSON file, or the bundled set by name ('gamma').

    Schema: {"name": str, "p": int, "q": int, "matrices": [[[scalar text]]]},
    p + q square matrices of one size.  Validates anticommutation, metric
    squares, and unit classifiability.  Every bad input (unreadable, not
    JSON, a missing key, a wrong shape, a failed check) raises ValueError
    naming the source.
    """
    if source == "gamma":
        text = resources.files("cliffork").joinpath("data/gamma_basis.json").read_text()
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read basis file {source!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read basis file {source!r}: {exc.reason}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"basis file {source!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"basis file {source!r} does not hold a JSON object")
    missing = [key for key in ("p", "q", "matrices") if key not in payload]
    if missing:
        raise ValueError(f"basis file {source!r} lacks {', '.join(map(repr, missing))}")
    try:
        basis = SpinBasis(*_basis_payload(payload), name=payload.get("name", source))
        basis.validate()
        basis.unit_census()  # every unit must be classifiable
    except ValueError as exc:
        raise ValueError(f"basis file {source!r}: {exc}") from exc
    return basis


def _basis_payload(payload: dict) -> Tuple[SignatureSpec, List[SpinMatrix]]:
    """Signature and units of a basis payload; ValueError names the first
    field of the wrong shape."""

    def scalar(k: int, entry) -> GaussianScalar:
        if isinstance(entry, str):
            try:
                return parse_gaussian(entry)
            except ValueError:
                pass
        raise ValueError(f"matrix {k} holds {json.dumps(entry)}, which is not scalar text")

    p, q, raw = payload["p"], payload["q"], payload["matrices"]
    for key, value in (("p", p), ("q", q)):
        if type(value) is not int or value < 0:  # neither a bool nor a float such as 1.7
            raise ValueError(f"{key!r} must be a nonnegative integer, got {json.dumps(value)}")
    if not isinstance(payload.get("name", ""), str):
        raise ValueError(f"'name' must be a string, got {json.dumps(payload['name'])}")
    if not isinstance(raw, list) or len(raw) != p + q:
        raise ValueError(f"'matrices' must be a list of p+q = {p + q} matrices")
    for k, rows in enumerate(raw, 1):
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and len(row) == len(rows) for row in rows)):
            raise ValueError(f"matrix {k} is not a nonempty square list of rows")
        d = len(raw[0])
        if len(rows) != d:
            raise ValueError(f"matrix {k} is {len(rows)}x{len(rows)}, matrix 1 is {d}x{d}")
    mats = [SpinMatrix([[scalar(k, e) for e in row] for row in rows])
            for k, rows in enumerate(raw, 1)]
    return SignatureSpec(p, q), mats


def save_spinbasis(basis: SpinBasis, path: str) -> None:
    payload = {
        "name": basis.name,
        "p": basis.sig.p,
        "q": basis.sig.q,
        "matrices": [m.to_lists() for m in basis.mats],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)

