"""Exact spinor representations: monomial matrix bases for Cl(p,q).

Construction routes:
  * types 0,2 (ring R): an all-real basis via the doubling chain
    Cl(p,q) -> Cl(p+1,q+1) from the seeds Cl(0,0), Cl(2,0), followed by
    four-unit swaps (multiply a quartet of same-square units by their
    product) to move along p - q in steps of 8;
  * types 4,6 (ring H): an all-real reference basis with x symmetric and
    y skew units multiplied by i (the census split (x,y) indexes variants);
  * types 3,7 and complex algebras of odd dimension: a basis for the first
    n-1 generators plus E_n = c * E_1...E_{n-1} with c in {1, i};
  * complex algebras of even dimension: the alternating tensor ladder over
    the 2x2 blocks.

Types 1 and 5 are semi-simple and have no faithful irreducible of the table
dimension; build_spinbasis rejects them (the quotient module handles the
split), and it rejects any basis above MAX_SPINOR_DIM.

Every constructed unit is monomial: one nonzero entry per row and column,
taken from {+-1, +-i}.  So is every product of units (blade images, the
W..F matrices, their closure: the image of Salingaros' vee group).
SpinMatrix therefore has two internal forms, chosen from the entries:

  * monomial form, a (column permutation, Z/4 phase) pair of int tuples, on
    which products, -, conj, transpose, scaling by i^k, kron, the +-I test,
    == and hash are O(d) integer work;
  * dense form, d x d exact Gaussian rationals, for every other matrix: a
    user-loaded non-monomial basis (`ext-group --basis FILE`) or the image
    of a general multivector.

The form is canonical: any result that is monomial with unit entries is
stored in monomial form, whichever path computed it, so == and hash stay
exact across the two forms and every comparison downstream is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .classification import odd_reduction, type_index
from .core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    blade_indices,
    blade_product,
    format_gaussian,
    parse_gaussian,
)

_ZERO = GaussianScalar.ZERO
_ONE = GaussianScalar.ONE
_I = GaussianScalar.I


# ---------------------------------------------------------------------------
# exact matrices: monomial and dense forms

_UNITS = (_ONE, _I, -_ONE, -_I)  # i^k for k = 0..3
_PHASE = {u: k for k, u in enumerate(_UNITS)}


def _monomial_form(rows) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(perm, phase) when rows has one nonzero per row and per column and
    each nonzero is a unit i^k; None otherwise."""
    perm, phase = [], []
    for row in rows:
        cols = [j for j, a in enumerate(row) if a]
        if len(cols) != 1:
            return None
        k = _PHASE.get(row[cols[0]])
        if k is None:
            return None
        perm.append(cols[0])
        phase.append(k)
    if len(set(perm)) != len(perm):
        return None
    return tuple(perm), tuple(phase)


def _dense_product(arows, brows) -> List[List[GaussianScalar]]:
    n = len(brows)
    out = []
    for row in arows:
        acc = [_ZERO] * n
        for k, a in enumerate(row):
            if not a:
                continue
            for j, b in enumerate(brows[k]):
                if b:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


class SpinMatrix:
    """Immutable square matrix of Gaussian rationals, in one of two forms.

    Monomial form: one nonzero entry per row and per column, each a unit
    i^k.  It is stored as two int tuples, `perm` (row r holds its entry in
    column perm[r]) and `phase` (that entry is i^phase[r]).  Products, -,
    conj, transpose, scaling by i^k, kron, the +-I test, == and hash are
    O(d) integer tuple work on it.

    Dense form: every other matrix, for instance the image of a general
    multivector or a user-loaded unit such as [[3/5,4/5],[4/5,-3/5]].  It
    keeps the d x d GaussianScalar entries; `perm` and `phase` are None.

    The form is canonical: a result that is monomial with unit entries is
    stored in monomial form whichever path computed it, so == and hash are
    exact across the two forms (R*R for the R above equals and hashes like
    the identity).  `rows` is the read-only dense view of either form.
    """

    __slots__ = ("perm", "phase", "_dense")

    def __init__(self, rows: Sequence[Sequence]):
        dense = tuple(tuple(GaussianScalar.of(x) for x in row) for row in rows)
        n = len(dense)
        if any(len(r) != n for r in dense):
            raise ValueError("SpinMatrix must be square")
        form = _monomial_form(dense)
        if form is None:
            self.perm = self.phase = None
            self._dense = dense
        else:
            self.perm, self.phase = form
            self._dense = None

    @property
    def rows(self) -> Tuple[Tuple[GaussianScalar, ...], ...]:
        if self.perm is None:
            return self._dense
        d = len(self.perm)
        out = []
        for col, k in zip(self.perm, self.phase):
            row = [_ZERO] * d
            row[col] = _UNITS[k]
            out.append(tuple(row))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self._dense if self.perm is None else self.perm)

    @classmethod
    def identity(cls, n: int) -> "SpinMatrix":
        return _monomial(tuple(range(n)), (0,) * n)

    @classmethod
    def zero(cls, n: int) -> "SpinMatrix":
        return cls([[0] * n for _ in range(n)])

    def __mul__(self, other):
        if not isinstance(other, SpinMatrix):
            return self._scaled(GaussianScalar.of(other))
        a, b = self.perm, other.perm
        if a is not None and b is not None:
            if len(a) != len(b):
                raise ValueError("dimension mismatch")
            bphase = other.phase
            return _monomial(
                tuple([b[k] for k in a]),
                tuple([(x + bphase[k]) & 3 for x, k in zip(self.phase, a)]),
            )
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return SpinMatrix(_dense_product(self.rows, other.rows))

    def __rmul__(self, other):
        return self._scaled(GaussianScalar.of(other))

    def _scaled(self, c: GaussianScalar) -> "SpinMatrix":
        k = _PHASE.get(c)
        if self.perm is not None and k is not None:
            return _monomial(self.perm, tuple([(x + k) & 3 for x in self.phase]))
        return SpinMatrix([[c * a for a in row] for row in self.rows])

    def __add__(self, other: "SpinMatrix") -> "SpinMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SpinMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        return self + (-other)

    def __neg__(self) -> "SpinMatrix":
        if self.perm is None:
            return SpinMatrix([[-a for a in row] for row in self._dense])
        return _monomial(self.perm, tuple([(x + 2) & 3 for x in self.phase]))

    def __eq__(self, other) -> bool:
        # one form per matrix, so a monomial never equals a dense matrix
        return (
            isinstance(other, SpinMatrix)
            and self.perm == other.perm
            and self.phase == other.phase
            and self._dense == other._dense
        )

    def __hash__(self):
        if self.perm is None:
            return hash(self._dense)
        return hash((self.perm, self.phase))

    def transpose(self) -> "SpinMatrix":
        if self.perm is None:
            return SpinMatrix(list(zip(*self._dense)))
        perm = [0] * len(self.perm)
        phase = [0] * len(self.perm)
        for r, (c, k) in enumerate(zip(self.perm, self.phase)):
            perm[c] = r
            phase[c] = k
        return _monomial(tuple(perm), tuple(phase))

    def conj(self) -> "SpinMatrix":
        if self.perm is None:
            return SpinMatrix([[a.conjugate() for a in row] for row in self._dense])
        return _monomial(self.perm, tuple([-x & 3 for x in self.phase]))

    def kron(self, other: "SpinMatrix") -> "SpinMatrix":
        if self.perm is None or other.perm is None:
            return SpinMatrix(
                [[a * b for a in r1 for b in r2] for r1 in self.rows for r2 in other.rows]
            )
        d = len(other.perm)
        return _monomial(
            tuple([c1 * d + c2 for c1 in self.perm for c2 in other.perm]),
            tuple([(k1 + k2) & 3 for k1 in self.phase for k2 in other.phase]),
        )

    def scalar_multiple_of_identity(self) -> Optional[GaussianScalar]:
        """c with self == c*I, or None."""
        if self.perm is not None:
            if self.perm != tuple(range(len(self.perm))) or len(set(self.phase)) > 1:
                return None
            return _UNITS[self.phase[0]]
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
        cells = [[format_gaussian(a) for a in row] for row in self.rows]
        w = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[" + " ".join(c.rjust(w) for c in row) + "]" for row in cells)

    def __repr__(self) -> str:
        return f"<SpinMatrix {self.dim}x{self.dim}>"


def _monomial(perm: Tuple[int, ...], phase: Tuple[int, ...]) -> SpinMatrix:
    """A SpinMatrix in monomial form, built without the entry scan."""
    m = object.__new__(SpinMatrix)
    m.perm = perm
    m.phase = phase
    m._dense = None
    return m


# the 2x2 building blocks
MAT_A = SpinMatrix([[1, 0], [0, -1]])  # real symmetric, squares to +I
MAT_B = SpinMatrix([[0, 1], [1, 0]])  # real symmetric, squares to +I
MAT_J = SpinMatrix([[0, 1], [-1, 0]])  # real skew, squares to -I


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


@dataclass(frozen=True)
class MatrixClass:
    reality: str  # "real" | "imaginary" | "mixed" | "zero"
    symmetry: str  # "symmetric" | "skew" | "mixed"


def classify_matrix(m: SpinMatrix) -> MatrixClass:
    if m.perm is not None:
        # one entry per phase parity present: i^0 stands for the real
        # (even) phases, i^1 for the imaginary (odd) ones
        entries = [_UNITS[k] for k in {k & 1 for k in m.phase}]
    else:
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


@dataclass(frozen=True)
class UnitCensus:
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

    @property
    def p(self) -> int:
        return self.v + self.m

    @property
    def q(self) -> int:
        return self.u + self.l


# ---------------------------------------------------------------------------
# the spinor basis object


class SpinBasis:
    """Anticommuting unit matrices E_1..E_n with E_i^2 = metric(i) * I."""

    def __init__(self, sig: SignatureSpec, mats: Sequence[SpinMatrix], name: str = ""):
        self.sig = sig
        self.mats = list(mats)
        self.name = name
        self._blade_cache: Dict[int, SpinMatrix] = {}
        self._species: Optional[Dict[str, Tuple[int, ...]]] = None
        if len(self.mats) != sig.n:
            raise ValueError(f"{sig} needs {sig.n} units, got {len(self.mats)}")
        self.dim = self.mats[0].dim if self.mats else 1

    def unit(self, i: int) -> SpinMatrix:
        return self.mats[i - 1]

    def blade_image(self, mask: int) -> SpinMatrix:
        """Image of the basis blade e_S, factors multiplied in ascending order."""
        cached = self._blade_cache.get(mask)
        if cached is not None:
            return cached
        if mask == 0:
            out = SpinMatrix.identity(self.dim)
        else:
            # ascending order: lowest factor on the left
            low = mask & -mask
            out = self.mats[low.bit_length() - 1] * self.blade_image(mask ^ low)
        self._blade_cache[mask] = out
        return out

    def image(self, x: MultiVector) -> SpinMatrix:
        if x.sig.p != self.sig.p or x.sig.q != self.sig.q:
            raise ValueError("multivector signature does not match the basis")
        acc = SpinMatrix.zero(self.dim)
        for mask, c in x.items():
            acc = acc + self.blade_image(mask) * c
        return acc

    def product_of(self, indices: Iterable[int]) -> SpinMatrix:
        """Product of the listed units (1-based), in the order given."""
        out = SpinMatrix.identity(self.dim)
        for i in indices:
            out = out * self.unit(i)
        return out

    def unit_species(self) -> Dict[str, Tuple[int, ...]]:
        """1-based unit indices per census species (v, u, l, m).

        This is the only place a unit is classified: the result is computed
        once per basis and memoised beside the blade cache (nothing mutates
        `mats` after construction), and every census-driven construction
        reads it from here.
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
# all-real construction for types 0 and 2


def _double(pos: List[SpinMatrix], neg: List[SpinMatrix]) -> Tuple[List[SpinMatrix], List[SpinMatrix]]:
    d = pos[0].dim if pos else (neg[0].dim if neg else 1)
    ident = SpinMatrix.identity(d)
    new_pos = [MAT_B.kron(ident)] + [MAT_A.kron(m) for m in pos]
    new_neg = [MAT_J.kron(ident)] + [MAT_A.kron(m) for m in neg]
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
                m = factor if m is None else m.kron(factor)
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

# Largest spinor dimension build_spinbasis constructs.  A basis for p+q = n
# has dimension 2^(n//2), so this admits p+q <= 25.  Cold `cliffork
# ext-group --p N --q 0` on a 2-core host: 0.3 s at N = 20, 0.5 s at 24,
# 1.0 s at 26, 1.9 s at 28 (doubling with each step of 2 from there on).
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


def build_spinbasis(sig: SignatureSpec, variant: Optional[int] = None) -> SpinBasis:
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
    sub = build_spinbasis(SignatureSpec(*odd_reduction(p, q)[0])).mats
    last = _extend_with_volume(sub, sig.metric(n))
    return SpinBasis(sig, sub + [last], name=f"odd({p},{q})")


def sweep_spinbasis_variants(sig: SignatureSpec) -> List[SpinBasis]:
    """All census-split variants for quaternionic types, each followed by
    its order-reversed and sign-flipped tweaks (other types and complex
    marks return the single canonical basis)."""
    t = type_index(sig.p, sig.q)
    if t not in (4, 6) or sig.field == "C":
        return [build_spinbasis(sig)]
    out = []
    for idx, split in enumerate(quaternionic_splits(sig.p, sig.q)):
        base = build_spinbasis(sig, variant=idx)
        out.append(base)
        p = sig.p
        pos, neg = base.mats[:p], base.mats[p:]
        out.append(
            SpinBasis(sig, pos[::-1] + neg[::-1], name=base.name + ",reversed")
        )
        flipped = [(-m if i % 2 else m) for i, m in enumerate(base.mats)]
        out.append(SpinBasis(sig, flipped, name=base.name + ",flipped"))
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


# ---------------------------------------------------------------------------
# primitive idempotents


_RH_BASE = (0, 1, 2, 2, 3, 3, 3, 3)


def radon_hurwitz_number(i: int) -> int:
    k, rem = divmod(i, 8)
    return _RH_BASE[rem] + 4 * k


def idempotent_rank(p: int, q: int) -> int:
    """Number k of commuting blade factors: 2^k primitive idempotents."""
    return q - radon_hurwitz_number(q - p)


def primitive_idempotent(sig: SignatureSpec) -> Tuple[MultiVector, List[int]]:
    """Greedy primitive idempotent: product of (1 + T_i)/2 over blades T_i
    chosen in grade-then-lex order, requiring square +1, pairwise
    commutation, and F2-independence of the index sets."""
    k = idempotent_rank(sig.p, sig.q)
    chosen: List[int] = []
    echelon: List[int] = []  # F2 row echelon of chosen masks

    def reduces_to_zero(mask: int) -> bool:
        for row in echelon:
            if mask & row & -row:
                mask ^= row
        return mask == 0

    def commutes(a: int, b: int) -> bool:
        m1, s1 = blade_product(sig, a, b)
        m2, s2 = blade_product(sig, b, a)
        return (m1, s1) == (m2, s2)

    masks = sorted(range(1, 1 << sig.n), key=lambda m: (m.bit_count(), blade_indices(m)))
    for mask in masks:
        if len(chosen) == k:
            break
        _, sq = blade_product(sig, mask, mask)
        if sq != 1:
            continue
        if not all(commutes(mask, c) for c in chosen):
            continue
        if reduces_to_zero(mask):
            continue
        chosen.append(mask)
        red = mask
        for row in echelon:
            if red & row & -row:
                red ^= row
        echelon.append(red)

    if len(chosen) != k:
        raise AssertionError(
            f"greedy found {len(chosen)} factors, Radon-Hurwitz count is {k}"
        )
    lam = MultiVector.scalar(sig, 1)
    half = GaussianScalar.of("1/2")
    for mask in chosen:
        factor = (MultiVector.scalar(sig, 1) + MultiVector.from_mask(sig, mask)) * half
        lam = lam * factor
    return lam, chosen
