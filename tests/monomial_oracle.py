"""The monomial matrix kernel: the differential oracle for the Pauli word
form of `spinor_repr.SpinMatrix`.

Before the word form, SpinMatrix kept a monomial matrix (one nonzero per row
and per column, each a unit i^k) as a (column permutation, Z/4 phase) pair
of int tuples, with O(d) products, -, conj, transpose, scaling by i^k, the
+-I test, == and hash, and every other matrix in dense form.  This is
that kernel as it was, renamed MonomialMatrix; `classify_matrix` returns the
(reality, symmetry) pair.  It treats every monomial alike, word or not, so
the tests compare the word kernel with it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from cliffork.core_algebra import GaussianScalar, format_gaussian

_ZERO = GaussianScalar.ZERO
_ONE = GaussianScalar.ONE
_I = GaussianScalar.I

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


class MonomialMatrix:
    """Immutable square matrix of Gaussian rationals, in one of two forms.

    Monomial form: one nonzero entry per row and per column, each a unit
    i^k.  It is stored as two int tuples, `perm` (row r holds its entry in
    column perm[r]) and `phase` (that entry is i^phase[r]).  Products, -,
    conj, transpose, scaling by i^k, the +-I test, == and hash are O(d)
    integer tuple work on it.

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
            raise ValueError("MonomialMatrix must be square")
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
    def identity(cls, n: int) -> "MonomialMatrix":
        return _monomial(tuple(range(n)), (0,) * n)

    @classmethod
    def zero(cls, n: int) -> "MonomialMatrix":
        return cls([[0] * n for _ in range(n)])

    def __mul__(self, other):
        if not isinstance(other, MonomialMatrix):
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
        return MonomialMatrix(_dense_product(self.rows, other.rows))

    def __rmul__(self, other):
        return self._scaled(GaussianScalar.of(other))

    def _scaled(self, c: GaussianScalar) -> "MonomialMatrix":
        k = _PHASE.get(c)
        if self.perm is not None and k is not None:
            return _monomial(self.perm, tuple([(x + k) & 3 for x in self.phase]))
        return MonomialMatrix([[c * a for a in row] for row in self.rows])

    def __add__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MonomialMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        return self + (-other)

    def __neg__(self) -> "MonomialMatrix":
        if self.perm is None:
            return MonomialMatrix([[-a for a in row] for row in self._dense])
        return _monomial(self.perm, tuple([(x + 2) & 3 for x in self.phase]))

    def __eq__(self, other) -> bool:
        # one form per matrix, so a monomial never equals a dense matrix
        return (
            isinstance(other, MonomialMatrix)
            and self.perm == other.perm
            and self.phase == other.phase
            and self._dense == other._dense
        )

    def __hash__(self):
        if self.perm is None:
            return hash(self._dense)
        return hash((self.perm, self.phase))

    def transpose(self) -> "MonomialMatrix":
        if self.perm is None:
            return MonomialMatrix(list(zip(*self._dense)))
        perm = [0] * len(self.perm)
        phase = [0] * len(self.perm)
        for r, (c, k) in enumerate(zip(self.perm, self.phase)):
            perm[c] = r
            phase[c] = k
        return _monomial(tuple(perm), tuple(phase))

    def conj(self) -> "MonomialMatrix":
        if self.perm is None:
            return MonomialMatrix([[a.conjugate() for a in row] for row in self._dense])
        return _monomial(self.perm, tuple([-x & 3 for x in self.phase]))

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
        return f"<MonomialMatrix {self.dim}x{self.dim}>"


def _monomial(perm: Tuple[int, ...], phase: Tuple[int, ...]) -> MonomialMatrix:
    """A MonomialMatrix in monomial form, built without the entry scan."""
    m = object.__new__(MonomialMatrix)
    m.perm = perm
    m.phase = phase
    m._dense = None
    return m


def classify_matrix(m: MonomialMatrix) -> Tuple[str, str]:
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
    return (reality, symmetry)
