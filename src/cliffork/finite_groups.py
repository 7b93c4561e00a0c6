"""Finite groups of signed blades and matrices.

GroupTable is a plain multiplication table over canonical element labels.
Every group the library names (covers, matrix groups, vee groups and their
centers) is a signed 2-group of order <= 16, with squares 1 and at most one
z, and `signed_group_name` names it by the invariants of its F2 quadratic
form q(x) = [x^2 = z] (Arf, 1941), counted on a table by identify_small_group
(which raises on any other table) or on a sign cocycle by cocycle_group.
The BFS closure generate_group_from_matrices is the tests' oracle for the
latter.

The vee group of Cl(p,q) is the set of 2^(n+1) signed basis blades; the
factor theorem (quotient by the center is elementary abelian of even 2-rank)
is checked on the coset table, which `GroupTable.quotient_by` reads from one
representative per coset once it has checked that the center is normal.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core_algebra import (
    SignatureSpec,
    blade_name,
    blade_row,
    volume_square_sign,
)
from .spinor_repr import SpinMatrix

MAX_CLOSURE = 10_000
_SPOT_CHECKS = 200  # random associativity triples per validate()


class GroupTable(NamedTuple):
    """Finite group as an index table: table[i][j] = index of g_i * g_j."""

    elements: List[str]
    table: List[List[int]]
    neutral: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != self.neutral:
            acc = self.table[acc][i]
            k += 1
            if k > self.order:
                raise ValueError("order computation ran past the group order")
        return k

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[i][j] == t[j][i] for i in range(self.order) for j in range(i + 1, self.order)
        )

    def center(self) -> List[int]:
        t = self.table
        return [
            i
            for i in range(self.order)
            if all(t[i][j] == t[j][i] for j in range(self.order))
        ]

    def quotient_by(self, normal: Sequence[int]) -> "GroupTable":
        """Table of G/N on the left cosets gN, in order of their least member.

        The coset product gN . hN = ghN is well defined exactly when N is a
        normal subgroup, that is when the right translate Ng is the left
        coset gN for every g; for g in N this says N.g = N, so N is closed.
        That is checked on every g, and the table is then read from one
        representative per coset: O(|G|.|N| + k^2) for k cosets, where
        checking every product of two cosets would be O(|G|^2).  TypeError
        for an entry of `normal` that is not an int, ValueError for one that
        is no element index and for an N that is not a normal subgroup.
        """
        t = self.table
        nset = set()
        for h in normal:
            if type(h) is not int:
                raise TypeError(f"subgroup entry {h!r} is not an element index")
            if not 0 <= h < self.order:
                raise ValueError(f"subgroup entry {h} is not an element index "
                                 f"of a group of order {self.order}")
            nset.add(h)
        if self.neutral not in nset:
            raise ValueError("normal subgroup must contain the neutral element")
        # cosets
        coset_of: Dict[int, int] = {}
        cosets: List[Tuple[int, ...]] = []
        for g in range(self.order):
            if g in coset_of:
                continue
            members = tuple(sorted(t[g][h] for h in nset))
            idx = len(cosets)
            for x in members:
                if x in coset_of:
                    raise ValueError("subgroup does not partition the group")
                coset_of[x] = idx
            cosets.append(members)
        for g in range(self.order):
            if tuple(sorted(t[h][g] for h in nset)) != cosets[coset_of[g]]:
                raise ValueError("quotient multiplication is not well defined")
        reps = [c[0] for c in cosets]
        qt = [[coset_of[t[a][b]] for b in reps] for a in reps]
        labels = ["[" + self.elements[a] + "]" for a in reps]
        return GroupTable(labels, qt, coset_of[self.neutral])

    def validate(self) -> None:
        """Closure and shape always; associativity spot-checked; inverses unique."""
        n = self.order
        for row in self.table:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("table is not closed over the element list")
        if any(self.table[self.neutral][j] != j or self.table[j][self.neutral] != j for j in range(n)):
            raise ValueError("neutral element fails its defining property")
        for i in range(n):
            if sum(1 for j in range(n) if self.table[i][j] == self.neutral) != 1:
                raise ValueError(f"element {self.elements[i]} lacks a unique inverse")
        import random

        rng = random.Random(0)
        for _ in range(min(_SPOT_CHECKS, n * n * n)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise ValueError("associativity spot-check failed")


# ---------------------------------------------------------------------------
# generation by closure


def generate_group_from_matrices(mats: Sequence[SpinMatrix]) -> GroupTable:
    """BFS closure of exact matrices under the product, exact equality via
    hashing; elements must be invertible (finite order).  Its elements are
    named g0, g1, ... in the order the search meets them."""
    if not mats:
        raise ValueError("need at least one matrix")
    ident = SpinMatrix.identity(mats[0].dim)
    index: Dict[SpinMatrix, int] = {ident: 0}
    items: List[SpinMatrix] = [ident]
    frontier = [ident]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in mats:
                y = x * g
                if y not in index:
                    if len(items) >= MAX_CLOSURE:
                        raise ValueError(f"closure exceeded {MAX_CLOSURE} elements")
                    index[y] = len(items)
                    items.append(y)
                    new_frontier.append(y)
        frontier = new_frontier

    # products may leave the right-multiplication reachability set only if
    # generators are not invertible in the closure; the table build catches it
    n = len(items)
    table = [[-1] * n for _ in range(n)]
    for i, x in enumerate(items):
        for j, y in enumerate(items):
            z = x * y
            if z not in index:
                raise ValueError("generating set is not closed under products")
            table[i][j] = index[z]
    tbl = GroupTable([f"g{i}" for i in range(n)], table, 0)
    tbl.validate()
    return tbl


def _signed_blade_label(sb: Tuple[int, int]) -> str:
    mask, sign = sb
    return ("+" if sign > 0 else "-") + blade_name(mask)


# ---------------------------------------------------------------------------
# naming by the F2 quadratic form


def signed_group_name(order: int, center: int, central_z: bool, to_z: int) -> str:
    """Name a signed 2-group of order <= 16 from four counts: its order, the
    order of its center, whether a central element squares to z, and how
    many elements square to z.

    With no element squaring to z the group is elementary abelian.
    Otherwise it is a central extension of V = Z2^m by <z>, fixed up to
    isomorphism by the form q(x) = [x^2 = z] on V, whose polar form is
    B(x, y) = [x and y anticommute].  The center is the preimage of the
    radical R of B, so |Z(G)| = 2^(r+1) with r = dim R; q is nonzero on R
    exactly when a central element squares to z; V/R has rank 2k = m - r;
    and when q vanishes on R its Arf invariant is 1 exactly when more than
    half of G squares to z.  So the group is Z4 (k = 0) or D4oZ4 (k = 1)
    when q is nonzero on R, D4 (Arf 0) or Q4 (Arf 1) when it vanishes there,
    each times Z2 factors up to its order.
    """
    if order > 16:
        raise ValueError(f"signed group naming limited to order <= 16, got {order}")
    rank = order.bit_length() - 1
    if not to_z:
        return "x".join(["Z2"] * rank) or "1"
    r = center.bit_length() - 2
    k = (rank - 1 - r) // 2
    if central_z:
        return ("Z4", "D4oZ4")[k] + "xZ2" * (r - 1)
    return ("Q4" if 2 * to_z > order else "D4") + "xZ2" * r


def identify_small_group(t: GroupTable) -> str:
    """Name a group of order <= 16 whose squares are 1 and at most one z by
    `signed_group_name`; ValueError for any other table, a table that is not
    a group included."""
    n = t.order
    if n > 16:
        raise ValueError(f"identification limited to order <= 16, got {n}")
    t.validate()
    tb = t.table
    if any(tb[tb[a][b]][c] != tb[a][tb[b][c]] for a in range(n) for b in range(n) for c in range(n)):
        raise ValueError("table is not associative")
    squares = {tb[g][g] for g in range(n)} - {t.neutral}
    if len(squares) > 1:
        raise ValueError(f"group of order {n} has {len(squares)} nontrivial squares, "
                         "not a signed 2-group")
    center = t.center()
    return signed_group_name(n, len(center), any(tb[c][c] in squares for c in center),
                             sum(1 for g in range(n) if tb[g][g] in squares))


def cocycle_group(cocycle: Dict[Tuple[int, int], int], kernel: Sequence[int] = (0,),
                  minus: bool = True) -> Tuple[int, str]:
    """(order, name) of {+-1} x V with (s, a)(t, b) = (s t cocycle[a, b],
    a ^ b), V the XOR group of codes `cocycle` is keyed on, modulo `kernel`:
    codes that stand for signs, so q(x) = [cocycle[x, x] = -1] and its polar
    form B(x, y) = [cocycle[x, y] != cocycle[y, x]] vanish on them.  Without
    `minus` the cocycle is trivial and one sign per coset is kept."""
    codes = sorted({a for a, _ in cocycle})
    q = {a for a in codes if cocycle[a, a] < 0}
    radical = {a for a in codes if all(cocycle[a, b] == cocycle[b, a] for b in codes)}
    order = (1 + minus) * len(codes) // len(kernel)
    return order, signed_group_name(order, 2 * len(radical) // len(kernel),
                                    bool(q & radical), 2 * len(q) // len(kernel))


# ---------------------------------------------------------------------------
# vee groups of Cl(p,q)

# Largest p+q whose vee group is built: its table has 2^(2n+2) entries.
VEE_MAX_N = 8


def check_vee_size(n: int) -> None:
    """Raise ValueError when p+q = n is above VEE_MAX_N."""
    if n > VEE_MAX_N:
        raise ValueError(f"vee groups are built exhaustively only up to p+q={VEE_MAX_N}")


def vee_group(sig: SignatureSpec) -> GroupTable:
    """The 2^(n+1) signed basis blades of Cl(p,q) under the blade product."""
    check_vee_size(sig.n)
    blades = [(mask, sign) for mask in range(1 << sig.n) for sign in (1, -1)]
    # (mask, sign) sits at 2 * mask + (sign < 0), so a sign flip is index ^ 1
    # and one blade product per pair of masks fills four cells
    table = []
    for a in range(1 << sig.n):
        row = []
        for mask, s in blade_row(sig, a):
            k = 2 * mask + (s < 0)
            row += (k, k ^ 1)  # times (b, +1), then times (b, -1)
        table += (row, [k ^ 1 for k in row])  # the rows of (a, +1) and (a, -1)
    return GroupTable([_signed_blade_label(sb) for sb in blades], table, 0)


def group_center_type(sig_or_p, q: Optional[int] = None) -> str:
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.n % 2 == 0:
        return "Z2"
    return "Z2xZ2" if volume_square_sign(sig.p, sig.q) == 1 else "Z4"


class VeeFactorReport(NamedTuple):
    sig: SignatureSpec
    group_order: int
    center_labels: List[str]
    center_type: str
    predicted_center_type: str
    quotient_order: int
    quotient_elementary_abelian: bool
    two_rank: Optional[int]
    passed: bool
    failures: List[str]


def vee_factor_check(sig: SignatureSpec) -> VeeFactorReport:
    """Factor theorem: G(p,q)/Z is elementary abelian of order 2^(2k)."""
    g = vee_group(sig)
    center_idx = g.center()
    center_labels = [g.elements[i] for i in center_idx]
    sub = GroupTable(
        [g.elements[i] for i in center_idx],
        [[center_idx.index(g.table[a][b]) for b in center_idx] for a in center_idx],
        center_idx.index(g.neutral),
    )
    center_type = identify_small_group(sub)
    predicted = group_center_type(sig)
    failures = []
    if center_type != predicted:
        failures.append(f"center is {center_type}, predicted {predicted}")
    quo = g.quotient_by(center_idx)
    elementary = quo.is_abelian() and all(
        quo.element_order(i) in (1, 2) for i in range(quo.order)
    )
    if not elementary:
        failures.append("quotient is not elementary abelian")
    two_rank: Optional[int] = None
    if elementary:
        rank = quo.order.bit_length() - 1
        if 1 << rank != quo.order:
            failures.append("quotient order is not a power of two")
        elif rank % 2 != 0:
            failures.append(f"quotient 2-rank {rank} is odd")
        else:
            two_rank = rank // 2
    return VeeFactorReport(
        sig=sig,
        group_order=g.order,
        center_labels=center_labels,
        center_type=center_type,
        predicted_center_type=predicted,
        quotient_order=quo.order,
        quotient_elementary_abelian=elementary,
        two_rank=two_rank,
        passed=not failures,
        failures=failures,
    )
