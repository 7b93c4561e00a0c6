"""Finite groups of signed blades and matrices.

GroupTable is a plain multiplication table over canonical element labels;
generate_group closes a generating set by breadth-first search under exact
equality. identify_small_group names any 2-group of order <= 16 (fingerprint
match against a constructed catalog, every match confirmed by a backtracking
isomorphism search).

The vee group of Cl(p,q) is the set of 2^(n+1) signed basis blades; the
factor theorem (quotient by the center is elementary abelian of even 2-rank)
is checked by directly building the coset table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .core_algebra import (
    GaussianScalar,
    SignatureSpec,
    blade_name,
    blade_product,
    volume_square_sign,
)
from .spinor_repr import SpinMatrix

MAX_CLOSURE = 10_000
_SPOT_CHECKS = 200  # random associativity triples per validate()


@dataclass
class GroupTable:
    """Finite group as an index table: table[i][j] = index of g_i * g_j."""

    elements: List[str]
    table: List[List[int]]
    neutral: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, i: int) -> int:
        row = self.table[i]
        for j, prod in enumerate(row):
            if prod == self.neutral:
                return j
        raise ValueError(f"element {self.elements[i]} has no inverse")

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != self.neutral:
            acc = self.table[acc][i]
            k += 1
            if k > self.order:
                raise ValueError("order computation ran past the group order")
        return k

    def order_structure(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for i in range(self.order):
            k = self.element_order(i)
            out[k] = out.get(k, 0) + 1
        return out

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

    def subgroup_closure(self, seed: Iterable[int]) -> List[int]:
        got = {self.neutral}
        frontier = list(set(seed) | got)
        got |= set(frontier)
        while frontier:
            nxt = []
            for a in list(got):
                for b in frontier:
                    c = self.table[a][b]
                    if c not in got:
                        got.add(c)
                        nxt.append(c)
            frontier = nxt
        return sorted(got)

    def quotient_by(self, normal: Sequence[int]) -> "GroupTable":
        """Coset table; verifies normality and well-definedness directly."""
        nset = set(normal)
        if self.neutral not in nset:
            raise ValueError("normal subgroup must contain the neutral element")
        # cosets
        coset_of: Dict[int, int] = {}
        cosets: List[Tuple[int, ...]] = []
        for g in range(self.order):
            if g in coset_of:
                continue
            members = tuple(sorted(self.table[g][h] for h in nset))
            idx = len(cosets)
            for x in members:
                if x in coset_of:
                    raise ValueError("subgroup does not partition the group")
                coset_of[x] = idx
            cosets.append(members)
        k = len(cosets)
        qt = [[-1] * k for _ in range(k)]
        for gi, members_i in enumerate(cosets):
            for gj, members_j in enumerate(cosets):
                images = {coset_of[self.table[a][b]] for a in members_i for b in members_j}
                if len(images) != 1:
                    raise ValueError("quotient multiplication is not well defined")
                qt[gi][gj] = images.pop()
        labels = ["[" + self.elements[c[0]] + "]" for c in cosets]
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


def generate_group(
    generators: Sequence[Hashable],
    mul: Callable,
    neutral: Hashable,
    label: Optional[Callable] = None,
) -> GroupTable:
    """BFS closure of generators under mul; exact equality via hashing."""
    index: Dict[Hashable, int] = {neutral: 0}
    items: List[Hashable] = [neutral]
    frontier = [neutral]
    gens = list(generators)
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
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
            z = mul(x, y)
            if z not in index:
                raise ValueError("generating set is not closed under products")
            table[i][j] = index[z]
    labeler = label or (lambda v: str(v))
    tbl = GroupTable([labeler(v) for v in items], table, 0)
    tbl.validate()
    return tbl


def _signed_blade_label(sb: Tuple[int, int]) -> str:
    mask, sign = sb
    return ("+" if sign > 0 else "-") + blade_name(mask)


def generate_group_from_matrices(mats: Sequence[SpinMatrix]) -> GroupTable:
    """Closure of exact matrices; elements must be invertible (finite order)."""
    if not mats:
        raise ValueError("need at least one matrix")
    ident = SpinMatrix.identity(mats[0].dim)
    counter = [0]
    names: Dict[SpinMatrix, str] = {}

    def label(m: SpinMatrix) -> str:
        if m not in names:
            names[m] = f"g{counter[0]}"
            counter[0] += 1
        return names[m]

    def mul(a, b):
        return a * b

    return generate_group(list(mats), mul, neutral=ident, label=label)


# ---------------------------------------------------------------------------
# the small-group catalog


def _cyclic(n: int) -> GroupTable:
    return GroupTable(
        [f"a{k}" for k in range(n)],
        [[(i + j) % n for j in range(n)] for i in range(n)],
        0,
    )


def direct_product(t1: GroupTable, t2: GroupTable) -> GroupTable:
    n1, n2 = t1.order, t2.order
    labels = [f"({t1.elements[i]},{t2.elements[j]})" for i in range(n1) for j in range(n2)]
    table = [
        [
            t1.table[i1][j1] * n2 + t2.table[i2][j2]
            for j1 in range(n1)
            for j2 in range(n2)
        ]
        for i1 in range(n1)
        for i2 in range(n2)
    ]
    return GroupTable(labels, table, t1.neutral * n2 + t2.neutral)


def _two_generator(modulus: int, twist: int, btwist: int) -> GroupTable:
    """Group with presentation a^modulus = 1, b a b^-1 = a^twist, b^2 = a^btwist.

    Elements in normal form a^k b^e, e in {0,1}."""
    n = 2 * modulus

    def idx(k, e):
        return (k % modulus) * 2 + e

    table = [[0] * n for _ in range(n)]
    for k1 in range(modulus):
        for e1 in (0, 1):
            for k2 in range(modulus):
                for e2 in (0, 1):
                    k = k1 + (twist * k2 if e1 else k2)
                    e = e1 + e2
                    if e == 2:
                        k += btwist
                        e = 0
                    table[idx(k1, e1)][idx(k2, e2)] = idx(k, e)
    labels = ["?"] * n
    for k in range(modulus):
        for e in (0, 1):
            labels[idx(k, e)] = f"a{k}" + ("b" if e else "")
    return GroupTable(labels, table, idx(0, 0))


def _split_extension(normal: GroupTable, m: int, phi: Sequence[int]) -> GroupTable:
    """normal x| Z_m, the generator b of Z_m acting by the automorphism phi
    (a permutation of normal's indices).  Element x b^e has index e*|normal| + x."""
    n = normal.order
    powers = [list(range(n))]  # powers[e][x] = phi^e(x)
    for _ in range(m - 1):
        powers.append([phi[x] for x in powers[-1]])
    table = [
        [((e1 + e2) % m) * n + normal.table[x1][powers[e1][x2]]
         for e2 in range(m) for x2 in range(n)]
        for e1 in range(m) for x1 in range(n)
    ]
    labels = [f"{normal.elements[x]}b{e}" for e in range(m) for x in range(n)]
    return GroupTable(labels, table, normal.neutral)


def _pauli_group() -> GroupTable:
    a = SpinMatrix([[1, 0], [0, -1]])
    b = SpinMatrix([[0, 1], [1, 0]])
    i_ident = SpinMatrix.identity(2) * GaussianScalar.I
    return generate_group_from_matrices([a, b, i_ident])


@functools.cache
def _catalog() -> Dict[str, GroupTable]:
    """Every group of order 1, 2, 4, 8 and 16 (Besche-Eick-O'Brien count:
    14 of order 16), by name."""
    z2, z4, z8, z16 = _cyclic(2), _cyclic(4), _cyclic(8), _cyclic(16)
    cat: Dict[str, GroupTable] = {
        "1": _cyclic(1),
        "Z2": z2,
        "Z4": z4,
        "Z8": z8,
        "Z16": z16,
        "Z2xZ2": direct_product(z2, z2),
        "Z4xZ2": direct_product(z4, z2),
        "Z2xZ2xZ2": direct_product(direct_product(z2, z2), z2),
        "Z8xZ2": direct_product(z8, z2),
        "Z4xZ4": direct_product(z4, z4),
        "Z4xZ2xZ2": direct_product(direct_product(z4, z2), z2),
        "Z2xZ2xZ2xZ2": direct_product(direct_product(z2, z2), direct_product(z2, z2)),
        "D4": _two_generator(4, -1, 0),
        "Q4": _two_generator(4, -1, 2),
        "D8": _two_generator(8, -1, 0),
        "Q16": _two_generator(8, -1, 4),
        "SD16": _two_generator(8, 3, 0),
        "M16": _two_generator(8, 5, 0),
    }
    cat["D4xZ2"] = direct_product(cat["D4"], z2)
    cat["Q4xZ2"] = direct_product(cat["Q4"], z2)
    cat["D4oZ4"] = _pauli_group()  # central product, the 2x2 Pauli group
    # SmallGroup(16,4): b a b^-1 = a^-1 with b of order 4
    cat["Z4:Z4"] = _split_extension(z4, 4, [(-k) % 4 for k in range(4)])
    # SmallGroup(16,3): on Z4xZ2 = <a> x <c>, b a b^-1 = ac and b c b^-1 = c
    cat["(Z4xZ2):Z2"] = _split_extension(
        cat["Z4xZ2"], 2, [2 * k + (k + j) % 2 for k in range(4) for j in range(2)]
    )
    for t in cat.values():
        t.validate()
    return cat


def _fingerprint(t: GroupTable) -> Tuple:
    return (
        t.order,
        t.is_abelian(),
        tuple(sorted(t.order_structure().items())),
        len(t.center()),
    )


@functools.cache
def _catalog_by_fingerprint() -> Dict[Tuple, List[Tuple[str, GroupTable]]]:
    """The catalog grouped by _fingerprint, in catalog order; each catalog
    fingerprint is computed once."""
    out: Dict[Tuple, List[Tuple[str, GroupTable]]] = {}
    for name, ref in _catalog().items():
        out.setdefault(_fingerprint(ref), []).append((name, ref))
    return out


def _find_isomorphism(t1: GroupTable, t2: GroupTable) -> bool:
    """Backtracking isomorphism search; both orders must be small (<= 16)."""
    if t1.order != t2.order:
        return False
    n = t1.order
    orders2: Dict[int, List[int]] = {}
    for j in range(n):
        orders2.setdefault(t2.element_order(j), []).append(j)

    # a generating sequence for t1
    gens: List[int] = []
    span = {t1.neutral}
    for i in range(n):
        if i not in span:
            gens.append(i)
            span = set(t1.subgroup_closure(gens))
            if len(span) == n:
                break

    def words(gen_images: List[int]) -> Optional[Dict[int, int]]:
        # build the homomorphism by closing words over both tables in parallel
        mapping = {t1.neutral: t2.neutral}
        frontier = [t1.neutral]
        while frontier:
            nxt = []
            for x in frontier:
                for g1, g2 in zip(gens, gen_images):
                    y1 = t1.table[x][g1]
                    y2 = t2.table[mapping[x]][g2]
                    if y1 in mapping:
                        if mapping[y1] != y2:
                            return None
                        continue
                    mapping[y1] = y2
                    nxt.append(y1)
            frontier = nxt
        if len(mapping) != n or len(set(mapping.values())) != n:
            return None
        # verify it is a homomorphism on the full table
        for a in range(n):
            for b in range(n):
                if mapping[t1.table[a][b]] != t2.table[mapping[a]][mapping[b]]:
                    return None
        return mapping

    def backtrack(k: int, images: List[int]) -> bool:
        if k == len(gens):
            return words(images) is not None
        want = t1.element_order(gens[k])
        for cand in orders2.get(want, []):
            if backtrack(k + 1, images + [cand]):
                return True
        return False

    return backtrack(0, [])


def identify_small_group(t: GroupTable) -> str:
    """Name a group of order <= 16 from the catalog; raises when absent."""
    if t.order > 16:
        raise ValueError(f"identification limited to order <= 16, got {t.order}")
    fp = _fingerprint(t)
    for name, ref in _catalog_by_fingerprint().get(fp, ()):
        if _find_isomorphism(t, ref):
            return name
    raise ValueError(f"group with fingerprint {fp} is not in the catalog")


# ---------------------------------------------------------------------------
# vee groups of Cl(p,q)


def vee_group(sig: SignatureSpec) -> GroupTable:
    """The 2^(n+1) signed basis blades of Cl(p,q) under the blade product."""
    if sig.n > 8:
        raise ValueError("vee groups are built exhaustively only up to p+q=8")
    blades = [(mask, sign) for mask in range(1 << sig.n) for sign in (1, -1)]
    # (mask, sign) sits at 2 * mask + (sign < 0), so a sign flip is index ^ 1
    # and one blade product per pair of masks fills four cells
    table = []
    for a in range(1 << sig.n):
        row = []
        for b in range(1 << sig.n):
            mask, s = blade_product(sig, a, b)
            k = 2 * mask + (s < 0)
            row += (k, k ^ 1)  # times (b, +1), then times (b, -1)
        table += (row, [k ^ 1 for k in row])  # the rows of (a, +1) and (a, -1)
    return GroupTable([_signed_blade_label(sb) for sb in blades], table, 0)


def group_center_type(sig_or_p, q: Optional[int] = None) -> str:
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.n % 2 == 0:
        return "Z2"
    return "Z2xZ2" if volume_square_sign(sig.p, sig.q) == 1 else "Z4"


@dataclass
class VeeFactorReport:
    sig: SignatureSpec
    group_order: int
    center_labels: List[str]
    center_type: str
    predicted_center_type: str
    quotient_order: int
    quotient_elementary_abelian: bool
    two_rank: Optional[int]
    passed: bool
    failures: List[str] = field(default_factory=list)


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
