"""The small-group catalog: the differential oracle for the form namers
`finite_groups.identify_small_group` and `finite_groups.cocycle_group`.

Every group of order 1, 2, 4, 8 and 16, built from presentations, named by
a fingerprint match and confirmed by a backtracking isomorphism search.  The
library names its groups by their F2 quadratic form instead; this is the
route that form namer replaced, kept to check it.  `order_structure`,
`inverse` and `subgroup_closure` were GroupTable methods that only this
route used.  `quotient_by_all_pairs` is the coset-table route that
`GroupTable.quotient_by` replaced: it checks that every product of two
cosets lands in one coset, where the library checks normality once per
element and reads the table from representatives.

`xor_group` with a cocycle and `signed_cover_group` build the group table of
a formal double cover, which the library now names from the sign cocycle
without a table; they stay here to build the tables the oracle names.

`matrix_comm_sign` and `matrix_square_sign` are the direct products that
`ext_group_report` once made for its commutation ledger and its squares;
the report now reads both from its sign cocycle, and they check it.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from cliffork.core_algebra import GaussianScalar
from cliffork.ext_automorphisms import ELEMENT_NAMES, MATRIX_NAMES, ExtMatrix
from cliffork.finite_groups import GroupTable, generate_group_from_matrices
from cliffork.spinor_repr import SpinMatrix


def inverse(t: GroupTable, i: int) -> int:
    row = t.table[i]
    for j, prod in enumerate(row):
        if prod == t.neutral:
            return j
    raise ValueError(f"element {t.elements[i]} has no inverse")


def order_structure(t: GroupTable) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for i in range(t.order):
        k = t.element_order(i)
        out[k] = out.get(k, 0) + 1
    return out


def subgroup_closure(t: GroupTable, seed: Iterable[int]) -> List[int]:
    got = {t.neutral}
    frontier = list(set(seed) | got)
    got |= set(frontier)
    while frontier:
        nxt = []
        for a in list(got):
            for b in frontier:
                c = t.table[a][b]
                if c not in got:
                    got.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(got)


def quotient_by_all_pairs(t: GroupTable, normal: Sequence[int]) -> GroupTable:
    """Coset table; verifies normality and well-definedness directly."""
    nset = set(normal)
    if t.neutral not in nset:
        raise ValueError("normal subgroup must contain the neutral element")
    # cosets
    coset_of: Dict[int, int] = {}
    cosets: List[Tuple[int, ...]] = []
    for g in range(t.order):
        if g in coset_of:
            continue
        members = tuple(sorted(t.table[g][h] for h in nset))
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
            images = {coset_of[t.table[a][b]] for a in members_i for b in members_j}
            if len(images) != 1:
                raise ValueError("quotient multiplication is not well defined")
            qt[gi][gj] = images.pop()
    labels = ["[" + t.elements[c[0]] + "]" for c in cosets]
    return GroupTable(labels, qt, coset_of[t.neutral])


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
        tuple(sorted(order_structure(t).items())),
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
            span = set(subgroup_closure(t1, gens))
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


def identify_by_catalog(t: GroupTable) -> str:
    """Name a group of order <= 16 from the catalog; raises when absent."""
    if t.order > 16:
        raise ValueError(f"identification limited to order <= 16, got {t.order}")
    fp = _fingerprint(t)
    for name, ref in _catalog_by_fingerprint().get(fp, ()):
        if _find_isomorphism(t, ref):
            return name
    raise ValueError(f"group with fingerprint {fp} is not in the catalog")


# ---------------------------------------------------------------------------
# formal double covers as tables


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


def signed_cover_group(
    mats: Dict[str, ExtMatrix], names: Sequence[str] = MATRIX_NAMES
) -> GroupTable:
    """Abstract group {+-1} x {I, named matrices} with the sign cocycle
    taken from the matrix products.

    This is the double cover itself, not the matrix group: collapsed
    realizations (several names landing on the same matrix up to sign)
    still produce the full-order table.  So it stays beside the BFS closure
    `generate_group_from_matrices`, which builds the matrix group, and
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


# ---------------------------------------------------------------------------
# direct products: the oracle of the report's commutation ledger and squares


def matrix_comm_sign(a: SpinMatrix, b: SpinMatrix) -> int:
    ab = a * b
    ba = b * a
    if ab == ba:
        return 1
    if ab == -ba:
        return -1
    raise ValueError("matrices neither commute nor anticommute")


def matrix_square_sign(x: SpinMatrix) -> int:
    """+1 or -1 as x * x is +I or -I; ValueError otherwise."""
    return (x * x).sign_of_identity_multiple()
