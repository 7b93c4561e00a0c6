"""Group tables, closure, identification, vee groups, factor theorem.

Identification is checked against the small-group catalog of
`small_group_catalog`, the route the F2-form namer replaced: the namer gives
the catalog's name to each of its 13 signed 2-groups and raises on the
other 10."""

import collections
import itertools
import random

import pytest

from cliffork.core_algebra import GaussianScalar, SignatureSpec, blade_product
from cliffork.ext_automorphisms import (
    ELEMENT_NAMES,
    MATRIX_NAMES,
    ExtGroupReport,
    ExtMatrix,
    cover_row,
    ext_group_report,
    sign_cocycle,
)
from cliffork.finite_groups import (
    GroupTable,
    cocycle_group,
    generate_group_from_matrices,
    group_center_type,
    identify_small_group,
    vee_factor_check,
    vee_group,
    _signed_blade_label,
)
from cliffork.spinor_repr import (
    SpinMatrix,
    build_spinbasis,
    sweep_spinbasis_variants,
)
from blade_oracle import oracle_blade_product
from kron_oracle import MAT_A, MAT_B, MAT_J
from small_group_catalog import (
    _catalog,
    _cyclic,
    _two_generator,
    direct_product,
    identify_by_catalog,
    inverse,
    matrix_comm_sign,
    matrix_square_sign,
    order_structure,
    quotient_by_all_pairs,
    subgroup_closure,
    xor_group,
)

# the catalog groups whose squares are 1 and at most one z
SIGNED = ("1", "Z2", "Z4", "Z2xZ2", "Z4xZ2", "Z2xZ2xZ2", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2",
          "D4", "Q4", "D4xZ2", "Q4xZ2", "D4oZ4")


def assert_namer_agrees(name: str, table: GroupTable) -> None:
    """The form namer gives a signed group its catalog name and raises on
    any other catalog group."""
    if name in SIGNED:
        assert identify_small_group(table) == name
    else:
        with pytest.raises(ValueError, match="nontrivial squares"):
            identify_small_group(table)


# ---------------------------------------------------------------------------
# basic table machinery


def test_cyclic_tables():
    z4 = _cyclic(4)
    z4.validate()
    assert order_structure(z4) == {1: 1, 2: 1, 4: 2}
    assert z4.is_abelian()
    assert inverse(z4, 1) == 3
    assert z4.element_order(1) == 4


def test_direct_product():
    t = direct_product(_cyclic(2), _cyclic(2))
    t.validate()
    assert t.order == 4
    assert order_structure(t) == {1: 1, 2: 3}


def test_two_generator_presentations():
    d4 = _two_generator(4, -1, 0)
    q4 = _two_generator(4, -1, 2)
    assert order_structure(d4) == {1: 1, 2: 5, 4: 2}
    assert order_structure(q4) == {1: 1, 2: 1, 4: 6}
    assert not d4.is_abelian() and not q4.is_abelian()
    assert len(q4.center()) == 2


def test_order16_presentation_fingerprints():
    cat = _catalog()
    assert order_structure(cat["D8"]) == {1: 1, 2: 9, 4: 2, 8: 4}
    assert order_structure(cat["Q16"]) == {1: 1, 2: 1, 4: 10, 8: 4}
    assert order_structure(cat["SD16"]) == {1: 1, 2: 5, 4: 6, 8: 4}
    assert order_structure(cat["M16"]) == {1: 1, 2: 3, 4: 4, 8: 8}
    assert len(cat["M16"].center()) == 4
    assert len(cat["D8"].center()) == 2
    pauli = cat["D4oZ4"]
    assert pauli.order == 16
    assert not pauli.is_abelian()
    assert order_structure(pauli) == {1: 1, 2: 7, 4: 8}
    assert len(pauli.center()) == 4


def test_quotient_rejects_non_normal_subgroup():
    d4 = _two_generator(4, -1, 0)
    # {e, b} is not normal in D4
    b_idx = d4.elements.index("a0b")
    with pytest.raises(ValueError):
        d4.quotient_by([d4.neutral, b_idx])


def test_quotient_of_center():
    q4 = _two_generator(4, -1, 2)
    quo = q4.quotient_by(q4.center())
    assert quo.order == 4
    assert order_structure(quo) == {1: 1, 2: 3}


@pytest.mark.parametrize("entry,error", [(-2, ValueError), (7, ValueError), (4, ValueError),
                                         (2.0, TypeError), (True, TypeError), ("1", TypeError)])
def test_quotient_rejects_entries_that_are_not_element_indices(entry, error):
    # -2 would otherwise be read as element 2 and True as element 1
    with pytest.raises(error, match=f"subgroup entry {entry!r}"):
        _cyclic(4).quotient_by([0, entry])


def _quotient_outcome(route, t, normal):
    try:
        return route(t, normal)
    except ValueError as exc:
        return str(exc)


def test_quotient_matches_the_all_pairs_route():
    cases = []
    for t in _catalog().values():
        others = [g for g in range(t.order) if g != t.neutral]
        if t.order <= 8:
            # every subset holding the neutral element
            cases += [(t, (t.neutral,) + extra)
                      for r in range(len(others) + 1)
                      for extra in itertools.combinations(others, r)]
        else:
            subgroups = {tuple(subgroup_closure(t, pair))
                         for pair in itertools.combinations_with_replacement(range(t.order), 2)}
            cases += [(t, sub) for sub in sorted(subgroups)]
    # its translates {0, 1} and {2, 3} partition Z4, but it is not a subgroup
    with pytest.raises(ValueError, match="not well defined"):
        _cyclic(4).quotient_by([0, 1])
    outcomes = collections.Counter()
    for t, normal in cases:
        new = _quotient_outcome(GroupTable.quotient_by, t, normal)
        assert new == _quotient_outcome(quotient_by_all_pairs, t, normal), (t.elements, normal)
        outcomes[new if isinstance(new, str) else "table"] += 1
    # every outcome is reached: 259 tables, 574 and 99 of the two refusals
    assert outcomes["table"] > 100
    assert outcomes["subgroup does not partition the group"] > 100
    assert outcomes["quotient multiplication is not well defined"] > 10


# ---------------------------------------------------------------------------
# closure generation


def test_generate_from_matrices():
    t = generate_group_from_matrices([MAT_A, MAT_B])
    assert t.order == 8
    assert identify_small_group(t) == "D4"
    tq = generate_group_from_matrices([MAT_J, MAT_A * GaussianScalar.I])
    assert identify_small_group(tq) == "Q4"
    assert generate_group_from_matrices([SpinMatrix.identity(2)]).order == 1


def test_closure_bound(monkeypatch):
    # a matrix of infinite order never closes
    from cliffork import finite_groups

    monkeypatch.setattr(finite_groups, "MAX_CLOSURE", 50)
    with pytest.raises(ValueError, match="closure exceeded 50"):
        generate_group_from_matrices([SpinMatrix([[2, 0], [0, 1]])])


# ---------------------------------------------------------------------------
# identification


def test_catalog_self_identification():
    for name, table in _catalog().items():
        assert identify_by_catalog(table) == name
        assert_namer_agrees(name, table)
    assert sum(1 for name in _catalog() if name in SIGNED) == len(SIGNED) == 13


def _relabeled(t: GroupTable, rng: random.Random) -> GroupTable:
    perm = list(range(t.order))
    rng.shuffle(perm)
    table = [[0] * t.order for _ in range(t.order)]
    for i in range(t.order):
        for j in range(t.order):
            table[perm[i]][perm[j]] = perm[t.table[i][j]]
    elements = ["?"] * t.order
    for i, name in enumerate(t.elements):
        elements[perm[i]] = name
    return GroupTable(elements, table, perm[t.neutral])


def test_identification_invariant_under_relabeling():
    rng = random.Random(7)
    names = list(_catalog())
    for k in range(100):
        name = names[k % len(names)]
        shuffled = _relabeled(_catalog()[name], rng)
        assert identify_by_catalog(shuffled) == name
        assert_namer_agrees(name, shuffled)


def test_identify_rejects_unknown_and_large():
    z3 = _cyclic(3)
    with pytest.raises(ValueError):
        identify_by_catalog(z3)
    with pytest.raises(ValueError):
        identify_small_group(z3)
    with pytest.raises(ValueError):
        identify_small_group(vee_group(SignatureSpec(4, 0)))
    # a sign cocycle that is not one: the table is not associative
    broken = xor_group(range(8), ELEMENT_NAMES,
                       lambda a, b: -1 if (a & b & 1) or ((a >> 1) & b & 1) else 1)
    with pytest.raises(ValueError):
        identify_small_group(broken)
    # Z2^4 with two entries of one row swapped: validate()'s associativity
    # spot check misses it, the full check does not
    swapped = xor_group(range(8), ELEMENT_NAMES, lambda a, b: 1)
    swapped.table[9][1], swapped.table[9][2] = swapped.table[9][2], swapped.table[9][1]
    swapped.validate()
    with pytest.raises(ValueError, match="not associative"):
        identify_small_group(swapped)


def _comm(x, y):
    return x * y * x**-1 * y**-1


# every catalog group from a textbook presentation (SmallGroup ids for the
# two groups whose fingerprints coincide with another catalog entry)
PRESENTATIONS = {
    "1": ("a", lambda a: [a]),
    "Z2": ("a", lambda a: [a**2]),
    "Z4": ("a", lambda a: [a**4]),
    "Z8": ("a", lambda a: [a**8]),
    "Z16": ("a", lambda a: [a**16]),
    "Z2xZ2": ("a b", lambda a, b: [a**2, b**2, _comm(a, b)]),
    "Z4xZ2": ("a b", lambda a, b: [a**4, b**2, _comm(a, b)]),
    "Z8xZ2": ("a b", lambda a, b: [a**8, b**2, _comm(a, b)]),
    "Z4xZ4": ("a b", lambda a, b: [a**4, b**4, _comm(a, b)]),
    "Z2xZ2xZ2": ("a b c", lambda a, b, c: [a**2, b**2, c**2, _comm(a, b), _comm(a, c),
                                           _comm(b, c)]),
    "Z4xZ2xZ2": ("a b c", lambda a, b, c: [a**4, b**2, c**2, _comm(a, b), _comm(a, c),
                                           _comm(b, c)]),
    "Z2xZ2xZ2xZ2": ("a b c d", lambda a, b, c, d: [
        a**2, b**2, c**2, d**2, _comm(a, b), _comm(a, c), _comm(a, d), _comm(b, c),
        _comm(b, d), _comm(c, d)]),
    "D4": ("a b", lambda a, b: [a**4, b**2, (a * b)**2]),
    "Q4": ("a b", lambda a, b: [a**4, a**2 * b**-2, b * a * b**-1 * a]),
    "D8": ("a b", lambda a, b: [a**8, b**2, (a * b)**2]),
    "Q16": ("a b", lambda a, b: [a**8, a**4 * b**-2, b * a * b**-1 * a]),
    "SD16": ("a b", lambda a, b: [a**8, b**2, b * a * b**-1 * a**-3]),
    "M16": ("a b", lambda a, b: [a**8, b**2, b * a * b**-1 * a**-5]),
    "D4xZ2": ("a b c", lambda a, b, c: [a**4, b**2, (a * b)**2, c**2, _comm(a, c),
                                        _comm(b, c)]),
    "Q4xZ2": ("a b c", lambda a, b, c: [a**4, a**2 * b**-2, b * a * b**-1 * a, c**2,
                                        _comm(a, c), _comm(b, c)]),
    "D4oZ4": ("a b c", lambda a, b, c: [a**4, b**2, (a * b)**2, c**2 * a**-2, _comm(a, c),
                                        _comm(b, c)]),
    # SmallGroup(16,4)
    "Z4:Z4": ("a b", lambda a, b: [a**4, b**4, b * a * b**-1 * a]),
    # SmallGroup(16,3)
    "(Z4xZ2):Z2": ("a b c", lambda a, b, c: [a**4, b**2, c**2, _comm(a, c), _comm(b, c),
                                             b * a * b**-1 * (a * c)**-1]),
}


def _presented(name):
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    names, relators = PRESENTATIONS[name]
    free, *gens = free_group(names)
    return FpGroup(free, relators(*gens))


def _table_of(group) -> GroupTable:
    """Multiplication table of a finite presented group, built from its
    regular action on the cosets of the trivial subgroup."""
    from sympy.combinatorics import Permutation, PermutationGroup

    cosets = group.coset_table([])
    # columns alternate generator, inverse generator
    regular = PermutationGroup([Permutation([row[2 * k] for row in cosets])
                                for k in range(len(group.generators))])
    elements = list(regular.generate())
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[x * y] for y in elements] for x in elements]
    return GroupTable([str(g) for g in elements], table, index[regular.identity])


def _as_permutation_group(t: GroupTable):
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation([t.table[j][i] for j in range(t.order)])
                             for i in range(t.order)])


def test_catalog_holds_every_group_of_order_16():
    assert sorted(PRESENTATIONS) == sorted(_catalog())
    assert sum(1 for t in _catalog().values() if t.order == 16) == 14


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_identify_group_from_presentation(name):
    from sympy.combinatorics.homomorphisms import is_isomorphic

    group = _presented(name)
    assert identify_by_catalog(_table_of(group)) == name
    assert_namer_agrees(name, _table_of(group))
    # independent oracle: the catalog entry is the presented group
    assert is_isomorphic(group, _as_permutation_group(_catalog()[name]))


@pytest.mark.parametrize("name,twin", [("Z4:Z4", "Q4xZ2"), ("(Z4xZ2):Z2", "D4oZ4")])
def test_fingerprint_twins_are_not_isomorphic(name, twin):
    from sympy.combinatorics.homomorphisms import is_isomorphic

    cat = _catalog()
    assert identify_by_catalog(cat[name]) == name
    assert_namer_agrees(name, cat[name])
    assert not is_isomorphic(_presented(name), _as_permutation_group(cat[twin]))


# ---------------------------------------------------------------------------
# vee groups


def test_vee_group_identities():
    assert identify_small_group(vee_group(SignatureSpec(0, 0))) == "Z2"
    assert identify_small_group(vee_group(SignatureSpec(1, 0))) == "Z2xZ2"
    assert identify_small_group(vee_group(SignatureSpec(0, 1))) == "Z4"
    assert identify_small_group(vee_group(SignatureSpec(2, 0))) == "D4"
    assert identify_small_group(vee_group(SignatureSpec(1, 1))) == "D4"
    assert identify_small_group(vee_group(SignatureSpec(0, 2))) == "Q4"
    for n in range(4):
        for p in range(n + 1):
            g = vee_group(SignatureSpec(p, n - p))
            assert identify_small_group(g) == identify_by_catalog(g), (p, n - p)


def test_vee_group_order():
    for n in range(0, 6):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            assert vee_group(sig).order == 1 << (n + 1)


def _vee_group_reference(sig):
    """One bubble-sort blade product per pair of signed blades, each looked
    up by value: it shares no code with the sign rule vee_group reads."""
    blades = [(mask, sign) for mask in range(1 << sig.n) for sign in (1, -1)]
    index = {sb: i for i, sb in enumerate(blades)}
    table = []
    for a in blades:
        row = []
        for b in blades:
            mask, s = oracle_blade_product(sig, a[0], b[0])
            row.append(index[(mask, s * a[1] * b[1])])
        table.append(row)
    return [_signed_blade_label(sb) for sb in blades], table, index[(0, 1)]


def test_vee_group_matches_per_signed_pair_reference():
    for n in range(0, 5):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            g = vee_group(sig)
            assert (g.elements, g.table, g.neutral) == _vee_group_reference(sig), str(sig)


def test_center_type_predictions():
    assert group_center_type(2, 0) == "Z2"
    assert group_center_type(1, 0) == "Z2xZ2"
    assert group_center_type(0, 1) == "Z4"
    assert group_center_type(0, 3) == "Z2xZ2"
    assert group_center_type(3, 0) == "Z4"


def test_vee_factor_check_examples():
    r = vee_factor_check(SignatureSpec(2, 0))
    assert r.passed and r.quotient_order == 4 and r.two_rank == 1

    # G(1,0) is abelian: the center is everything, quotient is trivial
    r10 = vee_factor_check(SignatureSpec(1, 0))
    assert r10.passed
    assert r10.quotient_order == 1 and r10.two_rank == 0
    assert r10.center_type == "Z2xZ2"

    r00 = vee_factor_check(SignatureSpec(0, 0))
    assert r00.passed and r00.quotient_order == 1


def test_vee_factor_theorem_up_to_n6():
    for n in range(0, 7):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            report = vee_factor_check(sig)
            assert report.passed, (str(sig), report.failures)
            assert report.quotient_order == 1 << (2 * report.two_rank)
            # 2-rank matches floor(n/2) when the center sits in grade {0, n}
            assert report.two_rank == (sig.n - (sig.n % 2)) // 2


# ---------------------------------------------------------------------------
# every F2 quadratic form: the namer against the catalog


def _forms(m):
    """Every quadratic form on F2^m as the sign cocycle of its double cover,
    with the cover's table: q on the basis vectors and the polar form B on
    each pair i < j give the bilinear beta with beta(e_i, e_i) = q(e_i) and
    beta(e_i, e_j) = B(e_i, e_j) for i < j, and the cocycle (-1)^beta(a, b)
    has (-1)^q(x) as the square of x."""
    pairs = list(itertools.combinations(range(m), 2))
    for bits in itertools.product((0, 1), repeat=m + len(pairs)):
        beta = {(i, i): bits[i] for i in range(m)}
        beta.update(zip(pairs, bits[m:]))

        def cocycle(a, b, beta=beta):
            odd = sum(v for (i, j), v in beta.items() if a >> i & 1 and b >> j & 1)
            return -1 if odd % 2 else 1

        codes = range(1 << m)
        yield ({(a, b): cocycle(a, b) for a in codes for b in codes},
               xor_group(codes, ELEMENT_NAMES, cocycle))


def test_every_form_cover_is_named_as_the_catalog_and_cover_table_name_it():
    counts = {}
    for m in (1, 2, 3):
        tally = collections.Counter()
        for cocycle, cover in _forms(m):
            name = identify_small_group(cover)
            assert name == identify_by_catalog(cover)
            assert cocycle_group(cocycle) == (cover.order, name)
            tally[name] += 1
            squares = [1 if cover.table[2 * c][2 * c] == cover.neutral else -1
                       for c in range(1, 1 << m)]
            assert cover_row(squares, cover.is_abelian()).identified == name
        counts[m] = sorted(tally.values())
    assert counts == {1: [1, 1], 2: [1, 1, 3, 3], 3: [1, 7, 7, 21, 28]}


def test_namer_matches_the_catalog_on_every_swept_basis_group():
    # the group the eight matrices generate, named from their sign cocycle,
    # against the catalog's name of its BFS closure on every variant basis
    # with even p+q <= 8, real and complex, tallied by the cases the rule
    # tells apart: a code whose matrix is +-I, one whose matrix is -I, and
    # the cocycle taking -1
    got, tally = {}, collections.Counter()
    for n in (0, 2, 4, 6, 8):
        for p in range(n + 1):
            for field in ("R", "C"):
                for basis in sweep_spinbasis_variants(SignatureSpec(p, n - p, field)):
                    report = ext_group_report(basis)
                    mats, cocycle = report.matrices, report.cocycle
                    # the squares and the ledger the report reads from its
                    # cocycle, against the direct products
                    direct = {x: m.matrix for x, m in mats.items()}
                    assert report.signature == tuple(
                        matrix_square_sign(direct[x]) for x in MATRIX_NAMES), basis.name
                    assert report.commutation == {
                        (x, y): matrix_comm_sign(direct[x], direct[y])
                        for x, y in itertools.combinations(MATRIX_NAMES, 2)}, basis.name
                    closure = generate_group_from_matrices([m.matrix for m in mats.values()])
                    got[basis.name] = report.matrix_group
                    assert got[basis.name] == (closure.order, identify_by_catalog(closure))
                    scalars = {m.matrix.scalar_multiple_of_identity() for m in mats.values()}
                    tally[bool(scalars - {None}), GaussianScalar.of(-1) in scalars,
                          -1 in cocycle.values()] += 1
    assert len(got) == 248
    assert tally == {(False, False, True): 152, (True, False, True): 45,
                     (True, True, True): 43, (True, False, False): 7,
                     (False, False, False): 1}
    assert got["real(0,0)"] == (1, "1")
    assert got["real(2,0)"] == (4, "Z4")  # Pi = I
    assert got["quat(0,2,split=(2, 0, 2, 0))"] == (4, "Z4")  # K = W^2 = -I
    assert got["complex(n=8,mark=(4,4))"] == (8, "Z2xZ2xZ2")  # no -I


def test_cocycle_group_reads_minus_one_from_a_trivial_form():
    # the coboundary of f(3) = -1 on F2^2: q and B vanish, yet c(1, 2) = -1.
    # Modulo the code 3, taken as the sign -1, that is Z2^(1+1); the formal
    # cover of all four codes is Z2^(2+1)
    cocycle = {(a, b): -1 if a and b and a != b else 1 for a in range(4) for b in range(4)}
    assert cocycle_group(cocycle, kernel=(0, 3)) == (4, "Z2xZ2")
    assert cocycle_group(cocycle) == (8, "Z2xZ2xZ2")
    assert cocycle_group(dict.fromkeys(cocycle, 1), kernel=(0, 3), minus=False) == (2, "Z2")
    # a letter that is -I under a trivial cocycle still puts -I in the group
    x, ident = SpinMatrix([[1, 0], [0, -1]]), SpinMatrix.identity(2)
    mats = {name: ExtMatrix(name, m, (), "x") for name, m in zip(
        ELEMENT_NAMES[1:], (-ident, x, -x, ident, -ident, x, -x))}
    base = ext_group_report(build_spinbasis(SignatureSpec(2, 0)))
    report = ExtGroupReport(base.sig, base.census, mats, sign_cocycle(mats), base.pi_bar_sign)
    assert set(report.cocycle.values()) == {1}
    assert report.matrix_group == (4, "Z2xZ2")


def test_no_name_above_order_16():
    # the double cover of a blade-product sign cocycle with p+q >= 4 has
    # order 32 or more, where the counting rule would call Cl(4,0) Q4 and
    # Cl(3,1) D4 and index past its table at Cl(0,5)
    for p, q in ((4, 0), (3, 1), (0, 5)):
        sig = SignatureSpec(p, q)
        masks = range(1 << sig.n)
        cocycle = {(a, b): blade_product(sig, a, b)[1] for a in masks for b in masks}
        with pytest.raises(ValueError, match=f"order <= 16, got {2 << sig.n}"):
            cocycle_group(cocycle)
