"""Extended automorphism matrices: constructions, squares, commutation."""

import itertools
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cliffork import ext_automorphisms
from cliffork.core_algebra import GaussianScalar, SignatureSpec
from cliffork.ext_automorphisms import (
    ADMISSIBLE_DETAILED,
    DEFINING_RELATIONS,
    MATRIX_NAMES,
    ExtMatrix,
    Relation,
    admissible_groups,
    comm_parity_terms,
    commutation_profile,
    cover_row,
    ext_group_report,
    ext_matrices,
    predicted_K_square,
    predicted_pi_bar,
    predicted_S_square,
    printed_pi_bar_applicable,
    printed_pi_bar_mod4,
    quaternionic_signatures,
    sign_cocycle,
    universal_comm_sign,
)
from cliffork.finite_groups import cocycle_group
from cliffork.spinor_repr import (
    SpinBasis,
    SpinMatrix,
    UnitCensus,
    _dense_product,
    build_spinbasis,
    load_spinbasis,
    signed_lookup,
)
from small_group_catalog import matrix_comm_sign
from word_oracle import loop_word_cocycle, word_relation


def _factor_mask(factors):
    return sum(1 << i for i in factors)


def _subset_products(basis):
    n = basis.sig.n
    for bits in range(1 << n):
        indices = [i + 1 for i in range(n) if bits >> i & 1]
        yield tuple(indices), basis.product_of(indices)


# ---------------------------------------------------------------------------
# the time-honoured 4x4 set


def test_gamma_species_and_census():
    basis = load_spinbasis("gamma")
    sp = basis.unit_species()
    assert sp == {"v": (1,), "u": (2, 4), "l": (3,), "m": ()}
    c = basis.unit_census()
    assert (c.v, c.l, c.u, c.m) == (1, 1, 2, 0)
    assert (c.a, c.b) == (1, 3)


def test_gamma_constructions_exact():
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)

    assert mats["W"].matrix == basis.product_of([1, 2, 3, 4])
    assert mats["E"].matrix == basis.product_of([2, 4])
    assert mats["C"].matrix == basis.product_of([1, 3])
    assert mats["Pi"].matrix == basis.product_of([1, 2, 4])
    assert mats["K"].matrix == basis.product_of([3])
    assert mats["S"].matrix == -basis.product_of([1])
    assert mats["F"].matrix == -basis.product_of([2, 3, 4])

    assert mats["E"].form == "skew"
    assert mats["C"].form == "sym"
    assert mats["Pi"].form == "real"
    assert mats["K"].form == "imaginary"
    assert mats["S"].form == "d"
    assert mats["F"].form == "c"

    assert mats["K"].factors == (3,)
    assert mats["S"].factors == (1,)
    assert mats["F"].factors == (2, 3, 4)


def test_signed_letter_table():
    # each cell, read from the sign cocycle, names the product itself by its
    # first letter up to sign, also where letters coincide (E = Pi = I and
    # C = K = W at (2,0))
    for basis in (load_spinbasis("gamma"), build_spinbasis(SignatureSpec(2, 0))):
        report = ext_group_report(basis)
        mats = report.matrices
        elements, cells = report.letter_table
        assert elements == ["I"] + list(MATRIX_NAMES)
        assert cells[0] == [row[0] for row in cells]
        pool = {"I": SpinMatrix.identity(basis.dim), **{x: mats[x].matrix for x in MATRIX_NAMES}}
        by_matrix = signed_lookup(pool)
        assert cells == [[by_matrix[pool[a] * pool[b]] for b in elements] for a in elements]
    assert cells[1] == ["+W", "-I"] * 4
    # a pool that is not closed: g1 g2 is none of the eight up to sign
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)
    mats["F"] = mats["F"]._replace(matrix=basis.product_of([1, 2]))
    with pytest.raises(AssertionError, match="leaves the signed span"):
        sign_cocycle(mats)


def test_gamma_report():
    basis = load_spinbasis("gamma")
    report = ext_group_report(basis)
    assert report.signature == (-1, -1, 1, -1, -1, 1, 1)
    assert report.pi_bar_sign == -1
    assert not report.abelian
    assert report.order_structure == (3, 4)
    assert report.group_name == "*Z4xZ2"
    assert report.cocycle == sign_cocycle(report.matrices)
    assert report.matrix_group == (16, "D4oZ4")
    assert report.cover(range(8)).identified == "D4oZ4"


def test_matrix_group_is_the_formal_cover_on_4_of_25_cells():
    # on the canonical basis of the real even cells with p+q <= 8 the group
    # the matrices generate is smaller than the formal double cover in 21
    # cells, e.g. Cl(6,2), and equal to it in these 4
    equal = []
    for n in range(0, 9, 2):
        for p in range(n + 1):
            report = ext_group_report(build_spinbasis(SignatureSpec(p, n - p)))
            generated, formal = report.matrix_group, cocycle_group(report.cocycle)
            assert formal[1] == report.cover(range(8)).identified, (p, n - p)
            if generated == formal:
                equal.append((p, n - p))
            if (p, n - p) == (6, 2):
                assert (generated, formal) == ((8, "Z4xZ2"), (16, "Z4xZ2xZ2"))
    assert equal == [(1, 3), (1, 5), (2, 4), (5, 1)]


def test_gamma_commutation_spot_cells():
    # a few cells transcribed from the printed multiplication table
    report = ext_group_report(load_spinbasis("gamma"))
    prof = commutation_profile(report.cocycle)
    assert prof == report.commutation
    assert prof[("Pi", "K")] == -1
    assert prof[("Pi", "S")] == 1
    assert prof[("K", "S")] == -1
    assert prof[("K", "F")] == 1
    assert prof[("S", "F")] == -1
    assert prof[("W", "E")] == 1
    assert prof[("W", "C")] == 1
    assert prof[("E", "C")] == 1


@pytest.mark.parametrize("p,q", [(1, 3), (2, 2), (4, 0)])
def test_each_unit_is_classified_once(monkeypatch, p, q):
    from cliffork import spinor_repr
    from cliffork.coverings import pt_structure

    calls = []
    classify = spinor_repr.classify_matrix
    # count every route to the classifier, including copies bound by import
    for name, module in list(sys.modules.items()):
        if name.startswith("cliffork") and getattr(module, "classify_matrix", None) is classify:
            monkeypatch.setattr(module, "classify_matrix",
                                lambda m: calls.append(m) or classify(m))
    basis = build_spinbasis(SignatureSpec(p, q))
    ext_group_report(basis)
    assert len(calls) == basis.sig.n
    calls.clear()
    fresh = build_spinbasis(SignatureSpec(p, q))
    pt_structure(fresh.sig, basis=fresh)
    assert len(calls) == fresh.sig.n


# On words the relations, the cocycle and the census are read off the ints,
# so what is left is building or checking the basis (16 of the gamma
# basis's 31 check the loaded file), W, E, C and Pi as products of units,
# K, S and F as Pi times W, E and C, and Pi conj(Pi).  One product per pair
# of letters would add 49 to each report.
PRODUCT_BOUNDS = [
    ("ext-group --basis gamma", 31),
    ("ext-group --p 6 --q 2", 31),
    ("cover --p 1 --q 3 --cpt", 16),
    ("quotient --p 2 --q 1", 16),
    ("verify --suite pseudo --max 6", 1844),
    ("verify --suite defining --max 6", 2204),
    ("verify --suite commutation --max 6", 1664),
]


# the ids name the argv alone, so a lowered bound keeps the test's name
@pytest.mark.parametrize("argv,bound", PRODUCT_BOUNDS, ids=[argv for argv, _ in PRODUCT_BOUNDS])
def test_spin_matrix_products_per_invocation(monkeypatch, capsys, argv, bound):
    # every square, ledger, cover, group and letter table is read from the
    # report's sign cocycle, which takes no product on words
    from cliffork.cli import run

    calls = []
    mul = SpinMatrix.__mul__
    monkeypatch.setattr(SpinMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert run(argv.split()) == 0
    assert len(calls) <= bound


# ---------------------------------------------------------------------------
# degenerate (non-quaternionic) even cases


def test_all_real_basis_pi_is_identity():
    basis = build_spinbasis(SignatureSpec(2, 0))
    report = ext_group_report(basis)
    mats = report.matrices
    assert mats["Pi"].matrix == SpinMatrix.identity(basis.dim)
    assert mats["Pi"].factors == ()
    assert mats["K"].matrix == mats["W"].matrix
    assert mats["S"].matrix == mats["E"].matrix
    assert mats["F"].matrix == mats["C"].matrix
    assert report.signature == (-1, 1, -1, 1, -1, 1, -1)
    assert report.abelian
    assert report.group_name == "Z4xZ2"
    assert report.matrix_group == (4, "Z4")
    assert any("empty product" in note for note in report.notes)


def test_split_signature_group():
    report = ext_group_report(build_spinbasis(SignatureSpec(1, 1)))
    assert report.signature == (1, 1, -1, 1, 1, 1, -1)
    assert not report.abelian
    assert report.group_name == "D4"


def test_two_negative_units():
    report = ext_group_report(build_spinbasis(SignatureSpec(0, 2)))
    assert report.signature == (-1, 1, -1, -1, 1, -1, 1)
    assert report.abelian
    assert report.group_name == "Z4xZ2"
    assert report.pi_bar_sign == -1


def test_failed_relation_raises_naming_matrix_and_unit(monkeypatch):
    basis = build_spinbasis(SignatureSpec(1, 3))
    monkeypatch.setitem(ext_automorphisms.DEFINING_RELATIONS, "S",
                        SimpleNamespace(failures=lambda b, x: 1 << 2))
    with pytest.raises(AssertionError, match="^S relation failed at unit 3$"):
        ext_matrices(basis)


def test_report_reads_its_cocycle_once(monkeypatch):
    # signature, commutation and abelian are computed once per report, the
    # first time `group_name` reads them while the report is built
    calls = []
    profile = ext_automorphisms.commutation_profile
    monkeypatch.setattr(ext_automorphisms, "commutation_profile",
                        lambda cocycle: calls.append(1) or profile(cocycle))
    reports = [ext_group_report(load_spinbasis("gamma")),
               ext_group_report(build_spinbasis(SignatureSpec(1, 3)))]
    assert len(calls) == 2
    for report in reports:
        assert {"signature", "commutation", "abelian"} <= set(vars(report))
        first = report.signature, report.commutation
        assert report.group_name and report.order_structure and report.abelian in (True, False)
        assert report.signature is first[0] and report.commutation is first[1]
    assert len(calls) == 2


def test_odd_dimension_rejected():
    basis = build_spinbasis(SignatureSpec(3, 0))
    with pytest.raises(ValueError, match="need even n"):
        ext_matrices(basis)


# ---------------------------------------------------------------------------
# the seven relations written out on entry rows: products by _dense_product


def _rmul(a, b):
    return tuple(map(tuple, _dense_product(a, b)))


def _rneg(a):
    return tuple(tuple(-e for e in row) for row in a)


def _rt(a):
    return tuple(zip(*a))


def _rconj(a):
    return tuple(tuple(e.conjugate() for e in row) for row in a)


REF_RELATIONS = {
    "W": lambda u, x: _rmul(x, u) == _rneg(_rmul(u, x)),
    "E": lambda u, x: _rmul(u, x) == _rmul(x, _rt(u)),
    "C": lambda u, x: _rmul(u, x) == _rneg(_rmul(x, _rt(u))),
    "Pi": lambda u, x: _rmul(u, x) == _rmul(x, _rconj(u)),
    "K": lambda u, x: _rneg(_rmul(u, x)) == _rmul(x, _rconj(u)),
    "S": lambda u, x: _rmul(u, x) == _rmul(x, _rt(_rconj(u))),
    "F": lambda u, x: _rneg(_rmul(u, x)) == _rmul(x, _rt(_rconj(u))),
}


# ---------------------------------------------------------------------------
# each construction is the unique unit-subset solution of its relation


def _relation_solutions(basis, relation):
    hits = []
    for indices, x in _subset_products(basis):
        if all(relation(u, x) for u in basis.mats):
            hits.append(indices)
    return hits


def test_defining_relations_have_unique_subset_solutions():
    for sig in (SignatureSpec(0, 2), SignatureSpec(1, 3), SignatureSpec(2, 0)):
        basis = build_spinbasis(sig)
        mats = ext_matrices(basis)
        for name, ref in REF_RELATIONS.items():
            hits = _relation_solutions(basis, lambda u, x: ref(u.rows, x.rows))
            assert hits == [mats[name].factors], (str(sig), name, hits)


# ---------------------------------------------------------------------------
# the word reads of the relations and the cocycle against entry-level
# products on .rows


def _ref_cocycle(rows):
    """c(a, b) from the products of the code matrices' rows; None when one
    leaves their signed span."""
    negated = [_rneg(r) for r in rows]
    out = {}
    for a, b in itertools.product(range(8), repeat=2):
        prod = _rmul(rows[a], rows[b])
        if prod == rows[a ^ b]:
            out[a, b] = 1
        elif prod == negated[a ^ b]:
            out[a, b] = -1
        else:
            return None
    return out


def _code_rows(mats):
    return [SpinMatrix.identity(mats["W"].matrix.dim).rows] + [
        mats[n].matrix.rows for n in MATRIX_NAMES]


def test_word_relations_and_cocycle_match_dense_products_on_the_sweep():
    # every sweep basis with p+q <= 8 and the gamma basis: the cocycle, and
    # the word oracle of each relation of its own matrix at every unit, once
    # per distinct pair of words (the random words below also meet relations
    # that fail)
    bases = [basis for _, basis, _ in quaternionic_signatures(8)] + [load_spinbasis("gamma")]
    seen = set()
    for basis in bases:
        mats = ext_matrices(basis)
        assert all(m.matrix.word is not None for m in mats.values())
        for name, relation in DEFINING_RELATIONS.items():
            x = mats[name].matrix
            for u in basis.mats:
                if (name, u, x) not in seen:
                    seen.add((name, u, x))
                    assert word_relation(relation, u, x) == \
                        REF_RELATIONS[name](u.rows, x.rows), basis.name
        assert sign_cocycle(mats) == _ref_cocycle(_code_rows(mats)), basis.name


# all eight relations u x = sign x T(u), the seven defining ones and u x = x u
ALL_RELATIONS = [Relation(sign, transpose, conj) for sign in (1, -1)
                 for transpose in (False, True) for conj in (False, True)]


def _oracle_failures(relation, basis, x):
    return sum(1 << i for i, u in enumerate(basis.mats) if not word_relation(relation, u, x))


def test_relation_masks_match_the_word_oracle_on_the_sweep():
    # every sweep basis with p+q <= 10, against all eight relations: each of
    # W..F and each unit as x, so masks that fail at some units are met too
    failing = 0
    for _, basis, report in quaternionic_signatures(10):
        xs = [m.matrix for m in report.matrices.values()] + basis.mats
        for relation in ALL_RELATIONS:
            for x in xs:
                got = relation.failures(basis, x)
                assert got == _oracle_failures(relation, basis, x), (basis.name, relation)
                failing += 0 < got < (1 << basis.sig.n) - 1
    assert failing > 1000


def _ref_failures(relation, units, x):
    """The mask of the units at which u x = sign x T(u) fails, on entry rows."""
    mask = 0
    for i, u in enumerate(units):
        t = _rconj(u.rows) if relation.conj else u.rows
        rhs = _rmul(x.rows, _rt(t) if relation.transpose else t)
        if _rmul(u.rows, x.rows) != (rhs if relation.sign > 0 else _rneg(rhs)):
            mask |= 1 << i
    return mask


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_relation_masks_match_per_unit_relations_on_random_units(data):
    # random word units (a basis need not be valid to be read) and a word x;
    # with one unit made dense, the mask takes one product per unit
    d = 1 << data.draw(st.integers(0, 3), label="log d")
    n = data.draw(st.integers(1, 6), label="n")
    units = [data.draw(words(d), label=f"u{i}") for i in range(n)]
    x = data.draw(words(d), label="x")
    sig = SignatureSpec(n, 0)
    for relation in ALL_RELATIONS:
        want = _ref_failures(relation, units, x)
        assert relation.failures(SpinBasis(sig, units), x) == want, relation
        assert _oracle_failures(relation, SpinBasis(sig, units), x) == want, relation
    k = data.draw(st.integers(0, n - 1), label="dense unit")
    units[k] = units[k] * 2
    assert units[k].word is None
    for relation in ALL_RELATIONS:
        assert relation.failures(SpinBasis(sig, units), x) == _ref_failures(relation, units, x)


PHASES = (1, GaussianScalar.I, -1, -GaussianScalar.I)  # i^k


@st.composite
def words(draw, d):
    """Any signed Pauli word i^c Z^z X^x of dimension d, from its entries."""
    c, x, z = draw(st.integers(0, 3)), draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    return SpinMatrix([[PHASES[(c + 2 * (r & z).bit_count()) % 4] if col == r ^ x else 0
                        for col in range(d)] for r in range(d)])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_word_relations_match_dense_products_on_random_words(data):
    d = 1 << data.draw(st.integers(0, 4), label="log d")
    u, x = data.draw(words(d), label="u"), data.draw(words(d), label="x")
    assert u.word is not None and x.word is not None
    for name, relation in DEFINING_RELATIONS.items():
        assert word_relation(relation, u, x) == REF_RELATIONS[name](u.rows, x.rows), name
        assert relation(u, x) == REF_RELATIONS[name](u.rows, x.rows), name
    y = data.draw(words(2 * d), label="y")
    for relation in DEFINING_RELATIONS.values():
        for a, b in ((u, y), (y, x)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                relation(a, b)
        for units, b in (([u], y), ([y], x)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                relation.failures(SpinBasis(SignatureSpec(1, 0), units), b)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_word_cocycle_matches_dense_products_on_random_words(data):
    # M_c = i^k_c times the generators of the bits of c, so a product leaves
    # the signed span for an odd k; a replaced matrix leaves it otherwise
    d = 1 << data.draw(st.integers(0, 4), label="log d")
    gens = [data.draw(words(d), label=f"g{bit}") for bit in (1, 2, 4)]
    m = []
    for c in range(1, 8):
        prod = SpinMatrix.identity(d)
        for bit, g in enumerate(gens):
            if c >> bit & 1:
                prod = prod * g
        m.append(prod * PHASES[data.draw(st.sampled_from((0, 0, 2, 2, 1, 3)), label=f"k{c}")])
    if data.draw(st.booleans(), label="replace"):
        m[data.draw(st.integers(0, 6))] = data.draw(words(d))
    mats = {name: ExtMatrix(name, x, (), "x") for name, x in zip(MATRIX_NAMES, m)}
    want = _ref_cocycle(_code_rows(mats))
    # the row masks against the 64-pair loop they replaced, closed or not
    ints = [x.word for x in ext_automorphisms._code_matrices(mats)]
    assert ext_automorphisms._word_cocycle(ints) == loop_word_cocycle(ints) == want
    if want is None:
        with pytest.raises(AssertionError, match="leaves the signed span"):
            sign_cocycle(mats)
    else:
        assert sign_cocycle(mats) == want


def test_dense_matrices_take_the_product_route(monkeypatch):
    # conjugating by the transposition of rows 0 and 1 makes five of the six
    # units of Cl(1,5) dense; their relations and cocycle take products, and
    # the words take none
    basis = build_spinbasis(SignatureSpec(1, 5))
    swap = SpinMatrix([[int(c == (r ^ 1 if r < 2 else r)) for c in range(8)] for r in range(8)])
    dense = SpinBasis(basis.sig, [swap * m * swap for m in basis.mats], name="swapped")
    assert sum(m.word is None for m in dense.mats) == 5
    calls = []
    mul = SpinMatrix.__mul__
    monkeypatch.setattr(SpinMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for b in (basis, dense):
        mats = ext_matrices(b)
        calls.clear()
        for name, relation in DEFINING_RELATIONS.items():
            x = mats[name].matrix
            assert relation.failures(b, x) == _ref_failures(relation, b.mats, x)
        relation_products = len(calls)
        calls.clear()
        assert sign_cocycle(mats) == _ref_cocycle(_code_rows(mats))
        if b is basis:
            assert (relation_products, len(calls)) == (0, 0)
        else:
            assert relation_products > 0 and len(calls) > 0
    assert ext_group_report(dense).cocycle == ext_group_report(basis).cocycle


# ---------------------------------------------------------------------------
# predictions vs matrix truth over the quaternionic sweep


def test_sweep_with_tweaked_variants():
    for sig, basis, report in quaternionic_signatures(max_n=4):
        mats, census = report.matrices, report.census
        squares = dict(zip(MATRIX_NAMES, report.signature))
        assert squares["K"] == predicted_K_square(census, mats["K"].form)
        assert squares["S"] == predicted_S_square(census, mats["S"].form)
        for pair, got in report.commutation.items():
            assert got == universal_comm_sign(
                _factor_mask(mats[pair[0]].factors), _factor_mask(mats[pair[1]].factors)
            )


# ---------------------------------------------------------------------------
# comm_parity_terms against the four-function ledger it replaced, kept here
# verbatim as the reference: one clause per pair, correction computed apart


def _reference_printed_comm_parity(pair, forms, census):
    v, l, u, m = census.v, census.l, census.u, census.m
    s_count = l + u
    g_count = m + v
    a_count = census.a
    b_count = census.b
    pi_im = forms["Pi"] == "imaginary"
    k_im = forms["K"] == "imaginary"
    e_skew = forms["E"] == "skew"
    c_skew = forms["C"] == "skew"
    s_c = forms["S"] == "c"
    f_c = forms["F"] == "c"

    key = tuple(sorted(pair))

    if key == ("K", "Pi"):
        return (a_count * b_count) % 2
    if key == ("Pi", "S"):
        if pi_im:
            return (m if s_c else l) % 2
        return ((v + 1) if s_c else u) % 2
    if key == ("F", "Pi"):
        if pi_im:
            return (m if f_c else l) % 2
        return (v if f_c else (u + 1)) % 2
    if key == ("Pi", "W"):
        return 0 if pi_im else 1
    if key == ("E", "Pi"):
        if pi_im:
            return (m * (u + l) if e_skew else l * (m + v)) % 2
        return (u * (m + v) if e_skew else v * (u + l)) % 2
    if key == ("C", "Pi"):
        if pi_im:
            return (m * (u + l) if c_skew else l * (m + v)) % 2
        return (u * (m + v) if c_skew else v * (u + l)) % 2
    if key == ("K", "S"):
        if k_im:
            return ((m + 1) if s_c else l) % 2
        return (v if s_c else u) % 2
    if key == ("F", "K"):
        if k_im:
            return (m if f_c else (l + 1)) % 2
        return (v if f_c else u) % 2
    if key == ("K", "W"):
        return 0 if not k_im else 1
    if key == ("E", "K"):
        if k_im:
            return (m * (u + l) if e_skew else l * (m + v)) % 2
        return (u * (m + v) if e_skew else v * (u + l)) % 2
    if key == ("C", "K"):
        if k_im:
            return (m * (u + l) if c_skew else l * (m + v)) % 2
        return (u * (m + v) if c_skew else v * (u + l)) % 2
    if key == ("F", "S"):
        return (s_count * g_count) % 2
    if key == ("S", "W"):
        return 0 if s_c else 1
    if key == ("E", "S"):
        if s_c:
            return (u * (l + m) if e_skew else l * (u + v)) % 2
        return (m * (v + u) if e_skew else v * (m + l)) % 2
    if key == ("C", "S"):
        if s_c:
            return (u * (l + m) if c_skew else l * (u + v)) % 2
        return (m * (v + u) if c_skew else v * (m + l)) % 2
    if key == ("F", "W"):
        return 1 if f_c else 0
    if key == ("E", "F"):
        if f_c:
            return (u * (l + m) if e_skew else l * (u + v)) % 2
        return (m * (v + u) if e_skew else v * (m + l)) % 2
    if key == ("C", "F"):
        if f_c:
            return (u * (l + m) if c_skew else l * (u + v)) % 2
        return (m * (v + u) if c_skew else v * (m + l)) % 2
    if key in (("E", "W"), ("C", "W"), ("C", "E")):
        return None
    raise KeyError(f"unknown pair {pair}")


def _reference_comm_parity_correction(pair, forms, census):
    v, l, u, m = census.v, census.l, census.u, census.m
    key = tuple(sorted(pair))
    reality_family = {("E", "Pi"), ("C", "Pi"), ("E", "K"), ("C", "K")}
    cform_family = {("E", "S"), ("C", "S"), ("E", "F"), ("C", "F")}
    if key in reality_family:
        other = key[1]  # Pi or K
        ec = key[0]
        imag = forms[other] == "imaginary"
        skew = forms[ec] == "skew"
        if imag == skew:
            return (l * u) % 2
        return (v * m) % 2
    if key in cform_family:
        ec, sf = key
        c_form = forms[sf] == "c"
        skew = forms[ec] == "skew"
        if c_form == skew:
            return (l * m) % 2
        return (u * v) % 2
    if key in (("E", "W"), ("C", "W"), ("C", "E")):
        return None
    return 0


# every assignment of the six binary census forms; W is always the volume
ALL_FORMS = [dict(zip(MATRIX_NAMES, ("volume",) + choice))
             for choice in itertools.product(("skew", "sym"), ("skew", "sym"),
                                             ("imaginary", "real"), ("imaginary", "real"),
                                             ("c", "d"), ("c", "d"))]
ALL_PAIRS = [(x, y) for i, x in enumerate(MATRIX_NAMES) for y in MATRIX_NAMES[i + 1:]]


def test_comm_parity_terms_matches_reference_ledger():
    assert len(ALL_FORMS) == 64 and len(ALL_PAIRS) == 21
    cases = 0
    for counts in itertools.product(range(4), repeat=4):
        census = UnitCensus(*counts)
        for forms in ALL_FORMS:
            for pair in ALL_PAIRS:
                printed = _reference_printed_comm_parity(pair, forms, census)
                want = None if printed is None else (
                    printed, _reference_comm_parity_correction(pair, forms, census))
                assert comm_parity_terms(pair, forms, census) == want, (pair, forms, counts)
                cases += 1
    assert cases == 256 * 64 * 21


def test_comm_parity_terms_rejects_reversed_and_unknown_pairs():
    census, forms = UnitCensus(v=1, l=2, u=1, m=3), ALL_FORMS[5]
    for pair in [(y, x) for x, y in ALL_PAIRS] + [("W", "W"), ("E", "E"), ("S", "S")]:
        with pytest.raises(KeyError):
            comm_parity_terms(pair, forms, census)


# ---------------------------------------------------------------------------
# classification plumbing


def test_classify_table():
    assert cover_row((1,) * 7, abelian=True).group == "Z2xZ2xZ2"
    assert cover_row((-1, -1) + (1,) * 5, abelian=False).group == "D4"
    assert cover_row((-1,) * 4 + (1,) * 3, abelian=True).group == "Z4xZ2"
    assert cover_row((-1,) * 4 + (1,) * 3, abelian=False).group == "*Z4xZ2"
    assert cover_row((-1,) * 6 + (1,), abelian=False).group == "Q4"


def test_classify_rejects_impossible_profiles():
    with pytest.raises(ValueError):
        cover_row((1,) * 7, abelian=False)
    with pytest.raises(ValueError):
        cover_row((-1, -1) + (1,) * 5, abelian=True)
    with pytest.raises(ValueError):
        cover_row((-1,) * 6 + (1,), abelian=True)
    with pytest.raises(ValueError):
        cover_row((-1,) + (1,) * 6, abelian=True)
    with pytest.raises(ValueError):
        cover_row((0,) * 7, abelian=True)


def test_signed_order_structure():
    assert cover_row((1, 1, 1, 1, 1, 1, 1), abelian=True).order_structure == (7, 0)
    assert cover_row((-1, -1, 1, -1, -1, 1, 1), abelian=False).order_structure == (3, 4)


def test_detailed_case_table_spans_64_signatures():
    total = sum(math.comb(4, dm) for (_, dm, _) in ADMISSIBLE_DETAILED)
    assert total == 64
    for key, groups in ADMISSIBLE_DETAILED.items():
        abc, dm, typ = key
        assert typ in (4, 6)
        assert 0 <= dm <= 4
        assert groups <= {"Z2xZ2xZ2", "Z4xZ2", "*Z4xZ2", "D4", "Q4"}
        # the a entry is + exactly in type 4 slots
        assert (abc[0] == 1) == (typ == 4)


def test_admissible_lookup_rejects_unknown_slot():
    with pytest.raises(ValueError):
        admissible_groups((1, 1, 1, 1, 1, 1, 1), 6)


def test_universal_rule_and_comm_sign_helpers():
    assert universal_comm_sign(_factor_mask((1, 2, 4)), _factor_mask((3,))) == -1
    assert universal_comm_sign(_factor_mask((1, 2, 4)), _factor_mask((2, 4))) == 1
    a = SpinMatrix([[0, 1], [1, 0]])
    b = SpinMatrix([[1, 0], [0, -1]])
    assert matrix_comm_sign(a, a) == 1
    assert matrix_comm_sign(a, b) == -1
    with pytest.raises(ValueError):
        matrix_comm_sign(a, SpinMatrix([[1, 1], [1, -1]]))  # a + b


def test_pi_bar_rule_forms():
    from cliffork.spinor_repr import UnitCensus

    gamma = UnitCensus(v=1, l=1, u=2, m=0)  # b=3, u even part of it
    assert predicted_pi_bar(gamma, "real") == -1
    assert printed_pi_bar_applicable(gamma, "real")
    assert printed_pi_bar_mod4(gamma, "real") == -1

    std02 = UnitCensus(v=0, l=2, u=0, m=0)  # a=2
    assert predicted_pi_bar(std02, "imaginary") == -1
    assert printed_pi_bar_mod4(std02, "imaginary") == -1

    # hypothetical single-real-unit census from the bare rule: b=1 -> +I
    hyp = UnitCensus(v=1, l=0, u=0, m=0)
    assert printed_pi_bar_mod4(hyp, "real") == 1
    assert predicted_pi_bar(hyp, "real") == 1

    # the bare rule's blind spot: odd negative-square count in the class
    exotic = UnitCensus(v=0, l=1, u=1, m=0)
    assert not printed_pi_bar_applicable(exotic, "real")
    assert predicted_pi_bar(exotic, "real") == -1
    assert printed_pi_bar_mod4(exotic, "real") == 1  # wrong there, by design
