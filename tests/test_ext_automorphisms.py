"""Extended automorphism matrices: constructions, squares, commutation."""

import dataclasses
import itertools
import math
import sys

import pytest

from cliffork import ext_automorphisms
from cliffork.core_algebra import SignatureSpec
from cliffork.ext_automorphisms import (
    ADMISSIBLE_DETAILED,
    MATRIX_NAMES,
    admissible_groups,
    comm_parity_terms,
    commutation_profile,
    cover_row,
    enumerate_signatures,
    ext_group_report,
    ext_matrices,
    matrix_comm_sign,
    predicted_F_square,
    predicted_K_square,
    predicted_pi_bar,
    predicted_S_square,
    printed_pi_bar_applicable,
    printed_pi_bar_mod4,
    product_square_sign,
    quaternionic_signatures,
    signed_letter_table,
    universal_comm_sign,
)
from cliffork.spinor_repr import SpinMatrix, UnitCensus, build_spinbasis, load_spinbasis


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
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)
    elements, cells = signed_letter_table(mats)
    assert elements == ["I"] + list(MATRIX_NAMES)
    assert cells[0] == ["+" + e for e in elements]
    assert [row[0] for row in cells] == ["+" + e for e in elements]
    assert all(cell is not None for row in cells for cell in row)
    # a pool that is not closed: g1 g2 is none of the eight up to sign
    mats["F"] = dataclasses.replace(mats["F"], matrix=basis.product_of([1, 2]))
    _, cells = signed_letter_table(mats)
    assert cells[0][7] == "+F"
    assert cells[1][7] is None  # W g1 g2 = -g3 g4


def test_gamma_report():
    basis = load_spinbasis("gamma")
    report = ext_group_report(basis)
    assert report.signature == (-1, -1, 1, -1, -1, 1, 1)
    assert report.pi_bar_sign == -1
    assert not report.abelian
    assert report.order_structure == (3, 4)
    assert report.group_name == "*Z4xZ2"
    assert report.abstract_group == "D4oZ4"


def test_gamma_commutation_spot_cells():
    # a few cells transcribed from the printed multiplication table
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)
    prof = commutation_profile(mats)
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
    assert report.abstract_group == "Z4"
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
                        lambda u, x: u is not basis.mats[2])
    with pytest.raises(AssertionError, match="^S relation failed at unit 3$"):
        ext_matrices(basis)


def test_odd_dimension_rejected():
    basis = build_spinbasis(SignatureSpec(3, 0))
    with pytest.raises(ValueError, match="need even n"):
        ext_matrices(basis)


# ---------------------------------------------------------------------------
# each construction is the unique unit-subset solution of its relation


def _relation_solutions(basis, relation):
    hits = []
    for indices, x in _subset_products(basis):
        if all(relation(u, x) for u in basis.mats):
            hits.append(indices)
    return hits


def test_defining_relations_have_unique_subset_solutions():
    relations = {
        "W": lambda u, x: x * u == -(u * x),
        "E": lambda u, x: u * x == x * u.transpose(),
        "C": lambda u, x: u * x == -(x * u.transpose()),
        "Pi": lambda u, x: u * x == x * u.conj(),
        "K": lambda u, x: -(u * x) == x * u.conj(),
        "S": lambda u, x: u * x == x * u.conj().transpose(),
        "F": lambda u, x: -(u * x) == x * u.conj().transpose(),
    }
    for sig in (SignatureSpec(0, 2), SignatureSpec(1, 3), SignatureSpec(2, 0)):
        basis = build_spinbasis(sig)
        mats = ext_matrices(basis)
        for name, rel in relations.items():
            hits = _relation_solutions(basis, rel)
            assert hits == [mats[name].factors], (str(sig), name, hits)


# ---------------------------------------------------------------------------
# predictions vs matrix truth over the quaternionic sweep


def _negatives(basis, factors):
    return sum(1 for i in factors if i > basis.sig.p)


def test_sweep_squares_and_commutation_up_to_n6():
    seen = 0
    for sig, basis, report in quaternionic_signatures(max_n=6):
        seen += 1
        mats = report.matrices
        census = report.census
        forms = {name: mats[name].form for name in MATRIX_NAMES}

        # square laws, both routes
        assert report.pi_bar_sign == -1  # antilinear intertwiner squares to -1
        assert report.pi_bar_sign == predicted_pi_bar(census, forms["Pi"])
        if printed_pi_bar_applicable(census, forms["Pi"]):
            assert report.pi_bar_sign == printed_pi_bar_mod4(census, forms["Pi"])
        assert mats["K"].square_sign == predicted_K_square(census, forms["K"])
        assert mats["S"].square_sign == predicted_S_square(census, forms["S"])
        assert mats["F"].square_sign == predicted_F_square(census, forms["F"])
        for name in MATRIX_NAMES:
            m = mats[name]
            assert m.square_sign == product_square_sign(
                len(m.factors), _negatives(basis, m.factors)
            ), (str(sig), basis.name, name)
            prod = basis.product_of(m.factors)
            assert m.matrix in (prod, -prod)

        # commutation, all three routes
        for pair, got in report.commutation.items():
            x, y = pair
            assert got == universal_comm_sign(mats[x].factors, mats[y].factors), (
                str(sig), basis.name, pair,
            )
            terms = comm_parity_terms(pair, forms, census)
            if terms is not None:
                printed, correction = terms
                parity = (printed + correction) % 2
                assert got == (1 if parity == 0 else -1), (str(sig), basis.name, pair)
                if correction == 0:
                    assert got == (1 if printed == 0 else -1), (
                        str(sig), basis.name, pair,
                    )

        # admissibility
        assert sum(report.order_structure) == 7
        allowed = admissible_groups(report.signature, (sig.p - sig.q) % 8)
        assert report.group_name in allowed
    assert seen >= 8


def test_sweep_with_tweaked_variants():
    for sig, basis, report in quaternionic_signatures(max_n=4):
        mats = report.matrices
        census = report.census
        assert mats["K"].square_sign == predicted_K_square(census, mats["K"].form)
        assert mats["S"].square_sign == predicted_S_square(census, mats["S"].form)
        for pair, got in report.commutation.items():
            assert got == universal_comm_sign(
                mats[pair[0]].factors, mats[pair[1]].factors
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


def test_enumerate_signatures_respects_census_bound():
    realized = enumerate_signatures(max_n=8)
    assert 0 < len(realized) <= 64
    for signature in realized:
        minus = sum(1 for s in signature if s == -1)
        assert minus in (0, 2, 4, 6)


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
    assert universal_comm_sign((1, 2, 4), (3,)) == -1
    assert universal_comm_sign((1, 2, 4), (2, 4)) == 1
    a = SpinMatrix([[0, 1], [1, 0]])
    b = SpinMatrix([[1, 0], [0, -1]])
    assert matrix_comm_sign(a, a) == 1
    assert matrix_comm_sign(a, b) == -1
    with pytest.raises(ValueError):
        matrix_comm_sign(a, a + b)


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
