"""Covering reports: PT and CPT structures and their cover rows."""

import itertools
import re

import pytest

from cliffork.classification import type_index
from cliffork.core_algebra import GaussianScalar, SignatureSpec
from cliffork.coverings import (
    A_MINUS_SET,
    A_PLUS_SET,
    cpt_structure,
    pt_structure,
    predicted_pt_signature,
)
from cliffork.ext_automorphisms import (
    COVER_TABLE,
    MATRIX_NAMES,
    ExtGroupReport,
    ExtMatrix,
    cover_row,
    ext_group_report,
    ext_matrices,
    sign_cocycle,
)
from cliffork.finite_groups import cocycle_group, identify_small_group
from cliffork.spinor_repr import (
    SpinBasis,
    SpinMatrix,
    build_spinbasis,
    load_spinbasis,
    sweep_spinbasis_variants,
)
from kron_oracle import MAT_A, MAT_J
from small_group_catalog import matrix_comm_sign, matrix_square_sign, signed_cover_group


# ---------------------------------------------------------------------------
# complex case


def test_complex_rule():
    for n in range(12):
        rep = pt_structure(n)
        want = (1, 1, 1) if n % 4 in (0, 1) else (-1, -1, -1)
        assert rep.signature == want
        assert rep.admissible == (want,)
        assert rep.cover_group == ("Z2xZ2xZ2" if want[0] == 1 else "Q4")
        assert rep.automorphism_group == ("Z2xZ2" if want[0] == 1 else "Q4/Z2")
        assert rep.cliffordian is (want[0] == -1)
        assert rep.field == "C" and rep.ring == "C" and rep.n == n
        if n % 2:
            assert any(f"({n - 1},C)" in t for t in rep.notes)
    # the complex report depends on n alone: a marked signature is refused
    with pytest.raises(ValueError, match="pass the dimension 2"):
        pt_structure(SignatureSpec(1, 1, "C"))
    # dimensions and counts reach their checks as given, not truncated
    with pytest.raises(ValueError, match="complex dimension -2 is negative"):
        pt_structure(-2)
    for n in (4.7, True):
        with pytest.raises(TypeError, match=re.escape(f"complex dimension must be an int, got {n!r}")):
            pt_structure(n)
    with pytest.raises(TypeError, match="signature count p must be an int"):
        pt_structure(1.5, 3.9)


def test_complex_signature_realized_by_some_mark():
    # the canonical complex (a,b,c) shows up as actual matrix squares for
    # at least one real form of each even dimension
    for n in (2, 4, 6):
        want = pt_structure(n).signature
        got = set()
        for p in range(n + 1):
            basis = build_spinbasis(SignatureSpec(p, n - p, "C"))
            got.add(ext_group_report(basis).signature[:3])
        assert want in got


def test_cover_dictionaries():
    # the one-letter (collapse survivor) and three-letter (PT) rows; the
    # seven-letter rows are pinned by test_cpt_tables_pinned
    assert len(COVER_TABLE) == 11
    assert {k: v for k, v in COVER_TABLE.items() if k[0] in (1, 3)} == {
        (1, 0, True): ("Z2", "Z2xZ2", "Z2xZ2"),
        (1, 1, True): ("Z2", "Z4", "Z4"),
        (3, 0, True): ("Z2xZ2", "Z2xZ2xZ2", "Z2xZ2xZ2"),
        (3, 1, False): ("D4/Z2", "D4", "D4"),
        (3, 2, True): ("Z4", "Z4xZ2", "Z4xZ2"),
        (3, 3, False): ("Q4/Z2", "Q4", "Q4"),
    }
    # (a,b,c) keys the abelian row exactly when its minus count is even
    for s in itertools.product((1, -1), repeat=3):
        even = s.count(-1) % 2 == 0
        row = cover_row(s, even)
        assert (row.cover in ("Z2xZ2xZ2", "Z4xZ2")) == even
        assert row.order_structure == (3 - s.count(-1), s.count(-1))
        with pytest.raises(ValueError):
            cover_row(s, not even)
    with pytest.raises(ValueError):
        cover_row((1, 1, 1, 1), True)


# ---------------------------------------------------------------------------
# real case, simple even types


def test_real_simple_type_table():
    # one witness per (p mod 4, q mod 4) cell of the two simple-type tables;
    # pt_structure itself re-derives the squares from a built basis
    type0 = {
        (0, 0): (1, 1, 1),
        (1, 1): (1, 1, -1),
        (2, 2): (1, -1, -1),
        (3, 3): (1, -1, 1),
    }
    type2 = {
        (2, 0): (-1, 1, -1),
        (3, 1): (-1, -1, -1),
        (4, 2): (-1, -1, 1),
        (5, 3): (-1, 1, 1),
    }
    for (p, q), want in {**type0, **type2}.items():
        rep = pt_structure(p, q)
        assert rep.signature == want, (p, q)
        assert rep.admissible == (want,)
        assert rep.ring == "R"
        odd = want.count(-1) % 2 == 1
        assert rep.cover_group == cover_row(want, not odd).cover
        assert rep.cliffordian is odd


def test_real_types_read_the_basis_above_ten():
    # the same (p,q) mod 4 pin holds on bases built well above p+q = 10
    assert pt_structure(24, 0).signature == pt_structure(0, 0).signature
    assert pt_structure(20, 2).signature == pt_structure(4, 2).signature
    rep = pt_structure(20, 2)
    assert rep.notes[:2] == ("ring R, type 2: signature pinned by (p,q) = (0,2) mod 4",
                             "checked against basis real(20,2)")
    # a quaternionic cell is read from its basis at any size, not left unpinned
    rep = pt_structure(14, 10)
    assert rep.admissible == A_PLUS_SET and rep.signature in rep.admissible
    assert rep.cover_group == cover_row(rep.signature, rep.signature.count(-1) % 2 == 0).cover
    assert cpt_structure(14, 10).cover_group == "Z4xZ2xZ2"
    for structure in (pt_structure, cpt_structure):
        with pytest.raises(ValueError, match="p\\+q = 26 needs spinor dimension 8192"):
            structure(26, 0)


def _imaginary_cl11_basis():
    """The Cl(1,1) basis of units iJ (squares to +I) and iA (to -I)."""
    basis = SpinBasis(SignatureSpec(1, 1), [MAT_J * GaussianScalar.I, MAT_A * GaussianScalar.I],
                      name="units(iJ,iA)")
    basis.validate()
    return basis


def test_ring_r_rejects_an_imaginary_basis_by_name():
    # a valid basis whose (W,E,C) squares the census predicts, but E and C
    # are transposition intertwiners: ring R reads a real basis only
    basis = _imaginary_cl11_basis()
    realized = ext_group_report(basis).signature[:3]
    assert realized == predicted_pt_signature(basis) == (1, -1, 1)
    assert pt_structure(1, 1).signature == (1, 1, -1)
    for structure in (pt_structure, cpt_structure):
        with pytest.raises(ValueError, match=r"basis units\(iJ,iA\) has imaginary units"):
            structure(basis.sig, basis=basis)


def test_quaternionic_admissible_sets():
    rep = pt_structure(0, 2)
    assert rep.ring == "H"
    assert rep.admissible == A_MINUS_SET
    assert rep.signature == (-1, 1, -1)  # realized by the canonical basis
    rep = pt_structure(4, 0)
    assert rep.admissible == A_PLUS_SET
    assert rep.signature == (1, -1, 1)
    assert set(A_PLUS_SET) | set(A_MINUS_SET) == {
        (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
    }


def test_gamma_basis_realizes_z4_row():
    basis = load_spinbasis("gamma")
    rep = pt_structure(basis.sig, basis=basis)
    assert rep.signature == (-1, -1, 1)
    assert rep.cover_group == "Z4xZ2"
    assert rep.automorphism_group == "Z4"
    assert rep.cliffordian is False
    assert rep.signature in A_MINUS_SET


def test_semisimple_admissibility():
    rep = pt_structure(1, 0)
    assert rep.ring == "2R"
    assert rep.signature is None and rep.cover_group is None
    assert rep.cliffordian is None
    assert rep.admissible == A_PLUS_SET
    assert any("Cl(0,0)" in t for t in rep.notes)

    rep = pt_structure(0, 3)
    assert rep.ring == "2H"
    assert rep.admissible == A_MINUS_SET

    rep = pt_structure(5, 0)
    assert rep.admissible == A_PLUS_SET

    for p, q in ((2, 1), (1, 4), (3, 2)):
        rep = pt_structure(p, q)
        assert len(rep.admissible) == 8, (p, q)


def test_complex_ring_types_reduce_one_dimension_down():
    rep = pt_structure(3, 0)
    assert rep.ring == "C"
    assert rep.signature == (-1, -1, -1)
    assert any("(2,C)" in t for t in rep.notes)
    assert pt_structure(0, 1).signature == (1, 1, 1)
    # the reduction agrees with the parity clause: all-plus iff p even
    for n in (1, 3, 5, 7, 9):
        for p in range(n + 1):
            if type_index(p, n - p) not in (3, 7):
                continue
            want = (1, 1, 1) if p % 2 == 0 else (-1, -1, -1)
            assert pt_structure(p, n - p).signature == want, (p, n - p)


def test_even_sweep_cross_validation():
    # every constructible even signature up to p+q=8: census prediction,
    # matrix squares, admissibility, cover identification, and the
    # abelian/sign-count tie all agree (pt_structure checks the last two
    # through ExtGroupReport.cover)
    for n in (0, 2, 4, 6, 8):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            basis = build_spinbasis(sig)
            report = ext_group_report(basis)
            realized = report.signature[:3]
            assert realized == predicted_pt_signature(basis), sig
            rep = pt_structure(sig)
            assert realized in rep.admissible
            wec = (report.commutation[pair] for pair in (("W", "E"), ("W", "C"), ("E", "C")))
            row = cover_row(realized, all(s == 1 for s in wec))
            cover = signed_cover_group(report.matrices, ("W", "E", "C"))
            assert identify_small_group(cover) == row.identified
            assert rep.cover_group == row.cover
            assert rep.cliffordian is (not row.abelian)


def test_variant_sweep_census_prediction():
    checked = 0
    for n in (2, 4, 6):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            if type_index(p, n - p) not in (4, 6):
                continue
            block = A_PLUS_SET if type_index(p, n - p) == 4 else A_MINUS_SET
            for basis in sweep_spinbasis_variants(sig):
                realized = ext_group_report(basis).signature[:3]
                assert realized == predicted_pt_signature(basis)
                assert realized in block
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the formal double cover


def test_signed_cover_group_shapes():
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)
    small = signed_cover_group(mats, ("W", "E", "C"))
    assert small.order == 8
    assert identify_small_group(small) == "Z4xZ2"
    full = signed_cover_group(mats)
    assert full.order == 16
    assert identify_small_group(full) == "D4oZ4"
    with pytest.raises(ValueError):
        signed_cover_group(mats, ("W", "E"))  # composite C missing
    with pytest.raises(ValueError):
        signed_cover_group(mats, ("W", "Pi"))  # composite K missing
    # the library names the same covers from the sign cocycle alone
    cocycle = sign_cocycle(mats)
    assert cocycle_group(_restricted(cocycle, (0, 1, 2, 3))) == (8, "Z4xZ2")
    assert cocycle_group(cocycle) == (16, "D4oZ4")


def _restricted(cocycle, codes):
    return {(a, b): cocycle[a, b] for a in codes for b in codes}


def test_trivial_cocycle_gives_elementary_cover():
    # all seven matrices collapsed onto +I: the cover degenerates to the
    # all-plus row, an elementary abelian group of order 16
    ident = SpinMatrix.identity(2)
    mats = {
        nm: ExtMatrix(nm, ident, (), "x")
        for nm in ("W", "E", "C", "Pi", "K", "S", "F")
    }
    g = signed_cover_group(mats)
    assert g.order == 16
    assert identify_small_group(g) == "Z2xZ2xZ2xZ2"
    # the report reads squares and commutation from its cocycle alone
    gamma = ext_group_report(load_spinbasis("gamma"))
    trivial = ExtGroupReport(gamma.sig, gamma.census, gamma.matrices,
                             dict.fromkeys(gamma.cocycle, 1), gamma.pi_bar_sign)
    assert trivial.signature == (1,) * 7 and trivial.abelian
    row = trivial.cover(range(1, 8))
    assert row == (7, 0, True, "Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2")
    assert trivial.cover([2]).cover == "Z2xZ2"  # E alone


def test_report_cover_rejects_a_wrong_row(monkeypatch):
    # a lone letter squaring to -I keys the Z4 row; a table row whose
    # identified group is not the one the sign cocycle builds must fail
    report = ext_group_report(load_spinbasis("gamma"))
    assert report.signature[0] == -1
    assert report.cover([1]).cover == "Z4"
    # the codes are a set, read in any order, with or without 0; a set that
    # is not a subgroup of the codes 0..7 is a ValueError naming the set
    assert report.cover([2, 1, 3]) == report.cover(range(1, 4)) == report.cover(range(4))
    for codes, match in (((1, 2, 4), "{0, 1, 2, 4} is not a subgroup"),  # W, E, Pi
                         ((1, 2), "{0, 1, 2} is not a subgroup"),  # W, E
                         ((1, 4), "{0, 1, 4} is not a subgroup"),  # W, Pi
                         ((8,), "{0, 8} is not a subgroup of the codes 0..7"),
                         ((-1,), "{-1, 0} is not a subgroup of the codes 0..7")):
        with pytest.raises(ValueError, match=re.escape(match)):
            report.cover(codes)
    monkeypatch.setitem(COVER_TABLE, (1, 1, True), ("Z2", "Z4", "Z2xZ2"))
    with pytest.raises(AssertionError, match="builds Z4"):
        report.cover([1])


def test_cover_table_matches_the_rebuilt_cover_on_every_swept_basis():
    # differential check of the table against the cocycle cover, for the
    # three- and seven-letter sets on every variant basis, real and complex
    reached = set()
    for n in (0, 2, 4, 6):
        for p in range(n + 1):
            for field in ("R", "C"):
                for basis in sweep_spinbasis_variants(SignatureSpec(p, n - p, field)):
                    report = ext_group_report(basis)
                    mats = report.matrices
                    for codes in (range(1, 4), range(1, 8)):
                        names = MATRIX_NAMES[:len(codes)]
                        squares = tuple(matrix_square_sign(mats[x].matrix) for x in names)
                        abelian = all(matrix_comm_sign(mats[x].matrix, mats[y].matrix) == 1
                                      for x, y in itertools.combinations(names, 2))
                        row = cover_row(squares, abelian)
                        table = signed_cover_group(mats, names)
                        built = identify_small_group(table)
                        assert built == row.identified, (basis.name, names)
                        assert report.cover(codes) == row, (basis.name, names)
                        assert (cocycle_group(_restricted(report.cocycle, [0, *codes]))
                                == (table.order, built))
                        reached.add((len(names), row.minus, row.abelian))
    assert reached == {key for key in COVER_TABLE if key[0] != 1}


def test_pt_cover_is_the_wec_part_of_the_cpt_cover():
    # differential check: the (W,E,C) cover is the subgroup of the W..F cover
    # that +-W, +-E, +-C generate, with the same product on every pair
    checked = 0
    for n in (0, 2, 4, 6):
        for p in range(n + 1):
            for field in ("R", "C"):
                for basis in sweep_spinbasis_variants(SignatureSpec(p, n - p, field)):
                    report = ext_group_report(basis)
                    mats = report.matrices
                    small = signed_cover_group(mats, ("W", "E", "C"))
                    big = signed_cover_group(mats)
                    at = {label: big.elements.index(label) for label in small.elements}
                    for i, x in enumerate(small.elements):
                        for j, y in enumerate(small.elements):
                            label = small.elements[small.table[i][j]]
                            assert big.elements[big.table[at[x]][at[y]]] == label, (basis.name, x, y)
                            checked += 1
                    wec = report.cover(range(1, 4))
                    assert identify_small_group(small) == wec.identified, basis.name
    assert checked > 5000


# ---------------------------------------------------------------------------
# CPT structure


def test_cpt_tables_pinned():
    # the four-minus row splits on abelianness; the starred cover is the
    # central product D4oZ4
    assert {k: v for k, v in COVER_TABLE.items() if k[0] == 7} == {
        (7, 0, True): ("Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2"),
        (7, 2, False): ("D4", "D4xZ2", "D4xZ2"),
        (7, 4, True): ("Z4xZ2", "Z4xZ2xZ2", "Z4xZ2xZ2"),
        (7, 4, False): ("*Z4xZ2", "*Z4xZ2xZ2", "D4oZ4"),
        (7, 6, False): ("Q4", "Q4xZ2", "Q4xZ2"),
    }


def test_cpt_gamma_case():
    basis = load_spinbasis("gamma")
    rep = cpt_structure(basis.sig, basis=basis)
    assert rep.signature == (-1, -1, 1, -1, -1, 1, 1)
    assert rep.cover_group == "*Z4xZ2xZ2"
    assert rep.automorphism_group == "*Z4xZ2"
    assert rep.cliffordian is True
    assert any("D4oZ4" in t for t in rep.notes)


def test_cpt_ring_r_reduces_to_pt():
    rep = cpt_structure(2, 0)
    assert len(rep.signature) == 3
    assert rep.cover_group == "Z4xZ2"
    assert any("reduced" in t for t in rep.notes)
    assert cpt_structure(1, 1).cover_group == "D4"


def test_cpt_rejects_other_rings():
    with pytest.raises(ValueError):
        cpt_structure(3, 0)  # ring C
    with pytest.raises(ValueError):
        cpt_structure(1, 0)  # ring 2R
    with pytest.raises(ValueError):
        cpt_structure(SignatureSpec(1, 1, "C"))


def test_cpt_sweep_covers_match_the_rebuilt_group():
    # cpt_structure internally rebuilds the order-16 cover from the matrix
    # cocycle and compares it with the table row; sweep every variant, the
    # reversed and sign-flipped tweaks of each split included
    seen_covers = set()
    for n in (2, 4, 6):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            if type_index(p, n - p) not in (4, 6):
                continue
            for basis in sweep_spinbasis_variants(sig):
                rep = cpt_structure(sig, basis=basis)
                mc = rep.signature.count(-1)
                assert mc in (2, 4, 6)
                if mc != 4:
                    assert rep.cliffordian is True  # 2- and 6-minus rows
                assert rep.cover_group == COVER_TABLE[7, mc, not rep.cliffordian][1]
                seen_covers.add(rep.cover_group)
    assert seen_covers == {"D4xZ2", "Q4xZ2", "Z4xZ2xZ2", "*Z4xZ2xZ2"}

