"""Covering reports: PT/CPT structures, Pin membership, odd-dimensional splits."""

import dataclasses
import functools
import itertools
import random
import re

import pytest

from cliffork.classification import type_index
from cliffork.core_algebra import GaussianScalar, MultiVector, SignatureSpec, blade_product
from cliffork.coverings import (
    A_MINUS_SET,
    A_PLUS_SET,
    cpt_structure,
    norm_scalar,
    odd_dimensional_decomposition_report,
    pin_element,
    pin_membership,
    pt_structure,
    predicted_pt_signature,
    spin_membership,
)
from cliffork.ext_automorphisms import (
    COVER_TABLE,
    MATRIX_NAMES,
    ExtMatrix,
    cover_row,
    ext_group_report,
    ext_matrices,
    sign_cocycle,
)
from cliffork.finite_groups import cocycle_group, identify_small_group
from cliffork.spinor_repr import (
    MAT_A,
    MAT_J,
    SpinBasis,
    SpinMatrix,
    build_spinbasis,
    load_spinbasis,
    sweep_spinbasis_variants,
)
from small_group_catalog import matrix_comm_sign, matrix_square_sign, signed_cover_group

ONE = GaussianScalar.of(1)


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
    trivial = dataclasses.replace(gamma, cocycle=dict.fromkeys(gamma.cocycle, 1))
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


# ---------------------------------------------------------------------------
# membership


def test_pin_spin_examples():
    s20 = SignatureSpec(2, 0)
    e1 = MultiVector.unit(s20, 1)
    assert pin_membership(e1) and not spin_membership(e1)
    e12 = MultiVector.blade(s20, (1, 2))
    assert norm_scalar(e12) == ONE  # rev(e12) = -e12, so N = -e12^2 = +1
    assert pin_membership(e12) and spin_membership(e12)

    s10 = SignatureSpec(1, 0)
    x = MultiVector.scalar(s10, 1) + MultiVector.unit(s10, 1)
    assert not pin_membership(x)  # (1+e1)(1-e1) = 0

    assert pin_membership(MultiVector.scalar(s20, 1))
    assert spin_membership(MultiVector.scalar(s20, -1))
    assert not pin_membership(MultiVector.scalar(s20, 2))  # N = 4
    assert not pin_membership(MultiVector.zero(s20))
    s11 = SignatureSpec(1, 1)
    assert not pin_membership(MultiVector.unit(s11, 1) + MultiVector.unit(s11, 2))  # null

    big = MultiVector.unit(SignatureSpec(5, 0), 1)
    with pytest.raises(ValueError):
        pin_membership(big)


def _pin_pool(sig):
    """Exact Pin elements with their parity: unit vectors, unit blades, and
    rational unit vectors built from Pythagorean / hyperbolic pairs."""
    pool = []
    for i in range(1, sig.n + 1):
        pool.append((MultiVector.unit(sig, i), 1))
    if sig.n >= 2:
        pool.append((MultiVector.blade(sig, (1, 2)), 0))
    from fractions import Fraction

    f = Fraction
    if sig.p >= 2:
        v = MultiVector.unit(sig, 1) * f(3, 5) + MultiVector.unit(sig, 2) * f(4, 5)
        pool.append((v, 1))
    if sig.p >= 1 and sig.q >= 1:
        v = MultiVector.unit(sig, 1) * f(5, 4) + MultiVector.unit(sig, sig.n) * f(3, 4)
        pool.append((v, 1))
    if sig.p == 0 and sig.q >= 2:
        v = MultiVector.unit(sig, 1) * f(3, 5) + MultiVector.unit(sig, 2) * f(4, 5)
        pool.append((v, 1))  # squares to -1, still unit norm
    for v, _ in pool:
        sq = v * v
        assert sq.is_scalar() and sq.scalar_part() in (ONE, GaussianScalar.of(-1))
    return pool


def test_membership_closure_property():
    rng = random.Random(20260815)
    sigs = [SignatureSpec(2, 0), SignatureSpec(1, 1), SignatureSpec(0, 2), SignatureSpec(2, 2)]
    pools = {s: _pin_pool(s) for s in sigs}
    for _ in range(200):
        sig = rng.choice(sigs)
        draws = [rng.choice(pools[sig]) for _ in range(rng.randint(1, 4))]
        x = MultiVector.scalar(sig, 1)
        parity = 0
        for v, par in draws:
            x = x * v
            parity = (parity + par) % 2
        assert pin_membership(x)
        assert spin_membership(x) == (parity == 0)
        # reversion gives the inverse up to the norm sign
        nu = norm_scalar(x)
        assert nu in (ONE, GaussianScalar.of(-1))
        inv = x.reversion() * nu
        assert x * inv == 1 == inv * x
        assert pin_membership(inv)
        # perturbed element drops out: the shifted norm 9 + N + 3(x + rev x)
        # cannot land back on +-1 with this pool's denominators
        assert not pin_membership(x + MultiVector.scalar(sig, 3))


def test_pin_element_validation():
    s20 = SignatureSpec(2, 0)
    el = pin_element(MultiVector.unit(s20, 1))
    assert el.norm == ONE
    el = pin_element(MultiVector.blade(s20, (1, 2)))
    assert el.norm == ONE
    s02 = SignatureSpec(0, 2)
    assert pin_element(MultiVector.unit(s02, 1)).norm == GaussianScalar.of(-1)
    with pytest.raises(ValueError):
        pin_element(
            MultiVector.scalar(SignatureSpec(1, 0), 1)
            + MultiVector.unit(SignatureSpec(1, 0), 1)
        )


def _regular_representation_reference(x):
    """Left-multiplication operator of x on the 2^n blade basis."""
    sig = x.sig
    dim = 1 << sig.n
    zero = GaussianScalar.of(0)
    out = [[zero] * dim for _ in range(dim)]
    for col in range(dim):
        for mask, coeff in x.items():
            res, sgn = blade_product(sig, mask, col)
            out[res][col] = out[res][col] + coeff * sgn
    return out


@functools.lru_cache(maxsize=None)
def _inverse_reference(x):
    """Exact inverse by Gaussian elimination on the regular representation,
    None when singular (cached: each case asks for it up to three times)."""
    sig = x.sig
    dim = 1 << sig.n
    zero = GaussianScalar.of(0)
    rows = [list(r) for r in _regular_representation_reference(x)]
    rhs = [ONE if i == 0 else zero for i in range(dim)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = rows[col][col].inverse()
        rows[col] = [a * inv for a in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(dim):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return MultiVector(sig, {mask: rhs[mask] for mask in range(dim) if rhs[mask]})


def _membership_reference(x, even_only):
    """Membership through the solved inverse, checked before the norm."""
    if x.sig.n > 4:
        raise ValueError("brute-force membership is kept to p+q <= 4")
    if x.is_zero():
        return False
    if even_only and any(g % 2 for g in x.grades()):
        return False
    inv = _inverse_reference(x)
    if inv is None:
        return False
    if norm_scalar(x) not in (ONE, GaussianScalar.of(-1)):
        return False
    for i in range(1, x.sig.n + 1):
        if (x * MultiVector.unit(x.sig, i) * inv).grades() not in ([], [1]):
            return False
    return True


def _pin_element_reference(x):
    """(value, norm) of a validated Pin element, or the ValueError text."""
    if not _membership_reference(x, even_only=False):
        return "not a Pin element"
    inv = _inverse_reference(x)
    for i in range(1, x.sig.n + 1):
        image = x.grade_involution() * MultiVector.unit(x.sig, i) * inv
        if image.grades() not in ([], [1]):
            return "twisted action leaves the grade-1 span"
    return x, norm_scalar(x)


def _membership_sample(rng, sig, count):
    """Seeded elements of Cl(sig): products of Pin pool elements (members);
    the same times a scalar or i, plus a blade, or times a + b*B for a blade
    B of grade 2 or 3 with N(a + b*B) = 1 (grade 3 gives norm-one elements
    that fail the plain or the twisted action); and sparse elements with
    small rational coefficients."""
    from fractions import Fraction

    pool = [v for v, _ in _pin_pool(sig)]
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 5), Fraction(4, 5), GaussianScalar.I]
    blades = [MultiVector.from_mask(sig, m) for m in range(1 << sig.n) if m.bit_count() in (2, 3)]
    out = []
    for k in range(count):
        x = MultiVector.scalar(sig, 1)
        for _ in range(rng.randint(1, 3)):
            x = x * rng.choice(pool)
        kind = k % 5
        if kind == 1:
            x = x * rng.choice(coeffs)
        elif kind == 2:
            x = x + MultiVector.from_mask(sig, rng.randrange(1 << sig.n), rng.choice(coeffs))
        elif kind == 3:
            blade = rng.choice(blades)
            # N(a + b*B) = a^2 + b^2 * B*rev(B), and B*rev(B) = +-1
            if norm_scalar(blade) == ONE:
                a, b = Fraction(3, 5), Fraction(4, 5)
            else:
                a, b = Fraction(5, 4), Fraction(3, 4)
            x = x * (MultiVector.scalar(sig, a) + blade * b)
        elif kind == 4:
            masks = rng.sample(range(1 << sig.n), rng.randint(1, 4))
            x = MultiVector(sig, {m: GaussianScalar.of(rng.choice(coeffs)) for m in masks})
        out.append(x)
    return out


def test_membership_matches_solved_inverse_reference():
    # every {-1,0,1} coefficient vector at p+q <= 2, a seeded sample at 3 and 4
    rng = random.Random(20261018)
    cases = []
    for n in range(5):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            if n <= 2:
                for digits in itertools.product((-1, 0, 1), repeat=1 << n):
                    cases.append(MultiVector(sig, dict(enumerate(digits))))
            else:
                cases.extend(_membership_sample(rng, sig, 60 if n == 3 else 25))
    members = spin_members = 0
    for x in cases:
        pin = pin_membership(x)
        assert pin == _membership_reference(x, even_only=False), x
        spin = spin_membership(x)
        assert spin == _membership_reference(x, even_only=True), x
        try:
            el = pin_element(x)
            got = (el.value, el.norm)
        except ValueError as exc:
            got = str(exc)
        assert got == _pin_element_reference(x), x
        members += pin
        spin_members += spin
    assert members > 100 and spin_members > 40


# ---------------------------------------------------------------------------
# odd-dimensional decompositions


def test_odd_decomposition_named_cases():
    cases = {
        (3, 0): (-1, "i", "SU(2) u iSU(2)"),
        (0, 3): (1, "e", "SU(2) u eSU(2)"),
        (5, 0): (1, "e", "Sp(2) u eSp(2)"),
        (0, 5): (-1, "i", "Sp(2) u iSp(2)"),
    }
    for (p, q), (w2, branch, label) in cases.items():
        rep = odd_dimensional_decomposition_report(p, q)
        assert rep.omega_square == w2
        assert rep.branch == branch
        assert rep.unitary_label == label


def test_odd_decomposition_identities():
    rep = odd_dimensional_decomposition_report(2, 1)
    assert rep.identities == (
        "Pin(2,1) = Spin(2,1) u w.Spin(2,1)",
        "Pin(2,1) = Pin(2,0) u w.Pin(2,0)",
        "Pin(2,1) = Pin(1,1) u w.Pin(1,1)",
    )
    assert rep.unitary_label is None
    rep = odd_dimensional_decomposition_report(1, 0)
    assert rep.identities == (
        "Pin(1,0) = Spin(1,0) u w.Spin(1,0)",
        "Pin(1,0) = Pin(0,0) u w.Pin(0,0)",
    )
    rep = odd_dimensional_decomposition_report(0, 1)
    assert rep.identities == (
        "Pin(0,1) = Spin(0,1) u w.Spin(0,1)",
        "Pin(0,1) = Pin(0,0) u w.Pin(0,0)",
    )


def test_odd_decomposition_volume_signs():
    from cliffork.core_algebra import volume_square_sign

    for n in (1, 3, 5, 7):
        for p in range(n + 1):
            rep = odd_dimensional_decomposition_report(p, n - p)
            assert rep.omega_square == volume_square_sign(p, n - p)
            assert rep.branch == ("i" if rep.omega_square == -1 else "e")


def test_odd_decomposition_rejects_even():
    with pytest.raises(ValueError):
        odd_dimensional_decomposition_report(2, 0)
    with pytest.raises(ValueError):
        odd_dimensional_decomposition_report(1, 1)
