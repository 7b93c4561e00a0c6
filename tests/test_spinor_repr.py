"""Spinor basis construction and exact matrix checks."""

import json

import pytest

from cliffork.classification import matrix_dimension, type_index
from cliffork.core_algebra import GaussianScalar, MultiVector, SignatureSpec
from cliffork.spinor_repr import (
    MAT_A,
    MAT_B,
    MAT_J,
    SpinBasis,
    SpinMatrix,
    build_spinbasis,
    classify_matrix,
    idempotent_rank,
    load_spinbasis,
    primitive_idempotent,
    quaternionic_splits,
    radon_hurwitz_number,
    save_spinbasis,
    sweep_spinbasis_variants,
)

I_ = GaussianScalar.I

CONSTRUCTIBLE = [
    SignatureSpec(p, q)
    for n in range(0, 8)
    for p in range(n + 1)
    for q in [n - p]
    if (p - q) % 8 not in (1, 5)
]


# ---------------------------------------------------------------------------
# matrices


def test_matrix_blocks():
    assert MAT_A * MAT_A == SpinMatrix.identity(2)
    assert MAT_B * MAT_B == SpinMatrix.identity(2)
    assert MAT_J * MAT_J == -SpinMatrix.identity(2)
    assert MAT_A * MAT_B == -(MAT_B * MAT_A)
    assert classify_matrix(MAT_A) == classify_matrix(MAT_B)
    assert classify_matrix(MAT_J).symmetry == "skew"


def test_matrix_classify():
    assert classify_matrix(MAT_A).reality == "real"
    assert classify_matrix(MAT_A).symmetry == "symmetric"
    assert classify_matrix(MAT_J * I_).reality == "imaginary"
    assert classify_matrix(MAT_J * I_).symmetry == "skew"
    mixed = MAT_A + MAT_J * I_
    assert classify_matrix(mixed).reality == "mixed"
    assert classify_matrix(mixed).symmetry == "mixed"
    assert classify_matrix(SpinMatrix.zero(2)).reality == "zero"


def test_matrix_kron_and_scalar_detection():
    ident = SpinMatrix.identity(2)
    k = MAT_A.kron(ident)
    assert k.dim == 4
    assert (k * k).scalar_multiple_of_identity() == GaussianScalar.ONE
    assert (MAT_J * MAT_J).sign_of_identity_multiple() == -1
    assert MAT_A.scalar_multiple_of_identity() is None
    with pytest.raises(ValueError):
        MAT_B.sign_of_identity_multiple()


def test_matrix_serialization_round_trip():
    m = MAT_J * I_
    assert SpinMatrix.from_lists(m.to_lists()) == m


# ---------------------------------------------------------------------------
# constructions


@pytest.mark.parametrize("sig", CONSTRUCTIBLE, ids=str)
def test_build_spinbasis_is_valid(sig):
    basis = build_spinbasis(sig)
    basis.validate()
    # quaternionic cells H(d) are realized as complex 2d x 2d matrices
    factor = 2 if type_index(sig.p, sig.q) in (4, 6) else 1
    assert basis.dim == factor * matrix_dimension(sig.p, sig.q)
    for mat in basis.mats:
        for row in mat.rows:
            for a in row:
                assert a in (
                    GaussianScalar.ZERO,
                    GaussianScalar.ONE,
                    -GaussianScalar.ONE,
                    I_,
                    -I_,
                )


@pytest.mark.parametrize(
    "sig", [s for s in CONSTRUCTIBLE if type_index(s.p, s.q) in (0, 2)], ids=str
)
def test_types_0_and_2_are_all_real(sig):
    census = build_spinbasis(sig).unit_census()
    assert census.a == 0
    assert (census.v, census.u) == (sig.p, sig.q)


def test_semi_simple_types_rejected():
    for sig in (SignatureSpec(1, 0), SignatureSpec(0, 3), SignatureSpec(4, 3)):
        with pytest.raises(ValueError):
            build_spinbasis(sig)


@pytest.mark.parametrize("sig", [s for s in CONSTRUCTIBLE if s.n <= 6], ids=str)
def test_blade_images_distinct_up_to_sign(sig):
    basis = build_spinbasis(sig)
    seen = {}
    for mask in range(1 << sig.n):
        img = basis.blade_image(mask)
        # canonical form: flip so the first nonzero entry has positive re
        # (or positive im when re is 0)
        first = next(a for row in img.rows for a in row if a)
        if first.re < 0 or (first.re == 0 and first.im < 0):
            img = -img
        key = img.rows
        assert key not in seen, f"blades {seen.get(key)} and {mask} collide"
        seen[key] = mask


def test_census_matches_quaternionic_split():
    for sig in [SignatureSpec(1, 3), SignatureSpec(0, 2), SignatureSpec(6, 0)]:
        for idx, (r, s, x, y) in enumerate(quaternionic_splits(sig.p, sig.q)):
            census = build_spinbasis(sig, variant=idx).unit_census()
            assert (census.v, census.l, census.u, census.m) == (r - x, x, s - y, y)


def test_quaternionic_variant_bounds():
    with pytest.raises(ValueError):
        build_spinbasis(SignatureSpec(0, 2), variant=99)
    with pytest.raises(ValueError):
        quaternionic_splits(2, 0)


def test_sweep_variants_all_valid():
    for sig in [SignatureSpec(1, 3), SignatureSpec(4, 0), SignatureSpec(0, 4)]:
        variants = sweep_spinbasis_variants(sig)
        assert len(variants) >= 3
        for basis in variants:
            basis.validate()
    assert len(sweep_spinbasis_variants(SignatureSpec(2, 0))) == 1


def test_complex_bases():
    for n in range(0, 7):
        sig = SignatureSpec(n, 0, field="C")
        basis = build_spinbasis(sig)
        basis.validate()
        assert basis.dim == 1 << (n // 2)
    marked = build_spinbasis(SignatureSpec(1, 2, field="C"))
    marked.validate()
    squares = [(marked.unit(i) * marked.unit(i)).sign_of_identity_multiple() for i in (1, 2, 3)]
    assert squares == [1, -1, -1]


def test_image_is_an_algebra_map():
    sig = SignatureSpec(1, 3)
    basis = build_spinbasis(sig)
    x = MultiVector.blade(sig, (1, 2)) + MultiVector.scalar(sig, "1/2")
    y = MultiVector.blade(sig, (2, 3), I_) - MultiVector.unit(sig, 4)
    assert basis.image(x * y) == basis.image(x) * basis.image(y)
    assert basis.image(MultiVector.scalar(sig, 1)) == SpinMatrix.identity(basis.dim)


# ---------------------------------------------------------------------------
# bundled gamma basis


def test_gamma_basis_loads_and_classifies():
    basis = load_spinbasis("gamma")
    assert (basis.sig.p, basis.sig.q) == (1, 3)
    basis.validate()
    census = basis.unit_census()
    assert (census.v, census.l, census.u, census.m) == (1, 1, 2, 0)
    assert (census.a, census.b) == (1, 3)
    # gamma2 is imaginary symmetric (the printed matrix, not the prose claim)
    c2 = classify_matrix(basis.unit(3))
    assert (c2.reality, c2.symmetry) == ("imaginary", "symmetric")


def test_gamma_basis_sign_flip_still_valid(tmp_path):
    basis = load_spinbasis("gamma")
    flipped = SpinBasis(basis.sig, [basis.mats[0], basis.mats[1], -basis.mats[2], basis.mats[3]])
    path = tmp_path / "flipped.json"
    save_spinbasis(SpinBasis(basis.sig, flipped.mats, name="flipped"), str(path))
    loaded = load_spinbasis(str(path))
    assert loaded.unit_census() == basis.unit_census()


def test_load_rejects_bad_bases(tmp_path):
    basis = load_spinbasis("gamma")
    # an identity "unit" breaks anticommutation
    bad = {
        "name": "bad",
        "p": 1,
        "q": 3,
        "matrices": [SpinMatrix.identity(4).to_lists()] + [m.to_lists() for m in basis.mats[1:]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_spinbasis(str(path))
    # wrong square sign
    bad2 = {
        "name": "bad2",
        "p": 1,
        "q": 3,
        "matrices": [m.to_lists() for m in ([basis.mats[1]] + basis.mats[1:])],
    }
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps(bad2))
    with pytest.raises(ValueError):
        load_spinbasis(str(path2))


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "cannot read basis file"),
        (b"\xff\xfe", "cannot read basis file"),
        (b'{"p": 1,', "is not valid JSON"),
        (b"[1, 3]", "does not hold a JSON object"),
        (b'{"q": 3, "matrices": []}', "lacks 'p'"),
        (b'{"p": 1, "matrices": []}', "lacks 'q'"),
        (b'{"p": 1, "q": 3}', "lacks 'matrices'"),
    ],
    ids=["missing", "undecodable", "invalid-json", "not-an-object", "no-p", "no-q",
         "no-matrices"],
)
def test_load_errors_name_the_source(tmp_path, content, message):
    path = tmp_path / "basis.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValueError, match=message) as info:
        load_spinbasis(str(path))
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# idempotents


def test_radon_hurwitz_values():
    assert [radon_hurwitz_number(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
    assert radon_hurwitz_number(9) == 5
    assert radon_hurwitz_number(-1) == -1
    assert radon_hurwitz_number(-8) == -4


def test_idempotent_rank_examples():
    assert idempotent_rank(1, 0) == 1
    assert idempotent_rank(0, 1) == 0
    assert idempotent_rank(0, 2) == 0
    assert idempotent_rank(2, 0) == 1
    assert idempotent_rank(1, 3) == 1
    assert idempotent_rank(3, 1) == 2


def test_primitive_idempotents_square_and_count():
    for n in range(0, 7):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            lam, masks = primitive_idempotent(sig)
            assert lam * lam == lam
            assert len(masks) == idempotent_rank(sig.p, sig.q)
            # factors commute pairwise and square to +1
            for mask in masks:
                t = MultiVector.from_mask(sig, mask)
                assert t * t == MultiVector.scalar(sig, 1)


def test_primitive_idempotent_example():
    sig = SignatureSpec(1, 0)
    lam, masks = primitive_idempotent(sig)
    expected = (MultiVector.scalar(sig, 1) + MultiVector.unit(sig, 1)) * GaussianScalar.of("1/2")
    assert lam == expected
    assert masks == [0b1]
