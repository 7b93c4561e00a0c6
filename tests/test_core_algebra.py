"""Core multivector arithmetic checks.

The blade product is verified against an independent permutation-sort oracle
before anything else relies on it.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffork.core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    blade_indices,
    blade_mask,
    blade_name,
    blade_product,
    center_basis,
    conjugation_sign,
    format_gaussian,
    involution_sign,
    parse_gaussian,
    reversion_sign,
    volume_element,
    volume_square,
    volume_square_sign,
)


# ---------------------------------------------------------------------------
# oracle: sort the concatenated index list with a bubble sort, counting swaps,
# then contract equal neighbours with the metric


def oracle_blade_product(sig, a, b):
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= sig.metric(seq[i])
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return blade_mask(out), sign


SMALL_SIGS = [SignatureSpec(p, q) for n in range(0, 6) for p in range(n + 1) for q in [n - p]]


@pytest.mark.parametrize("sig", SMALL_SIGS, ids=str)
def test_blade_product_matches_oracle_exhaustively(sig):
    dim = 1 << sig.n
    for a in range(dim):
        for b in range(dim):
            assert blade_product(sig, a, b) == oracle_blade_product(sig, a, b)


@given(
    p=st.integers(0, 8),
    extra=st.integers(0, 8),
    a=st.integers(0, 255),
    b=st.integers(0, 255),
)
def test_blade_product_matches_oracle_random(p, extra, a, b):
    sig = SignatureSpec(p, extra)
    mask = (1 << sig.n) - 1
    a &= mask
    b &= mask
    assert blade_product(sig, a, b) == oracle_blade_product(sig, a, b)


def test_blade_product_examples():
    s20 = SignatureSpec(2, 0)
    assert blade_product(s20, 0b01, 0b01) == (0, 1)
    assert blade_product(s20, 0b01, 0b10) == (0b11, 1)
    assert blade_product(s20, 0b10, 0b01) == (0b11, -1)
    s01 = SignatureSpec(0, 1)
    assert blade_product(s01, 0b1, 0b1) == (0, -1)


def test_blade_product_associativity_spot():
    sig = SignatureSpec(2, 2)
    dim = 1 << sig.n
    for a, b, c in itertools.product(range(dim), repeat=3):
        m1, s1 = blade_product(sig, a, b)
        m1, s1b = blade_product(sig, m1, c)
        m2, s2 = blade_product(sig, b, c)
        m2, s2b = blade_product(sig, a, m2)
        assert (m1, s1 * s1b) == (m2, s2 * s2b)


# ---------------------------------------------------------------------------
# scalars


def test_gaussian_arithmetic():
    i = GaussianScalar.I
    one = GaussianScalar.ONE
    assert i * i == -one
    assert (one + i) * (one - i) == GaussianScalar.of(2)
    assert (one + i).inverse() == GaussianScalar(Fraction(1, 2), Fraction(-1, 2))
    assert i.conjugate() == -i
    with pytest.raises(ZeroDivisionError):
        GaussianScalar.ZERO.inverse()


@given(
    a=st.fractions(max_denominator=50),
    b=st.fractions(max_denominator=50),
)
def test_gaussian_text_round_trip(a, b):
    z = GaussianScalar(a, b)
    assert parse_gaussian(format_gaussian(z)) == z


def test_gaussian_parse_forms():
    assert parse_gaussian("i") == GaussianScalar.I
    assert parse_gaussian("-i") == -GaussianScalar.I
    assert parse_gaussian("2-i") == GaussianScalar(Fraction(2), Fraction(-1))
    assert parse_gaussian("1/2+3/4i") == GaussianScalar(Fraction(1, 2), Fraction(3, 4))
    assert parse_gaussian("-3i") == GaussianScalar(Fraction(0), Fraction(-3))


# ---------------------------------------------------------------------------
# multivector ring structure


def random_mv_strategy(sig):
    dim = 1 << sig.n
    coeff = st.builds(
        GaussianScalar,
        st.fractions(max_denominator=8),
        st.fractions(max_denominator=8),
    )
    return st.dictionaries(st.integers(0, dim - 1), coeff, max_size=4).map(
        lambda d: MultiVector(sig, d)
    )


@given(data=st.data())
@settings(max_examples=60)
def test_multiplication_is_associative_and_distributive(data):
    sig = SignatureSpec(2, 1)
    x = data.draw(random_mv_strategy(sig))
    y = data.draw(random_mv_strategy(sig))
    z = data.draw(random_mv_strategy(sig))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_str_form():
    sig = SignatureSpec(1, 0)
    half = Fraction(1, 2)
    x = MultiVector(sig, {0: GaussianScalar(half), 1: GaussianScalar(half)})
    assert str(x) == "1/2 + 1/2*e1"
    assert str(MultiVector.zero(sig)) == "0"
    y = MultiVector.blade(SignatureSpec(2, 1), (1, 3), -1)
    assert str(y) == "-e13"
    assert blade_name(blade_mask((1, 10))) == "e{1,10}"


# ---------------------------------------------------------------------------
# the involutions: per-blade signs, anti/multiplicativity


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if s.n <= 6], ids=str)
def test_involution_signs_per_blade(sig):
    for mask in range(1 << sig.n):
        x = MultiVector.from_mask(sig, mask)
        k = mask.bit_count()
        assert x.grade_involution() == x * involution_sign(k)
        assert x.reversion() == x * reversion_sign(k)
        assert x.clifford_conjugation() == x * conjugation_sign(k)
        # conjugation is the composite of the other two
        assert x.clifford_conjugation() == x.grade_involution().reversion()


@given(data=st.data())
@settings(max_examples=60)
def test_involution_morphism_laws(data):
    sig = SignatureSpec(1, 2)
    x = data.draw(random_mv_strategy(sig))
    y = data.draw(random_mv_strategy(sig))
    assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()
    assert (x * y).reversion() == y.reversion() * x.reversion()
    assert (x * y).clifford_conjugation() == y.clifford_conjugation() * x.clifford_conjugation()


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if s.n <= 5], ids=str)
def test_pseudo_conjugation_is_multiplicative_on_blades(sig):
    dim = 1 << sig.n
    for a in range(dim):
        for b in range(dim):
            x = MultiVector.from_mask(sig, a, GaussianScalar.I if a & 1 else 1)
            y = MultiVector.from_mask(sig, b)
            assert (x * y).pseudo_conjugation() == x.pseudo_conjugation() * y.pseudo_conjugation()


def test_pseudo_conjugation_details():
    sig = SignatureSpec(1, 1)
    e1 = MultiVector.unit(sig, 1)
    e2 = MultiVector.unit(sig, 2)
    assert e1.pseudo_conjugation() == e1
    assert e2.pseudo_conjugation() == -e2
    ix = e1 * GaussianScalar.I
    assert ix.pseudo_conjugation() == -ix
    # override switches the split point
    assert e2.pseudo_conjugation(positive_count=2) == e2


def test_pseudo_on_volume_element():
    # pseudo(omega) = (-1)^q omega for real coefficients
    for p in range(5):
        for q in range(5):
            if p + q == 0:
                continue
            sig = SignatureSpec(p, q)
            om = volume_element(sig)
            expected = om if q % 2 == 0 else -om
            assert om.pseudo_conjugation() == expected


# ---------------------------------------------------------------------------
# volume element, omega conjugation, center


def test_volume_square_sign_closed_form_matches_product():
    for p in range(9):
        for q in range(9 - p):
            sig = SignatureSpec(p, q)
            assert volume_square(sig) == GaussianScalar.of(volume_square_sign(p, q))


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if s.n % 2 == 0 and s.n > 0], ids=str)
def test_involution_by_omega_agrees(sig):
    for mask in range(1 << sig.n):
        x = MultiVector.from_mask(sig, mask)
        assert x.involution_by_omega() == x.grade_involution()


def test_involution_by_omega_rejects_odd():
    x = MultiVector.unit(SignatureSpec(2, 1), 1)
    with pytest.raises(ValueError):
        x.involution_by_omega()


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if 0 < s.n <= 5], ids=str)
def test_center_is_exactly_the_stated_span(sig):
    # brute force: blades commuting with every generator
    gens = [MultiVector.unit(sig, i) for i in range(1, sig.n + 1)]
    central = [
        m
        for m in range(1 << sig.n)
        if all(
            MultiVector.from_mask(sig, m) * g == g * MultiVector.from_mask(sig, m)
            for g in gens
        )
    ]
    expected = [0] if sig.n % 2 == 0 else [0, (1 << sig.n) - 1]
    assert central == expected
    basis = center_basis(sig)
    assert [sorted(x.items()) for x in basis] == [
        sorted(MultiVector.from_mask(sig, m).items()) for m in expected
    ]


def test_volume_element_commutation_parity():
    # omega commutes with generators iff n odd
    for sig in SMALL_SIGS:
        if sig.n == 0:
            continue
        om = volume_element(sig)
        for i in range(1, sig.n + 1):
            g = MultiVector.unit(sig, i)
            if sig.n % 2:
                assert om * g == g * om
            else:
                assert om * g == -(g * om)


def test_signature_of_passes_a_spec_through_or_builds_one():
    sig = SignatureSpec(1, 3, "C")
    assert SignatureSpec.of(sig) is sig
    assert SignatureSpec.of(1, 3) == SignatureSpec(1, 3)
    with pytest.raises(TypeError):
        SignatureSpec.of(sig, 3)
    with pytest.raises(TypeError):
        SignatureSpec.of(1)
    with pytest.raises(ValueError, match=r"signature \(-1,0\) has a negative count"):
        SignatureSpec.of(-1, 0)


def test_signature_validation():
    with pytest.raises(ValueError):
        SignatureSpec(-1, 2)
    with pytest.raises(ValueError):
        SignatureSpec(1, 1, field="Q")
    sig = SignatureSpec(2, 1)
    assert [sig.metric(i) for i in (1, 2, 3)] == [1, 1, -1]
    with pytest.raises(ValueError):
        sig.metric(4)
    with pytest.raises(ValueError):
        MultiVector(sig, {1 << 5: GaussianScalar.ONE})
