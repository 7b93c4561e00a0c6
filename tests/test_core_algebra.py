"""Core multivector arithmetic checks.

The blade product is verified against an independent permutation-sort oracle
before anything else relies on it, and against the bit-walking loop its row
masks replaced.  Gaussian scalars and multivector products are checked
against a plain reference on (Fraction, Fraction) pairs, the exact
arithmetic the int-backed canonical form replaces.
"""

import copy
import itertools
import pickle
import re
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
    blade_row,
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
from cliffork.spinor_repr import SpinMatrix

from blade_oracle import loop_blade_product, oracle_blade_product


SMALL_SIGS = [SignatureSpec(p, q) for n in range(0, 6) for p in range(n + 1) for q in [n - p]]
# up to n = 6, the bound the core and salingaros suites run at
SIGS_TO_SIX = SMALL_SIGS + [SignatureSpec(p, 6 - p) for p in range(7)]


@pytest.mark.parametrize("sig", SIGS_TO_SIX, ids=str)
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


# every p at n = 7, and at n = 8 the two ends and a middle
LOOP_SIGS = [SignatureSpec(p, 7 - p) for p in range(8)] + [
    SignatureSpec(p, 8 - p) for p in (0, 3, 8)]


@pytest.mark.parametrize("sig", LOOP_SIGS, ids=str)
def test_blade_product_matches_the_loop_it_replaced(sig):
    dim = 1 << sig.n
    for a in range(dim):
        want = [loop_blade_product(sig, a, b) for b in range(dim)]
        assert [blade_product(sig, a, b) for b in range(dim)] == want
        assert blade_row(sig, a) == want
    assert len(sig._rows) == dim


def test_row_masks_are_not_shared_between_signatures():
    # alternating calls on the same masks: a memo keyed by mask alone, or
    # shared between equal-width signatures, gives one of them wrong signs
    sigs = (SignatureSpec(2, 3), SignatureSpec(4, 1), SignatureSpec(2, 3, "C"),
            SignatureSpec(2, 3))
    for a in range(32):
        for b in range(32):
            for sig in sigs:
                assert blade_product(sig, a, b) == loop_blade_product(sig, a, b)
    assert blade_product(sigs[0], 0b10000, 0b10000) == (0, -1)
    assert blade_product(sigs[1], 0b01000, 0b01000) == (0, 1)


def test_blade_helpers_reject_masks_outside_the_signature():
    sig = SignatureSpec(2, 1)
    blade_product(sig, 1, 1)  # the row of 1 is in the memo from here on
    # a negative or too wide mask on either side, e4 included, which Cl(2,1)
    # does not have
    for a, b, bad in ((-1, 1, -1), (1, -1, -1), (0b1000, 0b1000, 0b1000),
                      (1, 0b1000, 0b1000), (0b1000, 1, 0b1000), (7, 1 << 70, 1 << 70)):
        with pytest.raises(ValueError, match=rf"^blade mask {bad} is not a blade of Cl\(2,1\)$"):
            blade_product(sig, a, b)
    with pytest.raises(ValueError, match=r"blade mask 8 is not a blade of C\(3\|2,1\)"):
        blade_row(SignatureSpec(2, 1, "C"), 8)
    # a mask that is not an int, on either side, even one equal to an int
    for mask in (1.0, 1.5, True, Fraction(1), "1", None):
        for a, b in ((mask, 1), (1, mask)):
            with pytest.raises(TypeError, match=re.escape(f"blade mask {mask!r} is not an int")):
                blade_product(sig, a, b)
        with pytest.raises(TypeError, match=re.escape(f"blade mask {mask!r} is not an int")):
            blade_row(sig, mask)
        with pytest.raises(TypeError, match=re.escape(f"blade mask {mask!r} is not an int")):
            blade_name(mask)
    assert sorted(sig._rows) == [1, 7]  # only blades of Cl(2,1) enter the memo
    # a generator index that is not an int, even one equal to an int
    for index in (2.5, 2.0, True, Fraction(1), "1", None):
        message = re.escape(f"generator index {index!r} is not an int")
        for call in (lambda: blade_mask([index]), lambda: blade_mask([1, index]),
                     lambda: sig.metric(index), lambda: MultiVector.unit(sig, index)):
            with pytest.raises(TypeError, match=message):
                call()
    # a negative mask has no generator indices
    for mask in (-1, -2):
        with pytest.raises(ValueError, match=f"^blade mask {mask} is negative$"):
            blade_indices(mask)
        with pytest.raises(ValueError, match=f"^blade mask {mask} is negative$"):
            blade_name(mask)
    with pytest.raises(TypeError, match="blade mask 1.5 is not an int"):
        blade_indices(1.5)
    assert (blade_indices(0), blade_name(0), blade_name(0b101)) == ((), "1", "e13")
    # the empty signature has one blade
    empty = SignatureSpec(0, 0)
    assert blade_product(empty, 0, 0) == (0, 1) and blade_row(empty, 0) == [(0, 1)]
    with pytest.raises(ValueError, match=r"blade mask 1 is not a blade of Cl\(0,0\)"):
        blade_product(empty, 0, 1)


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


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0i", "2+1/0i", "1/0-i", " 1/0 "])
def test_zero_denominator_is_a_value_error_naming_the_text(text):
    message = f"^zero denominator in scalar text {re.escape(repr(text))}$"
    with pytest.raises(ValueError, match=message):
        parse_gaussian(text)
    if not text.endswith("i"):
        with pytest.raises(ValueError, match=message):
            GaussianScalar(text)
        with pytest.raises(ValueError, match=message):
            GaussianScalar(0, text)
        with pytest.raises(ValueError, match=message):
            GaussianScalar.of(text)


@pytest.mark.parametrize("text", ["", "x", "2+yi", "1/", "1.5.2"])
def test_other_malformed_scalar_text_is_a_value_error(text):
    with pytest.raises(ValueError):
        parse_gaussian(text)


def test_scalar_on_the_left_defers_to_the_other_operand():
    i = GaussianScalar.I
    m = SpinMatrix([[0, 1], [-1, 0]])
    assert i * m == m * i == SpinMatrix([[0, i], [-i, 0]])
    x = MultiVector.unit(SignatureSpec(1, 1), 2)
    assert i * x == x * i
    assert (i * x).coeff(0b10) == i
    assert i + x == x + i
    assert (i + x).scalar_part() == i


@pytest.mark.parametrize("other", [SpinMatrix.identity(2), MultiVector.scalar(SignatureSpec(1, 0), 1),
                                   0.5, object()], ids=lambda o: type(o).__name__)
def test_of_rejects_what_is_not_a_rational_or_a_scalar(other):
    with pytest.raises(TypeError):
        GaussianScalar.of(other)
    if not isinstance(other, (SpinMatrix, MultiVector)):
        with pytest.raises(TypeError):
            GaussianScalar.I * other
        with pytest.raises(TypeError):
            GaussianScalar.I + other


# ---------------------------------------------------------------------------
# the int-backed canonical form against a plain (Fraction, Fraction) reference


def is_canonical(z):
    """re and im are ints exactly when integral, Fractions otherwise."""
    return all(type(v) is (int if Fraction(v).denominator == 1 else Fraction)
               for v in (z.re, z.im))


def ref(z):
    return Fraction(z.re), Fraction(z.im)


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_neg(a):
    return -a[0], -a[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_inverse(a):
    d = a[0] * a[0] + a[1] * a[1]
    return a[0] / d, -a[1] / d


def ref_format(a):
    re, im = a
    if im == 0:
        return str(re)
    imtxt = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return imtxt
    return f"{re}{'+' if im > 0 else ''}{imtxt}"


RATIONALS = st.one_of(st.integers(-12, 12), st.fractions(max_denominator=8))
SCALARS = st.builds(GaussianScalar, RATIONALS, RATIONALS)


@given(x=SCALARS, y=SCALARS, r=RATIONALS)
def test_scalar_kernel_matches_fraction_pair_reference(x, y, r):
    a, b = ref(x), ref(y)
    rr = (Fraction(r), Fraction(0))
    results = [
        (x + y, ref_add(a, b)),
        (x - y, ref_add(a, ref_neg(b))),
        (x * y, ref_mul(a, b)),
        (-x, ref_neg(a)),
        (x.conjugate(), (a[0], -a[1])),
        (x + r, ref_add(a, rr)),
        (r + x, ref_add(a, rr)),
        (r - x, ref_add(rr, ref_neg(a))),
        (x * r, ref_mul(a, rr)),
        (r * x, ref_mul(a, rr)),
    ]
    if y:
        results += [(y.inverse(), ref_inverse(b)), (x / y, ref_mul(a, ref_inverse(b)))]
    for got, want in results:
        assert ref(got) == want
        assert is_canonical(got)
    assert (x == y) == (a == b)
    assert hash(x) == hash(a)
    assert bool(x) == (a != (0, 0))


@given(x=SCALARS)
def test_text_round_trip_matches_fraction_pair_reference(x):
    text = format_gaussian(x)
    assert text == ref_format(ref(x))
    back = parse_gaussian(text)
    assert back == x
    assert (type(back.re), type(back.im)) == (type(x.re), type(x.im))


def test_canonical_form_on_results_that_land_on_integers():
    half = GaussianScalar(Fraction(1, 2))
    one_plus_i = GaussianScalar(1, 1)
    cases = {
        "half plus half": half + half,
        "(1+i)(1+i)/2": one_plus_i * one_plus_i / 2,
        "inverse of i": GaussianScalar.I.inverse(),
        "Fraction(4, 2)": GaussianScalar(Fraction(4, 2)),
        "half times two": half * 2,
    }
    for name, z in cases.items():
        assert (type(z.re), type(z.im)) == (int, int), name
    assert half + half == GaussianScalar.ONE
    assert one_plus_i * one_plus_i / 2 == GaussianScalar.I
    assert GaussianScalar.I.inverse() == -GaussianScalar.I
    assert type(half.re) is Fraction and type(half.im) is int
    three = parse_gaussian("3/1")
    assert three == GaussianScalar.of(3)
    assert (type(three.re), type(three.im)) == (int, int)
    assert type(GaussianScalar(True).re) is int


def ref_multivector(x):
    return {m: ref(c) for m, c in x.items()}


def ref_mv_product(sig, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mask, sign = oracle_blade_product(sig, ma, mb)
            term = ref_mul(ca, cb)
            out[mask] = ref_add(out.get(mask, (0, 0)), term if sign > 0 else ref_neg(term))
    return {m: c for m, c in out.items() if c != (0, 0)}


def ref_mv_sum(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = ref_add(out.get(m, (0, 0)), c)
    return {m: c for m, c in out.items() if c != (0, 0)}


def ref_blade_signs(sig, m, which):
    k = m.bit_count()
    if which == "grade":
        return -1 if k % 2 else 1
    if which == "reversion":
        return -1 if (k * (k - 1) // 2) % 2 else 1
    if which == "clifford":
        return -1 if (k * (k + 1) // 2) % 2 else 1
    negatives = sum(1 for i in blade_indices(m) if sig.metric(i) < 0)
    return -1 if negatives % 2 else 1


@st.composite
def small_multivectors(draw, count=2, terms=None):
    """count multivectors of one signature with p+q <= 4, each with up to
    5 terms, or with exactly `terms` nonzero terms when that is given."""
    n = draw(st.integers(0, 4))
    p = draw(st.integers(0, n))
    sig = SignatureSpec(p, n - p)
    masks = st.integers(0, (1 << n) - 1)
    scalars = st.builds(GaussianScalar, st.fractions(max_denominator=8),
                        st.fractions(max_denominator=8))
    if terms is None:
        coeffs = st.dictionaries(masks, scalars, max_size=5)
    else:
        coeffs = st.dictionaries(masks, scalars.filter(bool), min_size=terms, max_size=terms)
    return sig, [MultiVector(sig, draw(coeffs)) for _ in range(count)]


@given(data=small_multivectors())
@settings(max_examples=150)
def test_multivector_kernel_matches_fraction_pair_reference(data):
    sig, (x, y) = data
    a, b = ref_multivector(x), ref_multivector(y)
    assert all(c != (0, 0) for c in a.values())
    results = [
        (x * y, ref_mv_product(sig, a, b)),
        (x + y, ref_mv_sum(a, b)),
        (x - y, ref_mv_sum(a, {m: ref_neg(c) for m, c in b.items()})),
        (-x, {m: ref_neg(c) for m, c in a.items()}),
    ]
    for method, which in [(MultiVector.grade_involution, "grade"),
                          (MultiVector.reversion, "reversion"),
                          (MultiVector.clifford_conjugation, "clifford")]:
        results.append((method(x), {m: c if ref_blade_signs(sig, m, which) > 0 else ref_neg(c)
                                    for m, c in a.items()}))
    results.append((x.pseudo_conjugation(),
                    {m: (c[0], -c[1]) if ref_blade_signs(sig, m, "pseudo") > 0
                     else (-c[0], c[1]) for m, c in a.items()}))
    results.append((x.complex_conjugation(), {m: (c[0], -c[1]) for m, c in a.items()}))
    w = (Fraction(3, 2), Fraction(-1))
    results += [(x * GaussianScalar(*w), {m: ref_mul(c, w) for m, c in a.items()}),
                (Fraction(-1, 2) * x, {m: ref_mul(c, (Fraction(-1, 2), 0)) for m, c in a.items()}),
                (x * 0, {})]
    for got, want in results:
        assert ref_multivector(got) == want
        assert all(is_canonical(c) for _, c in got.items())
        assert_same_value(got, MultiVector(sig, {m: GaussianScalar(*c) for m, c in want.items()}))
    assert (x == y) == (a == b)


def assert_same_value(x, y):
    """x and y agree on everything a caller can read."""
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert dict(x.items()) == dict(y.items())
    assert all(x.coeff(m) == y.coeff(m) for m in range(1 << x.sig.n))
    assert str(x) == str(y)


def one_term_routes(sig, mask, coeff):
    """The one-term value coeff * e_mask, built by every route that makes one:
    the constructor, from_mask, a blade product, a sum that cancels down to
    one term, negation and scalar multiples from either side."""
    blade = MultiVector.from_mask(sig, mask)
    other = MultiVector.from_mask(sig, (mask + 1) % (1 << sig.n), GaussianScalar(2, -1))
    x = MultiVector(sig, {mask: coeff})
    return [
        x,
        MultiVector.from_mask(sig, mask, coeff),
        MultiVector.scalar(sig, coeff) * blade,
        blade * MultiVector.scalar(sig, coeff),
        (x + other) - other,
        -(-x),
        -MultiVector(sig, {mask: -coeff}),
        (x * GaussianScalar.I) * -GaussianScalar.I,
        Fraction(1, 3) * (3 * x),
        blade * coeff,
    ]


@given(data=small_multivectors(count=3, terms=1))
@settings(max_examples=150)
def test_single_term_products_match_fraction_pair_reference(data):
    sig, (x, y, z) = data
    a, b, c = ref_multivector(x), ref_multivector(y), ref_multivector(z)
    for got, want in [(x * y, ref_mv_product(sig, a, b)),
                      (y * x, ref_mv_product(sig, b, a)),
                      ((x * y) * z, ref_mv_product(sig, ref_mv_product(sig, a, b), c)),
                      (x * (y * z), ref_mv_product(sig, a, ref_mv_product(sig, b, c)))]:
        assert ref_multivector(got) == want
        assert len(want) == 1
        assert all(is_canonical(v) for _, v in got.items())
    ((mask, coeff),) = x.items()
    routes = one_term_routes(sig, mask, coeff)
    for route in routes:
        assert ref_multivector(route) == a
        assert all(is_canonical(v) for _, v in route.items())
        assert_same_value(route, x)
        assert_same_value(route * y, x * y)
        assert_same_value(y * route, y * x)
    assert len(set(routes)) == 1


# every coefficient pair from these, on every pair of blades
BLADE_COEFFS = [GaussianScalar(1), GaussianScalar(-1), GaussianScalar.I, -GaussianScalar.I,
                GaussianScalar(Fraction(1, 2)), GaussianScalar(Fraction(3, 2), Fraction(-1, 2))]


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if s.n <= 4], ids=str)
def test_single_blade_products_match_reference_exhaustively(sig):
    blades = [MultiVector.from_mask(sig, m, c) for m in range(1 << sig.n) for c in BLADE_COEFFS]
    refs = [ref_multivector(x) for x in blades]
    for x, a in zip(blades, refs):
        for y, b in zip(blades, refs):
            got = x * y
            want = ref_mv_product(sig, a, b)
            assert ref_multivector(got) == want
            assert all(is_canonical(v) for _, v in got.items())
            ((mask, c),) = want.items()
            built = MultiVector(sig, {mask: GaussianScalar(*c)})
            assert got == built and hash(got) == hash(built) and str(got) == str(built)


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
    assert str(MultiVector(sig, {})) == "0"
    y = MultiVector.from_mask(SignatureSpec(2, 1), blade_mask((1, 3)), -1)
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
    # counts reach the constructor as given: 1.5 is not truncated to 1
    with pytest.raises(TypeError, match="signature count p must be an int"):
        SignatureSpec.of(1.5, 2)
    with pytest.raises(TypeError, match="signature count q must be an int"):
        SignatureSpec.of(1, "3")


def test_scalar_and_signature_are_immutable_value_records():
    z, sig = GaussianScalar("1/2", 3), SignatureSpec(1, 3)
    # the row masks that products leave in the memo change none of the below
    for a in range(16):
        blade_product(sig, a, 15 - a)
    assert volume_square(sig) == GaussianScalar(-1)
    assert len(sig._rows) == 16
    assert pickle.dumps(sig) == pickle.dumps(SignatureSpec(1, 3))
    assert copy.copy(sig)._rows == {} and copy.deepcopy(sig)._rows == {}
    assert repr(sig) == "SignatureSpec(p=1, q=3, field='R')" and str(sig) == "Cl(1,3)"
    # equal and hashed by value, and never equal to another type
    assert z == GaussianScalar(Fraction(1, 2), Fraction(6, 2)) and z != GaussianScalar("1/2")
    assert hash(z) == hash(GaussianScalar(Fraction(1, 2), 3))
    assert hash(GaussianScalar(Fraction(4, 2))) == hash(GaussianScalar(2)) == hash((2, 0))
    assert GaussianScalar(1) != 1 and z != ("1/2", 3)
    assert z.__eq__(1) is NotImplemented
    assert sig == SignatureSpec(p=1, q=3, field="R") and hash(sig) == hash((1, 3, "R"))
    assert sig != SignatureSpec(1, 3, "C") and sig != (1, 3, "R") and sig != (1, 3)
    assert sig.__eq__((1, 3, "R")) is NotImplemented
    assert {sig: "x"}[SignatureSpec(1, 3)] == "x"
    # immutable, with no room for other attributes
    for record, name in ((z, "re"), (z, "im"), (sig, "p"), (sig, "q"), (sig, "field"),
                         (sig, "_rows")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    for record in (z, sig):
        with pytest.raises(AttributeError):
            record.other = 0
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    assert (z.re, z.im, sig.p, sig.q, sig.field) == (Fraction(1, 2), 3, 1, 3, "R")
    assert repr(z) == "GaussianScalar('1/2+3i')"
    assert repr(SignatureSpec(2, 0, "C")) == "SignatureSpec(p=2, q=0, field='C')"
    # validation, with the messages the CLI prints
    with pytest.raises(ValueError, match=r"^signature \(2,-1\) has a negative count$"):
        SignatureSpec(2, -1)
    with pytest.raises(ValueError, match=r"^field must be 'R' or 'C', got 'Q'$"):
        SignatureSpec(1, 1, field="Q")
    with pytest.raises(TypeError, match="cannot build an exact rational from float"):
        GaussianScalar(0.5)
    with pytest.raises(ValueError, match="zero denominator"):
        GaussianScalar(0, "3/0")


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
    # a mask that is not an int, even one equal to an int, is not stored
    for mask in (1.0, 1.5, True, Fraction(1), "1"):
        with pytest.raises(TypeError, match=re.escape(f"blade mask {mask!r}")):
            MultiVector(sig, {mask: 1})
    # a count that is not an int, bools included, fails on entry
    for p, q, field in ((1.5, 2, "p"), (2.0, 0, "p"), ("1", 3, "p"), (True, 1, "p"),
                        (1, 2.0, "q"), (0, False, "q")):
        with pytest.raises(TypeError, match=f"signature count {field} must be an int"):
            SignatureSpec(p, q)
