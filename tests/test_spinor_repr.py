"""Spinor basis construction and exact matrix checks."""

import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from cliffork import spinor_repr
from cliffork.classification import matrix_dimension, type_index
from cliffork.core_algebra import GaussianScalar, SignatureSpec, blade_indices, parse_gaussian
from cliffork.ext_automorphisms import ext_matrices
from cliffork.spinor_repr import (
    MAX_SPINOR_DIM,
    SpinBasis,
    SpinMatrix,
    _dense_product,
    build_spinbasis,
    check_spinor_size,
    classify_matrix,
    load_spinbasis,
    quaternionic_splits,
    save_spinbasis,
    sweep_spinbasis_variants,
)
from kron_oracle import (
    MAT_A,
    MAT_B,
    MAT_J,
    kron,
    oracle_build_spinbasis,
    oracle_sweep_spinbasis_variants,
)
from monomial_oracle import MonomialMatrix
from monomial_oracle import _dense_product as oracle_dense_product
from monomial_oracle import classify_matrix as monomial_class

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
    mixed = SpinMatrix([[1, I_], [-I_, -1]])  # MAT_A + i MAT_J
    assert classify_matrix(mixed).reality == "mixed"
    assert classify_matrix(mixed).symmetry == "mixed"
    assert classify_matrix(SpinMatrix([[0, 0], [0, 0]])).reality == "zero"


def test_matrix_scalar_detection():
    assert (MAT_J * MAT_J).sign_of_identity_multiple() == -1
    assert MAT_A.scalar_multiple_of_identity() is None
    with pytest.raises(ValueError):
        MAT_B.sign_of_identity_multiple()


def test_matrix_serialization_round_trip():
    m = MAT_J * I_
    assert SpinMatrix([[parse_gaussian(x) for x in row] for row in m.to_lists()]) == m


# ---------------------------------------------------------------------------
# the word kernel against plain dense arithmetic on .rows

ZERO, ONE = GaussianScalar.ZERO, GaussianScalar.ONE
UNITS = (ONE, I_, -ONE, -I_)  # i^k
# the 2x2 Pauli words Z^z X^x: I, X, Z, ZX
PAULI_2 = (((ONE, ZERO), (ZERO, ONE)), ((ZERO, ONE), (ONE, ZERO)),
           ((ONE, ZERO), (ZERO, -ONE)), ((ZERO, ONE), (-ONE, ZERO)))


def ref_mul(x, y):
    n = len(x)
    out = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if x[r][k]:
                for c in range(n):
                    out[r][c] = out[r][c] + x[r][k] * y[k][c]
    return tuple(map(tuple, out))


def ref_kron(x, y):
    return tuple(tuple(a * b for a in r1 for b in r2) for r1 in x for r2 in y)


def ref_map(f, x):
    return tuple(tuple(f(a) for a in row) for row in x)


def ref_transpose(x):
    return tuple(zip(*x))


def ref_scalar_of_identity(x):
    c = x[0][0]
    ok = all(a == (c if i == j else ZERO) for i, row in enumerate(x) for j, a in enumerate(row))
    return c if ok else None


def ref_word(x):
    """(d, c, s, z) when the entries x are the word i^c Z^z X^s, from the
    definition (row r holds i^c (-1)^|r & z| in column r ^ s) by a search
    over c and z; None when x is no word."""
    d = len(x)
    if not d or d & (d - 1) or any(sum(1 for a in row if a) != 1 for row in x):
        return None
    s = next(col for col, a in enumerate(x[0]) if a)  # row 0 holds i^c in column s
    for c, z in itertools.product(range(4), range(d)):
        if all(x[r][r ^ s] == UNITS[(c + 2 * bin(r & z).count("1")) % 4] for r in range(d)):
            return d, c, s, z
    return None


def ref_class(x):
    entries = [a for row in x for a in row if a]
    if all(a.im == 0 for a in entries):
        reality = "real"
    elif all(a.re == 0 for a in entries):
        reality = "imaginary"
    else:
        reality = "mixed"
    t = ref_transpose(x)
    if t == x:
        symmetry = "symmetric"
    elif t == ref_map(lambda a: -a, x):
        symmetry = "skew"
    else:
        symmetry = "mixed"
    return reality, symmetry


def assert_matches(m, ref):
    """m has the reference entries and is the canonical matrix for them."""
    assert m.rows == ref
    rebuilt = SpinMatrix(ref)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert m.word == rebuilt.word == ref_word(ref)


@functools.cache
def kernel_bases():
    """Bases of dimension 2..16: every constructible real signature with
    2 <= p+q <= 9 (quaternionic split variants and their tweaks included),
    plus a complex basis and a marked complex basis per p+q."""
    out = []
    for n in range(2, 10):
        for p in range(n + 1):
            if (2 * p - n) % 8 not in (1, 5):
                out += sweep_spinbasis_variants(SignatureSpec(p, n - p))
        out.append(build_spinbasis(SignatureSpec(n, 0, field="C")))
        out.append(build_spinbasis(SignatureSpec(n // 2, n - n // 2, field="C")))
    return out


def test_kernel_bases_cover_dimensions_two_to_sixteen():
    bases = kernel_bases()
    assert {b.dim for b in bases} == {2, 4, 8, 16}
    assert any(",flipped" in b.name for b in bases)
    assert any(b.sig.field == "C" for b in bases)
    assert all(m.word is not None for b in bases for m in b.mats)


WORD_OPS = ("mul", "lmul", "neg", "conj", "transpose", "scale", "rscale")


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_unit_words_match_dense_reference(data):
    basis = data.draw(st.sampled_from(kernel_bases()), label="basis")
    units = st.integers(1, basis.sig.n)
    m = basis.unit(data.draw(units))
    ref = m.rows
    for op in data.draw(st.lists(st.sampled_from(WORD_OPS), max_size=8), label="word"):
        if op in ("mul", "lmul"):
            u = basis.unit(data.draw(units))
            if op == "mul":
                m, ref = m * u, ref_mul(ref, u.rows)
            else:
                m, ref = u * m, ref_mul(u.rows, ref)
        elif op == "neg":
            m, ref = -m, ref_map(lambda a: -a, ref)
        elif op == "conj":
            m, ref = m.conj(), ref_map(lambda a: a.conjugate(), ref)
        elif op == "transpose":
            m, ref = m.transpose(), ref_transpose(ref)
        elif op == "scale":
            c = UNITS[data.draw(st.integers(0, 3))]
            m, ref = m * c, ref_map(lambda a: a * c, ref)
        else:  # a GaussianScalar on the left does not defer, so ints here
            c = data.draw(st.sampled_from([1, -1]))
            m, ref = c * m, ref_map(lambda a: a * c, ref)
        assert_matches(m, ref)
    assert m.word is not None
    assert m.scalar_multiple_of_identity() == ref_scalar_of_identity(ref)
    c = classify_matrix(m)
    assert (c.reality, c.symmetry) == ref_class(ref)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_word_kernel_matches_the_monomial_oracle(data):
    basis = data.draw(st.sampled_from(kernel_bases()), label="basis")
    units = st.integers(1, basis.sig.n)
    m = basis.unit(data.draw(units))
    pairs = [(m, MonomialMatrix(m.rows))]
    for op in data.draw(st.lists(st.sampled_from(WORD_OPS), max_size=8), label="word"):
        m, o = pairs[-1]
        if op in ("mul", "lmul"):
            u = basis.unit(data.draw(units))
            v = MonomialMatrix(u.rows)
            m, o = (m * u, o * v) if op == "mul" else (u * m, v * o)
        elif op == "neg":
            m, o = -m, -o
        elif op == "conj":
            m, o = m.conj(), o.conj()
        elif op == "transpose":
            m, o = m.transpose(), o.transpose()
        elif op == "scale":
            c = UNITS[data.draw(st.integers(0, 3))]
            m, o = m * c, o * c
        else:
            c = data.draw(st.sampled_from([1, -1]))
            m, o = c * m, c * o
        pairs.append((m, o))
    for m, o in pairs:
        assert m.word is not None and o.perm is not None
        assert m.rows == o.rows
        assert m.scalar_multiple_of_identity() == o.scalar_multiple_of_identity()
        c = classify_matrix(m)
        assert (c.reality, c.symmetry) == monomial_class(o)
    for (m1, o1), (m2, o2) in itertools.product(pairs, repeat=2):
        assert (m1 == m2) == (o1 == o2)
        if o1 == o2:
            assert hash(m1) == hash(m2)


@st.composite
def monomials(draw, d):
    """Any monomial matrix with unit entries, not only products of units
    (whose permutations all commute): most are not words, and land in the
    dense form.  When d is a power of two, half of them are words i^c Z^z X^x
    built as a kron of 2x2 factors Z^z_j X^x_j."""
    if d & (d - 1) == 0 and draw(st.booleans()):
        rows = ((UNITS[draw(st.integers(0, 3))],),)
        for _ in range(d.bit_length() - 1):
            rows = ref_kron(rows, draw(st.sampled_from(PAULI_2)))
        return SpinMatrix(rows)
    perm = draw(st.permutations(range(d)))
    phase = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    return SpinMatrix([[UNITS[k] if c == col else 0 for c in range(d)]
                       for col, k in zip(perm, phase)])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_general_monomials_match_dense_reference(data):
    d = data.draw(st.integers(1, 8))
    a, b = data.draw(monomials(d)), data.draw(monomials(d))
    assert a.word == ref_word(a.rows)
    assert_matches(a * b, ref_mul(a.rows, b.rows))
    assert_matches(a.transpose().conj(), ref_map(lambda x: x.conjugate(), ref_transpose(a.rows)))


# a real symmetric unit that is not monomial
R = SpinMatrix([["3/5", "4/5"], ["4/5", "-3/5"]])


def test_dense_product_landing_on_identity_is_canonical():
    assert R.word is None
    ident = SpinMatrix.identity(2)
    assert R * R == ident and hash(R * R) == hash(ident)
    assert (R * R).word == (2, 0, 0, 0)
    assert (R * R).sign_of_identity_multiple() == 1
    assert R != ident and R * MAT_J != MAT_J
    assert classify_matrix(R) == classify_matrix(MAT_A)
    # SpinMatrix(rows) of a word picks the word form: row 0 holds -1 = i^2
    # in column 1, so c = 2 and x = 1, and row 1 holds i^2 (-1)^z = +1
    assert SpinMatrix([[0, "-1"], [1, 0]]).word == (2, 2, 1, 1) == (-MAT_J).word
    # a monomial mixing real and imaginary entries is not a word
    assert SpinMatrix([[0, "-1"], [I_, 0]]).word is None
    assert SpinMatrix([[2, 0], [0, 2]]).word is None
    assert SpinMatrix([[1, 0], [1, 0]]).word is None


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dense_path_matches_reference_and_lands_canonically(data):
    basis = data.draw(st.sampled_from(kernel_bases()), label="basis")
    m = basis.product_of(data.draw(st.lists(st.integers(1, basis.sig.n), min_size=1, max_size=5)))
    rd = kron(R, SpinMatrix.identity(basis.dim // 2))  # dense, squares to +I
    assert rd.word is None
    assert_matches(rd * m, ref_mul(rd.rows, m.rows))
    assert_matches(m * rd, ref_mul(m.rows, rd.rows))
    assert_matches(-rd, ref_map(lambda a: -a, rd.rows))
    assert_matches(rd.transpose().conj(), ref_transpose(rd.rows))
    # dense results that land on a monomial compare and hash like it
    wide = kron(m, SpinMatrix.identity(2))
    for back, want in ((rd * (rd * m), m), ((m * rd) * rd, m),
                       ((m * 2) * GaussianScalar.of("1/2"), m),
                       (kron(m, R) * kron(SpinMatrix.identity(basis.dim), R), wide)):
        assert back.word is not None
        assert back == want and hash(back) == hash(want)


# entries with zeros of both kinds: the shared ZERO that word rows hold, and
# zeros of their own, as arithmetic leaves them
SCALARS = st.one_of(
    st.just(GaussianScalar.ZERO),
    st.builds(GaussianScalar, st.just(0)),
    st.builds(GaussianScalar, st.fractions(-2, 2, max_denominator=4), st.integers(-2, 2)),
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dense_product_matches_the_oracle_copy(data):
    d = data.draw(st.integers(1, 6), label="d")
    a, b = (data.draw(st.lists(st.lists(SCALARS, min_size=d, max_size=d), min_size=d, max_size=d))
            for _ in range(2))
    assert _dense_product(a, b) == oracle_dense_product(a, b)


def test_identity_of_a_size_that_is_not_a_power_of_two_is_dense():
    for n in (3, 5, 6):
        ident = SpinMatrix.identity(n)
        assert ident.word is None and ident.dim == n
        assert ident.rows == tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        assert ident * ident == ident and -ident * -ident == ident
        assert ident.scalar_multiple_of_identity() == ONE
        assert (ident * I_).transpose().conj() == -(ident * I_)
    assert SpinMatrix.identity(4).word == (4, 0, 0, 0)


def test_every_built_unit_and_ext_matrix_is_a_word():
    """A builder that silently falls to the dense form fails here, instead
    of only slowing the sweeps: every unit and W..F of every swept basis
    with p+q <= 10, and every unit and W..F of every complex mark with
    p+q <= 12."""
    bases = [basis for n in range(11) for p in range(n + 1) if (2 * p - n) % 8 not in (1, 5)
             for basis in sweep_spinbasis_variants(SignatureSpec(p, n - p))]
    bases += [build_spinbasis(SignatureSpec(p, n - p, field="C"))
              for n in range(13) for p in range(n + 1)]
    mats = [m for basis in bases for m in basis.mats]
    mats += [m.matrix for basis in bases if basis.sig.n % 2 == 0
             for m in ext_matrices(basis).values()]
    assert len(mats) == 7897
    assert [m for m in mats if m.word is None] == []


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


def test_size_limit_names_itself():
    check_spinor_size(25)
    assert MAX_SPINOR_DIM == 1 << 12
    for sig in (SignatureSpec(26, 0), SignatureSpec(13, 14, field="C")):
        with pytest.raises(ValueError, match="above the limit MAX_SPINOR_DIM = 4096"):
            build_spinbasis(sig)


def _bases_or_error(route, sig):
    """(name, unit words) of each basis the route builds for sig, or the
    text of the ValueError it raises."""
    try:
        out = route(sig)
    except ValueError as exc:
        return str(exc)
    return [(b.name, [m.word for m in b.mats]) for b in (out if isinstance(out, list) else [out])]


def test_word_constructors_match_the_kron_oracle():
    """Every basis both constructors build, for every cell with p+q <= 16
    in both fields (complex marks, odd cells and the rejected semi-simple
    types included), is the matrix route's, unit word by unit word and
    name by name."""
    built = 0
    for field in ("R", "C"):
        for n in range(17):
            for p in range(n + 1):
                sig = SignatureSpec(p, n - p, field=field)
                for route, oracle in ((build_spinbasis, oracle_build_spinbasis),
                                      (sweep_spinbasis_variants, oracle_sweep_spinbasis_variants)):
                    got = _bases_or_error(route, sig)
                    assert got == _bases_or_error(oracle, sig), (sig, route.__name__)
                    built += len(got) if isinstance(got, list) else 0
    assert built == 2480


def test_sweep_builds_one_reference_per_split_signature(monkeypatch):
    calls = []
    real_words = spinor_repr._real_words
    monkeypatch.setattr(spinor_repr, "_real_words",
                        lambda r, s: calls.append((r, s)) or real_words(r, s))
    for sig, splits, refs in ((SignatureSpec(1, 3), 4, [(3, 1), (2, 2)]),
                              (SignatureSpec(2, 4), 7, [(4, 2), (3, 3), (0, 6)])):
        assert len(quaternionic_splits(sig.p, sig.q)) == splits
        for _ in range(2):  # no memo outlives a call: the second builds again
            calls.clear()
            assert len(sweep_spinbasis_variants(sig)) == 3 * splits
            assert calls == refs
    with pytest.raises(ValueError, match="above the limit MAX_SPINOR_DIM = 4096"):
        sweep_spinbasis_variants(SignatureSpec(15, 11))
    assert calls == refs  # the size check comes before any build


def test_construction_makes_no_matrix_product(monkeypatch):
    """Every basis of every constructible cell with p+q <= 12, the 756
    sweep bases included, is built on the word ints alone."""
    products = []
    mul = SpinMatrix.__mul__
    monkeypatch.setattr(SpinMatrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    bases = [basis for n in range(13) for p in range(n + 1) for field in ("R", "C")
             if field == "C" or (2 * p - n) % 8 not in (1, 5)
             for basis in sweep_spinbasis_variants(SignatureSpec(p, n - p, field=field))]
    assert sum(",flipped" in basis.name for basis in bases) == 252
    assert products == []
    bases[-1].unit(1) * bases[-1].unit(1)
    assert products == [1]  # the counter sees a product


def test_semi_simple_types_rejected():
    for sig in (SignatureSpec(1, 0), SignatureSpec(0, 3), SignatureSpec(4, 3)):
        with pytest.raises(ValueError):
            build_spinbasis(sig)


@pytest.mark.parametrize("sig", [s for s in CONSTRUCTIBLE if s.n <= 6], ids=str)
def test_blade_images_distinct_up_to_sign(sig):
    basis = build_spinbasis(sig)
    seen = {}
    for mask in range(1 << sig.n):
        img = basis.product_of(blade_indices(mask))
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
        bases = sweep_spinbasis_variants(sig)[::3]
        splits = quaternionic_splits(sig.p, sig.q)
        assert len(bases) == len(splits)
        for basis, (r, s, x, y) in zip(bases, splits):
            census = basis.unit_census()
            assert (census.v, census.l, census.u, census.m) == (r - x, x, s - y, y)


def test_quaternionic_variant_bounds():
    with pytest.raises(ValueError):
        quaternionic_splits(2, 0)


@pytest.mark.parametrize("bad,error,message", [
    (0, ValueError, "unit index 0 outside 1..4"),
    (-1, ValueError, "unit index -1 outside 1..4"),
    (5, ValueError, "unit index 5 outside 1..4"),
    (True, TypeError, "unit index True is not an int"),
    (2.0, TypeError, "unit index 2.0 is not an int"),
], ids=["zero", "negative", "past-n", "bool", "float"])
def test_unit_indices_are_checked(bad, error, message):
    basis = build_spinbasis(SignatureSpec(1, 3))
    with pytest.raises(error, match=f"^{message}$"):
        basis.unit(bad)
    with pytest.raises(error, match=f"^{message}$"):
        basis.product_of([2, bad])


def test_units_of_different_sizes_are_rejected():
    with pytest.raises(ValueError, match="^unit 2 is 4x4, unit 1 is 2x2$"):
        SpinBasis(SignatureSpec(2, 0), [SpinMatrix.identity(2), SpinMatrix.identity(4)])
    with pytest.raises(ValueError, match="^unit 3 is 3x3, unit 1 is 2x2$"):
        SpinBasis(SignatureSpec(1, 2), [MAT_A, MAT_B, SpinMatrix.identity(3)])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_folded_products_match_entry_products(data):
    # the word fold, and the matrix products once a unit is dense (R, which
    # is no word, in place of one unit)
    basis = data.draw(st.sampled_from(kernel_bases()), label="basis")
    indices = data.draw(st.lists(st.integers(1, basis.sig.n), max_size=6), label="indices")
    mats = list(basis.mats)
    if data.draw(st.booleans(), label="dense"):
        k = data.draw(st.integers(0, basis.sig.n - 1), label="dense unit")
        mats[k] = kron(R, SpinMatrix.identity(basis.dim // 2))
    want = SpinMatrix.identity(basis.dim).rows
    for i in indices:
        want = ref_mul(want, mats[i - 1].rows)
    assert_matches(SpinBasis(basis.sig, mats).product_of(iter(indices)), want)


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
        (b'{"p": [1], "q": 3, "matrices": []}', r"'p' must be a nonnegative integer, got \[1\]"),
        (b'{"p": 1.7, "q": 0, "matrices": [[["1"]]]}', "'p' must be a nonnegative integer, got 1.7"),
        (b'{"p": 1, "q": -1, "matrices": []}', "'q' must be a nonnegative integer, got -1"),
        (b'{"p": 1, "q": 0, "matrices": 5}', "'matrices' must be a list of p\\+q = 1 matrices"),
        (b'{"p": 1, "q": 0, "matrices": [[[1]]]}', "matrix 1 holds 1, which is not scalar text"),
        (b'{"p": 1, "q": 0, "matrices": [[["1/0"]]]}', 'matrix 1 holds "1/0", which is not'),
        (b'{"p": 1, "q": 0, "matrices": [[["1", "0"], ["0"]]]}',
         "matrix 1 is not a nonempty square list of rows"),
        (b'{"p": 2, "q": 0, "matrices": [[["1", "0"], ["0", "-1"]], [["1"]]]}',
         "matrix 2 is 1x1, matrix 1 is 2x2"),
        (b'{"p": 0, "q": 1, "matrices": [[["1"]]]}', "unit 1 squares to the wrong sign"),
    ],
    ids=["missing", "undecodable", "invalid-json", "not-an-object", "no-p", "no-q",
         "no-matrices", "p-not-an-int", "p-not-integral", "q-negative", "matrices-not-a-list",
         "int-entry", "zero-denominator", "ragged-matrix", "mixed-sizes", "wrong-square"],
)
def test_load_errors_name_the_source(tmp_path, content, message):
    path = tmp_path / "basis.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValueError, match=message) as info:
        load_spinbasis(str(path))
    assert str(path) in str(info.value)

