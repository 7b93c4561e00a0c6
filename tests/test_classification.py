"""Classification tables against the frozen printed grids."""

import re

import pytest

from cliffork.classification import (
    build_table,
    classification_summary,
    complex_matrix_dimension,
    complex_ring_label,
    is_simple,
    matrix_dimension,
    odd_reduction,
    periodic_table_cell,
    representation_cell,
    ring_label,
    salingaros_cell,
    salingaros_group_label,
    type_index,
)
from cliffork.core_algebra import SignatureSpec

from fixtures_tables import (
    REPRESENTATIONS_8x8,
    REPRESENTATIONS_EPS_8x8,
    RINGS_8x8,
    SALINGAROS_8x8,
)


def test_ring_table_matches_print():
    assert build_table("rings") == RINGS_8x8


def test_salingaros_table_matches_print():
    assert build_table("salingaros") == SALINGAROS_8x8


def test_representation_table_matches_print():
    assert build_table("representations") == REPRESENTATIONS_8x8


def test_representation_eps_table_matches_print():
    assert build_table("representations-eps") == REPRESENTATIONS_EPS_8x8


def test_dimension_count_consistency():
    # total real dimension of the matrix algebra(s) equals 2^n
    ring_dim = {"R": 1, "C": 2, "H": 4, "2R": 2, "2H": 8}
    for p in range(8):
        for q in range(8):
            d = matrix_dimension(p, q)
            assert ring_dim[ring_label(p, q)] * d * d == 1 << (p + q)


def test_spot_values():
    assert periodic_table_cell(1, 3) == "H(2)"
    assert periodic_table_cell(3, 1) == "R(4)"
    assert periodic_table_cell(0, 0) == "R"
    assert periodic_table_cell(SignatureSpec(4, 0)) == "H(2)"
    assert ring_label(1, 3) == "H"
    assert type_index(1, 3) == 6
    assert not is_simple(1, 0)
    assert not is_simple(0, 3)
    assert is_simple(2, 0)


def test_salingaros_corner_honesty():
    assert salingaros_cell(0, 0) == "N_1"  # printed corner, reproduced verbatim
    assert salingaros_group_label(0, 0) == "Z2"  # the actual group of {+1,-1}
    assert salingaros_group_label(2, 0) == "N_1"
    assert salingaros_group_label(1, 0) == "Omega_0"
    assert salingaros_group_label(0, 1) == "S_0"


def test_complex_labels():
    assert complex_ring_label(4) == "C"
    assert complex_ring_label(5) == "2C"
    assert complex_matrix_dimension(5) == 4


@pytest.mark.parametrize("cell", [type_index, ring_label, matrix_dimension,
                                  periodic_table_cell, salingaros_cell, classification_summary])
def test_negative_counts_are_rejected(cell):
    with pytest.raises(ValueError, match=r"signature \(-1,0\) has a negative count"):
        cell(-1, 0)


@pytest.mark.parametrize("label", [complex_ring_label, complex_matrix_dimension])
def test_negative_complex_dimension_is_named(label):
    with pytest.raises(ValueError, match="complex dimension -2 is negative"):
        label(-2)
    # nor is a dimension that is not an int truncated: 4.5 is not read as 4
    for n in (4.5, True, "4"):
        with pytest.raises(TypeError, match=re.escape(f"complex dimension must be an int, got {n!r}")):
            label(n)


def test_representation_cell_eps_prefix():
    assert representation_cell(1, 0) == "2R^0_0"
    assert representation_cell(1, 0, epsilon=True) == "eR^0_0"
    assert representation_cell(0, 3, epsilon=True) == "eH^4_0"
    assert representation_cell(4, 4) == "R^0_8"


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table("nonsense")
    with pytest.raises(ValueError):
        build_table("rings", -1)
    small = build_table("rings", 2)
    assert len(small) == 3 and all(len(r) == 3 for r in small)


def test_summary_fields():
    s = classification_summary(1, 3)
    assert s["ring"] == "H" and s["type"] == 6 and s["matrix_dimension"] == 2
    assert s["group_cell"] == "N_4"
    assert s["representation_cell"] == "H^6_1"


def test_odd_reduction_matches_the_inline_rules():
    # the two rules as build_spinbasis, epsilon_context and
    # _semisimple_admissible each wrote them out
    for n in range(1, 12, 2):
        for p in range(n + 1):
            q = n - p
            if q >= 1:
                sub = (p, q - 1)
            else:
                sub = (p - 1, 0)
            factors = []
            if q >= 1:
                factors.append((p, q - 1))
            if p >= 1:
                factors.append((q, p - 1))
            assert odd_reduction(p, q) == (sub, tuple(factors)), (p, q)
    for p, q in ((0, 0), (2, 0), (1, 1), (3, 5)):
        with pytest.raises(ValueError):
            odd_reduction(p, q)
