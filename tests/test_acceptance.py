"""Acceptance gate: ten criteria, exact comparisons, hard runtime limits.

Each test runs one criterion end to end and prints a single PASS/FAIL line
(visible with `pytest tests/test_acceptance.py -v -s`).  Comparisons are
zero-tolerance: grids cell-for-cell, matrices entry-for-entry, signs exact.
The sweeps run serially.

Criteria 1-3 compose two independent routes: the verify suites compare
generated output against the oracle tables bundled with the package, and
this module pins that bundle against the transcription kept in the test
fixtures.  Together: computation == bundle == independent transcript.
"""

import time

from cliffork.verify import _bundle, run_suite
from cliffork.classification import build_table
from cliffork.ext_automorphisms import ext_group_report
from cliffork.spinor_repr import load_spinbasis

from fixtures_tables import (
    EXAMPLE1_GAMMA_PRINTED,
    EXAMPLE1_GAMMA_TYPOS,
    EXAMPLE1_GROUP,
    EXAMPLE1_LETTER_PRINTED,
    EXAMPLE1_LETTER_TYPOS,
    EXAMPLE1_ORDER_STRUCTURE,
    EXAMPLE1_SIGNATURE,
    EXAMPLE2_GAMMA_PRINTED,
    EXAMPLE2_GAMMA_TYPOS,
    EXAMPLE2_GROUP,
    EXAMPLE2_LETTER_PRINTED,
    EXAMPLE2_LETTER_TYPOS,
    EXAMPLE2_MONOMIALS,
    EXAMPLE2_ORDER_STRUCTURE,
    EXAMPLE2_SIGNATURE,
    REPRESENTATIONS_8x8,
    RINGS_8x8,
    SALINGAROS_8x8,
)


def _report(num, title, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} [{num}/10] {title}: {detail}"
    print(line)
    assert ok, line


def _suite_criterion(num, title, name, limit):
    result = run_suite(name)
    ok = result.ok and not result.counterexamples and result.elapsed < limit
    detail = (
        f"{result.checked} checks, {len(result.counterexamples)} counterexamples, "
        f"{result.elapsed:.2f}s (limit {limit:.0f}s)"
    )
    if result.detail:
        detail += f" [{result.detail}]"
    if result.counterexamples:
        detail += f" first: {result.counterexamples[:3]}"
    _report(num, title, ok, detail)
    return result


def test_01_classification_grids_reproduced_cell_for_cell():
    t0 = time.monotonic()
    grids = {
        "rings": RINGS_8x8,
        "salingaros": SALINGAROS_8x8,
        "representations": REPRESENTATIONS_8x8,
    }
    mismatches = []
    for kind, grid in grids.items():
        got = build_table(kind, 7)
        for q in range(8):
            for p in range(8):
                if got[q][p] != grid[q][p]:
                    mismatches.append((kind, p, q, got[q][p], grid[q][p]))
    suite = run_suite("tables")
    bundle_ok = all(_bundle()["tables"][k] == g for k, g in grids.items())
    elapsed = time.monotonic() - t0
    ok = not mismatches and suite.ok and bundle_ok and elapsed < 1.0
    _report(
        1,
        "printed classification grids, cell for cell",
        ok,
        f"192 pinned cells + {suite.checked} bundle checks, "
        f"{len(mismatches)} mismatches, {elapsed:.2f}s (limit 1s)"
        + (f" first: {mismatches[:3]}" if mismatches else ""),
    )


def test_02_bundled_gamma_basis_end_to_end():
    t0 = time.monotonic()
    report = ext_group_report(load_spinbasis("gamma"))
    direct = (
        tuple(report.signature) == EXAMPLE2_SIGNATURE
        and report.group_name == EXAMPLE2_GROUP
        and tuple(report.order_structure) == EXAMPLE2_ORDER_STRUCTURE
        and not report.abelian
    )
    ex2 = _bundle()["example2"]
    bundle_ok = (
        ex2["monomials"] == {k: list(v) for k, v in EXAMPLE2_MONOMIALS.items()}
        and ex2["letter_table"] == EXAMPLE2_LETTER_PRINTED
        and ex2["gamma_table"] == EXAMPLE2_GAMMA_PRINTED
        and {tuple(c) for c in ex2["letter_typos"]} == EXAMPLE2_LETTER_TYPOS
        and {tuple(c) for c in ex2["gamma_typos"]} == EXAMPLE2_GAMMA_TYPOS
    )
    suite = run_suite("example2")
    elapsed = time.monotonic() - t0
    ok = direct and bundle_ok and suite.ok and elapsed < 1.0
    _report(
        2,
        "bundled gamma basis: monomials, signature, group, printed table",
        ok,
        f"{suite.checked} checks, {len(suite.counterexamples)} counterexamples, "
        f"{elapsed:.2f}s (limit 1s) [{suite.detail}]"
        + (f" first: {suite.counterexamples[:3]}" if suite.counterexamples else ""),
    )


def test_03_dirac_set_generates_the_printed_group_table():
    t0 = time.monotonic()
    ex1 = _bundle()["example1"]
    bundle_ok = (
        ex1["gamma_table"] == EXAMPLE1_GAMMA_PRINTED
        and ex1["letter_table"] == EXAMPLE1_LETTER_PRINTED
        and {tuple(c) for c in ex1["gamma_typos"]} == EXAMPLE1_GAMMA_TYPOS
        and {tuple(c) for c in ex1["letter_typos"]} == EXAMPLE1_LETTER_TYPOS
        and tuple(ex1["signature"]) == EXAMPLE1_SIGNATURE
        and ex1["group"] == EXAMPLE1_GROUP
        and tuple(ex1["order_structure"]) == EXAMPLE1_ORDER_STRUCTURE
    )
    suite = run_suite("example1")
    elapsed = time.monotonic() - t0
    ok = bundle_ok and suite.ok and elapsed < 1.0
    _report(
        3,
        "Dirac reflection set: printed table, signature, classification",
        ok,
        f"{suite.checked} checks, {len(suite.counterexamples)} counterexamples, "
        f"{elapsed:.2f}s (limit 1s)"
        + (f" first: {suite.counterexamples[:3]}" if suite.counterexamples else ""),
    )


def test_04_pseudo_conjugation_sweep():
    _suite_criterion(
        4,
        "coefficient-conjugation defining relation and square rule, tweaked sweep",
        "pseudo",
        60.0,
    )


def test_05_defining_condition_sweep():
    _suite_criterion(
        5,
        "K/S/F defining relations and square-parity predicates, tweaked sweep",
        "defining",
        60.0,
    )


def test_06_commutation_ledger_sweep():
    _suite_criterion(
        6,
        "pairwise (anti)commutation ledger for all seven matrices, tweaked sweep",
        "commutation",
        120.0,
    )


def test_07_signature_census_stays_admissible():
    _suite_criterion(
        7,
        "every realized 7-signature admissible, distinct count within bound",
        "census",
        120.0,
    )


def test_08_unit_group_center_quotients_elementary_abelian():
    _suite_criterion(
        8,
        "unit-group center quotients elementary abelian of predicted order",
        "salingaros",
        30.0,
    )


def test_09_collapse_suite():
    _suite_criterion(
        9,
        "central idempotents, folding homomorphism, transfers, covering labels",
        "quotient",
        30.0,
    )


def test_10_algebra_law_suite():
    _suite_criterion(
        10,
        "(anti)automorphism signs, volume squares, centers, exhaustive n <= 6",
        "core",
        10.0,
    )
