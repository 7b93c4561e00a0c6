"""The validation suites behind `cliffork verify`.

Each suite recomputes one family of results against an independent route
(the printed tables under `data/`, the census predicates, or a direct
matrix or multivector check) and returns a SuiteResult with its check count
and counterexamples.  One table, `_SUITES`, holds each suite's body, default
p+q bound and cap, and `run_suites` is the one runner (`run_suite` runs one
name through it): it checks every name and the bound before the first suite
starts, as `verify --max` does, a negative bound included.  A run of the
four sweeps walks their one stream of (basis, report) pairs,
`quaternionic_signatures`, once: pseudo, defining and commutation check each
pair, census the signatures the pairs realize.
"""

from __future__ import annotations

import functools
import json
import time
from importlib import resources
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .classification import TABLE_KINDS, build_table
from .core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    center_basis,
    conjugation_sign,
    involution_sign,
    reversion_sign,
    volume_square,
    volume_square_sign,
)
from .ext_automorphisms import (
    DEFINING_RELATIONS,
    MATRIX_NAMES,
    PHYSICAL_NAMES,
    ExtGroupReport,
    comm_parity_terms,
    cover_row,
    ext_group_report,
    predicted_F_square,
    predicted_K_square,
    predicted_S_square,
    predicted_pi_bar,
    printed_pi_bar_applicable,
    printed_pi_bar_mod4,
    product_square_sign,
    quaternionic_signatures,
    universal_comm_sign,
)
from .finite_groups import check_vee_size, vee_factor_check
from .quotient import (
    apply_transformation,
    central_idempotents,
    epsilon_context,
    epsilon_map,
    quotient_group,
)
from .spinor_repr import SpinBasis, SpinMatrix, check_spinor_size, load_spinbasis, signed_lookup


@functools.cache
def _bundle() -> dict:
    """Printed reference grids and worked-example tables shipped with the
    package; the verify suites compare generated output against these."""
    return json.loads(resources.files("cliffork").joinpath("data/printed_tables.json").read_text())


class SuiteResult:
    def __init__(self, name: str, ok: bool, checked: int, counterexamples: List[dict],
                 detail: str = ""):
        self.name = name
        self.ok = ok
        self.checked = checked
        self.counterexamples = counterexamples
        self.detail = detail
        self.elapsed = 0.0  # set by run_suites or the sweep pass

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "counterexamples": self.counterexamples,
            "detail": self.detail,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _gamma_product(basis, text: str) -> SpinMatrix:
    # "g013" -> gamma_0 gamma_1 gamma_3; gamma_k is basis unit k+1; "I" -> identity
    return basis.product_of([int(ch) + 1 for ch in text[1:]])


def suite_tables() -> SuiteResult:
    """Generated classification grids vs the printed 8x8 references."""
    want_all = _bundle()["tables"]
    cex: List[dict] = []
    checked = 0
    for kind in TABLE_KINDS:
        got = build_table(kind, 7)
        want = want_all[kind]
        for q in range(8):
            for p in range(8):
                checked += 1
                if got[q][p] != want[q][p]:
                    cex.append(
                        {"kind": kind, "p": p, "q": q, "generated": got[q][p], "printed": want[q][p]}
                    )
    return SuiteResult("tables", not cex, checked, cex)


def suite_example1() -> SuiteResult:
    """The worked discrete-symmetry set of the spacetime algebra: its 8x8
    products against both printed tables, and the group classification."""
    data = _bundle()["example1"]
    basis = load_spinbasis("gamma")
    elements = data["elements"]
    pool = {name: _gamma_product(basis, name) for name in elements}
    letters = data["letters"]
    by_letter = dict(zip(letters, elements))
    gamma_typos = {tuple(c) for c in data["gamma_typos"]}
    letter_typos = {tuple(c) for c in data["letter_typos"]}
    by_gamma = signed_lookup(pool)
    by_letters = signed_lookup({l: pool[e] for l, e in by_letter.items()})

    cex: List[dict] = []
    checked = 0
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            got = by_gamma.get(pool[a] * pool[b])
            checked += 1
            if (i, j) not in gamma_typos and got != data["gamma_table"][i][j]:
                cex.append({"table": "gamma", "row": a, "col": b, "got": got,
                            "printed": data["gamma_table"][i][j]})
            la, lb = letters[i], letters[j]
            prod = pool[by_letter[la]] * pool[by_letter[lb]]
            got_l = by_letters.get(prod)
            checked += 1
            if (i, j) not in letter_typos and got_l != data["letter_table"][i][j]:
                cex.append({"table": "letters", "row": la, "col": lb, "got": got_l,
                            "printed": data["letter_table"][i][j]})

    ident = pool[elements[0]]
    squares = tuple(
        1 if pool[e] * pool[e] == ident else -1 for e in elements[1:]
    )
    abelian = all(
        pool[a] * pool[b] == pool[b] * pool[a] for a in elements for b in elements
    )
    row = cover_row(squares, abelian)
    for key, got, want in (
        ("signature", list(squares), data["signature"]),
        ("order_structure", list(row.order_structure), data["order_structure"]),
        ("group", row.group, data["group"]),
        ("abelian", abelian, False),
    ):
        checked += 1
        if got != want:
            cex.append({"table": "classification", "check": key, "got": got, "printed": want})
    return SuiteResult("example1", not cex, checked, cex)


def suite_example2() -> SuiteResult:
    """End-to-end run on the bundled gamma spinbasis: constructed matrices vs
    the printed monomials (signs reported), realized signature and group, and
    the printed 8x8 table up to those per-element signs."""
    data = _bundle()["example2"]
    basis = load_spinbasis("gamma")
    report = ext_group_report(basis)
    letters = data["letters"]

    cex: List[dict] = []
    checked = 0
    signs: Dict[str, int] = {"I": 1}
    for name in letters[1:]:
        actual = report.matrices[name].matrix
        printed = basis.product_of([k + 1 for k in data["monomials"][name]])
        checked += 1
        if actual == printed:
            signs[name] = 1
        elif actual == -printed:
            signs[name] = -1
        else:
            signs[name] = 0
            cex.append({"check": "monomial", "name": name,
                        "printed_units": data["monomials"][name]})

    for key, got, want in (
        ("signature", list(report.signature), data["signature"]),
        ("group", report.group_name, data["group"]),
        ("order_structure", list(report.order_structure), data["order_structure"]),
        ("abelian", report.abelian, False),
    ):
        checked += 1
        if got != want:
            cex.append({"check": key, "got": got, "printed": want})

    letter_typos = {tuple(c) for c in data["letter_typos"]}
    gamma_typos = {tuple(c) for c in data["gamma_typos"]}
    # the printed gamma table names each letter by its monomial: W -> g0123
    gamma_names = {"I": "I", **{name: "g" + "".join(map(str, units))
                                for name, units in data["monomials"].items()}}
    if not cex:
        elements, cells = report.letter_table
        if elements != letters:
            raise AssertionError(f"printed letters {letters} are not {elements}")
        for i, a in enumerate(letters):
            for j, b in enumerate(letters):
                got = cells[i][j]
                target = got[1:]
                got_sign = 1 if got[0] == "+" else -1
                # printed tables list the products of the printed monomials;
                # the actual set differs by the recorded per-letter signs
                adjust = signs[a] * signs[b] * signs[target]
                checked += 2
                if (i, j) not in letter_typos:
                    want = data["letter_table"][i][j]
                    want_sign = 1 if want[0] == "+" else -1
                    if target != want[1:] or got_sign * adjust != want_sign:
                        cex.append({"table": "letters", "row": a, "col": b,
                                    "got": got, "sign_adjust": adjust, "printed": want})
                if (i, j) not in gamma_typos:
                    want = data["gamma_table"][i][j]
                    want_sign = 1 if want[0] == "+" else -1
                    if gamma_names[target] != want[1:] or got_sign * adjust != want_sign:
                        cex.append({"table": "gamma", "row": a, "col": b,
                                    "got": got, "sign_adjust": adjust, "printed": want})
    detail = "construction signs: " + ", ".join(
        f"{n}{'+' if signs[n] > 0 else '-'}" for n in letters[1:]
    )
    return SuiteResult("example2", not cex, checked, cex, detail)


# A per-basis check yields one outcome per check it makes on one
# (sig, basis, report): True when the check holds, else the fields of its
# counterexample, which the pass prefixes with the basis's sig and name.
def _check_pseudo(sig: SignatureSpec, basis: SpinBasis, report: ExtGroupReport) -> Iterator:
    """Coefficient-conjugation matrix: defining relation, square of the
    induced antilinear map both by prediction and directly, and the printed
    mod-4 rule on its applicable subdomain."""
    census = report.census
    pi, form = report.matrices["Pi"].matrix, report.matrices["Pi"].form
    failed = DEFINING_RELATIONS["Pi"].failures(basis, pi)
    for i in range(sig.n):
        yield not failed >> i & 1 or {"check": "defining", "unit": i + 1}
    want = predicted_pi_bar(census, form)
    ident = SpinMatrix.identity(basis.dim)
    yield pi * pi.conj() == (ident if want > 0 else -ident) or \
        {"check": "pi_bar_vs_prediction", "predicted": want}
    # an antilinear intertwiner over ring H
    yield report.pi_bar_sign == -1 or {"check": "pi_bar_commutant", "got": report.pi_bar_sign}
    if printed_pi_bar_applicable(census, form):
        yield report.pi_bar_sign == printed_pi_bar_mod4(census, form) or \
            {"check": "pi_bar_printed_rule"}


_SQUARE_PREDICTORS = {"K": predicted_K_square, "S": predicted_S_square, "F": predicted_F_square}


def _check_defining(sig: SignatureSpec, basis: SpinBasis, report: ExtGroupReport) -> Iterator:
    """K, S, F defining relations and all square-parity predicates vs the
    direct matrix squares."""
    mats, census = report.matrices, report.census
    squares = dict(zip(MATRIX_NAMES, report.signature))
    ident = SpinMatrix.identity(basis.dim)
    signed = {1: ident, -1: -ident}
    for name, predict in _SQUARE_PREDICTORS.items():
        x = mats[name].matrix
        failed = DEFINING_RELATIONS[name].failures(basis, x)
        for i in range(sig.n):
            yield not failed >> i & 1 or {"check": "defining", "matrix": name, "unit": i + 1}
        want = predict(census, mats[name].form)
        yield squares[name] == want or {"check": "square_predicate", "matrix": name,
                                         "got": squares[name], "predicted": want}
        yield x * x == signed[squares[name]] or {"check": "square_direct", "matrix": name}
    for name in MATRIX_NAMES:
        m = mats[name]
        negatives = sum(1 for i in m.factors if i > sig.p)
        yield squares[name] == product_square_sign(len(m.factors), negatives) or \
            {"check": "square_census_rule", "matrix": name}


def _check_commutation(sig: SignatureSpec, basis: SpinBasis, report: ExtGroupReport) -> Iterator:
    """Every pairwise (anti)commutation among the seven matrices vs the
    parity predicates and the universal factor-count rule."""
    mats = report.matrices
    forms = {name: mats[name].form for name in MATRIX_NAMES}
    factors = {name: sum(1 << i for i in mats[name].factors) for name in MATRIX_NAMES}
    for pair, got in report.commutation.items():
        yield got == universal_comm_sign(factors[pair[0]], factors[pair[1]]) or \
            {"check": "universal_rule", "pair": list(pair), "got": got}
        terms = comm_parity_terms(pair, forms, report.census)
        if terms is None:
            continue
        printed, correction = terms
        yield got == (1 if (printed + correction) % 2 == 0 else -1) or \
            {"check": "parity_predicate", "pair": list(pair), "got": got}
        if correction == 0:
            yield got == (1 if printed == 0 else -1) or \
                {"check": "printed_clause", "pair": list(pair), "got": got}


def _cells_total(cells: int, realized: set, max_n: int) -> Tuple[list, str]:
    return [], f"{cells} signature cells, p+q <= {max_n}"


def _census_total(cells: int, realized: set, max_n: int) -> Tuple[list, str]:
    """Each realized seven-sign vector in one of the four admissible minus
    counts, and at most 64 of them.  Each is already inside the admissible
    case table: `ext_group_report` raises on a real type-4/6 one outside."""
    outcomes = [signature.count(-1) in (0, 2, 4, 6)
                or {"signature": list(signature), "minus_count": signature.count(-1)}
                for signature in sorted(realized)]
    outcomes.append(len(realized) <= 64 or {"check": "count", "distinct": len(realized)})
    return outcomes, f"{len(realized)} distinct signatures realized (bound 64), p+q <= {max_n}"


# the quaternionic sweeps: name -> (per-basis check, outcomes and detail from
# the stream's cell count and realized signatures once the stream ends); the
# census checks only the realized signatures
_SWEEPS = {
    "pseudo": (_check_pseudo, _cells_total),
    "defining": (_check_defining, _cells_total),
    "commutation": (_check_commutation, _cells_total),
    "census": (lambda sig, basis, report: (), _census_total),
}


def _sweep_pass(names: Sequence[str], max_n: int) -> List[SuiteResult]:
    """The named sweeps over one walk of `quaternionic_signatures(max_n)`,
    which holds one (sig, basis, report) at a time.  Each result's elapsed is
    its own checks' time plus an equal share of the stream's, so the sweeps'
    values add up to the pass."""
    t0 = time.monotonic()
    results = [SuiteResult(name, True, 0, []) for name in names]
    cells, realized = set(), set()
    for sig, basis, report in quaternionic_signatures(max_n):
        cells.add(sig)
        realized.add(report.signature)
        for result in results:
            t = time.monotonic()
            outcomes = list(_SWEEPS[result.name][0](sig, basis, report))
            result.checked += len(outcomes)
            result.counterexamples += [{"sig": str(sig), "basis": basis.name, **outcome}
                                       for outcome in outcomes if outcome is not True]
            result.elapsed += time.monotonic() - t
    share = (time.monotonic() - t0 - sum(result.elapsed for result in results)) / len(results)
    for result in results:
        t = time.monotonic()
        outcomes, result.detail = _SWEEPS[result.name][1](len(cells), realized, max_n)
        result.checked += len(outcomes)
        result.counterexamples += [outcome for outcome in outcomes if outcome is not True]
        result.ok = not result.counterexamples
        result.elapsed += share + time.monotonic() - t
    return results


def suite_salingaros(max_n: int) -> SuiteResult:
    """G(p,q)/Z(p,q) elementary abelian of the predicted order, exhaustively."""
    cex: List[dict] = []
    checked = 0
    for n in range(max_n + 1):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            rep = vee_factor_check(sig)
            checked += 1
            if not rep.passed:
                cex.append({"sig": str(sig), "failures": rep.failures})
    return SuiteResult("salingaros", not cex, checked, cex, f"all (p,q) with p+q <= {max_n}")


# printed covering labels of the odd-dimensional collapse
_TODD_CASES: Tuple[Tuple[str, int, int, str, Tuple[str, ...]], ...] = (
    ("R", 1, 0, "pin^{b}", ("1", "T")),
    ("R", 2, 1, "pin^{a,b,c}", ("1", "P", "T", "PT")),
    ("R", 5, 0, "pin^{b,d,f}", ("1", "T", "C", "CT")),
    ("R", 0, 3, "pin^{b,e,g}", ("1", "T", "CP", "CPT")),
    ("C", 3, 2, "pin^{b}", ("1", "T")),
    ("C", 1, 4, "pin^{b,d}", ("1", "T", "C")),
    ("C", 4, 1, "pin^{b,e,g}", ("1", "T", "CP", "CPT")),
    ("C", 3, 0, "pin^{c,d,g}", ("1", "PT", "C", "CPT")),
    ("C", 2, 1, "pin^{a,b,c}", ("1", "P", "T", "PT")),
    ("C", 0, 3, "pin^{c,e,f}", ("1", "PT", "CP", "CT")),
)


def _quotient_contexts(max_n: int):
    for n in range(1, max_n + 1, 2):
        for p in range(n + 1):
            q = n - p
            if (p - q) % 8 in (1, 5):
                yield epsilon_context(p, q)
            yield epsilon_context(SignatureSpec(p, q, "C"))


def suite_quotient(max_n: int) -> SuiteResult:
    """Idempotent identities, collapse-map homomorphism law, transfer
    predicates vs direct fixed-point tests, and the printed covering labels."""
    cex: List[dict] = []
    checked = 0

    for ctx in _quotient_contexts(max_n):
        # lam+^2 = lam+, lam-^2 = lam-, lam+ lam- = 0 and lam+ + lam- = 1,
        # each checked inside central_idempotents
        checked += 4
        try:
            central_idempotents(ctx)
        except AssertionError as exc:
            cex.append({"sig": str(ctx.sig), "check": "idempotents", "error": str(exc)})

        rep = ctx.transfers
        for name in PHYSICAL_NAMES[1:]:
            direct = (apply_transformation(ctx.ew, name) - ctx.ew).is_zero()
            checked += 1
            if rep.entries[name].transfers != direct:
                cex.append({"sig": str(ctx.sig), "check": "transfer", "name": name})
        checked += 1
        if rep.entries["P"].transfers:
            cex.append({"sig": str(ctx.sig), "check": "involution transferred"})

        if ctx.sig.n <= 5:
            blades = [MultiVector.from_mask(ctx.sig, m) for m in range(1 << ctx.sig.n)]
            images = [epsilon_map(x, ctx) for x in blades]
            checked += 1
            if epsilon_map(ctx.ew, ctx) != MultiVector.scalar(ctx.target, 1):
                cex.append({"sig": str(ctx.sig), "check": "eps(ew) != 1"})
            for a, xa in enumerate(blades):
                checked += 1
                if not epsilon_map(xa - ctx.ew * xa, ctx).is_zero():
                    cex.append({"sig": str(ctx.sig), "check": "kernel", "mask": a})
                for b, xb in enumerate(blades):
                    checked += 1
                    if epsilon_map(xa * xb, ctx) != images[a] * images[b]:
                        cex.append({"sig": str(ctx.sig), "check": "homomorphism",
                                    "a": a, "b": b})
                        break

    for fld, p, q, label, survivors in _TODD_CASES:
        ctx = epsilon_context(SignatureSpec(p, q, fld))
        g = quotient_group(ctx)
        checked += 2
        if g.label != label:
            cex.append({"sig": str(ctx.sig), "check": "covering label",
                        "got": g.label, "printed": label})
        if g.survivors != survivors:
            cex.append({"sig": str(ctx.sig), "check": "survivors",
                        "got": list(g.survivors), "printed": list(survivors)})
        checked += 1
        if len(survivors) == 3:
            if g.cayley is not None:
                cex.append({"sig": str(ctx.sig), "check": "non-closed set got a table"})
        elif g.cayley is None or g.abstract not in ("Z2", "Z2xZ2"):
            cex.append({"sig": str(ctx.sig), "check": "cayley", "abstract": g.abstract})
    return SuiteResult("quotient", not cex, checked, cex,
                       f"odd contexts to p+q <= {max_n}, collapse maps to 5")


# the core suite multiplies every pair of blades of every signature, so each
# step of the bound costs about 4.5x (0.105 s at 6, 0.47 s at 7, 1.9 s at 8
# on a 2-core Xeon, best of 4 runs; its slow state reads up to 2x more); it
# stops where the salingaros suite stops
CORE_MAX_N = 8


def _check_core_size(max_n: int) -> None:
    if max_n > CORE_MAX_N:
        raise ValueError(f"the core suite is exhaustive only up to p+q = {CORE_MAX_N}, "
                         f"got {max_n}")


def suite_core(max_n: int) -> SuiteResult:
    """Per-blade involution signs, involution-by-volume agreement, the
    multiplicativity of coefficient conjugation, volume squares and the
    center, exhaustively over all signatures with p+q <= the bound."""
    cex: List[dict] = []
    checked = 0
    for n in range(max_n + 1):
        for p in range(n + 1):
            sig = SignatureSpec(p, n - p)
            dim = 1 << n
            blades = [MultiVector.from_mask(sig, m) for m in range(dim)]

            for mask, x in enumerate(blades):
                k = mask.bit_count()
                checked += 4
                if x.grade_involution() != x * involution_sign(k):
                    cex.append({"sig": str(sig), "mask": mask, "check": "involution sign"})
                if x.reversion() != x * reversion_sign(k):
                    cex.append({"sig": str(sig), "mask": mask, "check": "reversion sign"})
                if x.clifford_conjugation() != x * conjugation_sign(k):
                    cex.append({"sig": str(sig), "mask": mask, "check": "conjugation sign"})
                if x.clifford_conjugation() != x.grade_involution().reversion():
                    cex.append({"sig": str(sig), "mask": mask, "check": "composite"})
                if n % 2 == 0 and n > 0:
                    checked += 1
                    if x.involution_by_omega() != x.grade_involution():
                        cex.append({"sig": str(sig), "mask": mask, "check": "omega involution"})

            pseudo = [y.pseudo_conjugation() for y in blades]
            for a in range(dim):
                x = MultiVector.from_mask(sig, a, GaussianScalar.I if a & 1 else 1)
                xb = x.pseudo_conjugation()
                for b, y in enumerate(blades):
                    checked += 1
                    if (x * y).pseudo_conjugation() != xb * pseudo[b]:
                        cex.append({"sig": str(sig), "check": "pseudo multiplicativity",
                                    "a": a, "b": b})
                        break

            checked += 1
            if volume_square(sig) != GaussianScalar.of(volume_square_sign(p, n - p)):
                cex.append({"sig": str(sig), "check": "volume square"})
            if n > 0:
                gens = [MultiVector.unit(sig, i) for i in range(1, n + 1)]
                central = [m for m, x in enumerate(blades) if all(x * g == g * x for g in gens)]
                expected = [0] if n % 2 == 0 else [0, dim - 1]
                checked += 1
                if central != expected:
                    cex.append({"sig": str(sig), "check": "center", "got": central})
                checked += 1
                if len(center_basis(sig)) != len(expected):
                    cex.append({"sig": str(sig), "check": "center basis size"})
    return SuiteResult("core", not cex, checked, cex, f"all (p,q) with p+q <= {max_n}")


# name -> (body, default p+q bound, size check: ValueError above the cap), in
# the order of `verify --suite all`.  _sweep_pass runs the sweeps, whose default
# is the acceptance gate's domain; a fixed-domain suite has no default bound.
_SUITES = {
    "tables": (suite_tables, None, None),
    "example1": (suite_example1, None, None),
    "example2": (suite_example2, None, None),
    **{name: (None, 8, check_spinor_size) for name in _SWEEPS},
    "salingaros": (suite_salingaros, 6, check_vee_size),
    "quotient": (suite_quotient, 7, None),
    "core": (suite_core, 6, _check_core_size),
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str], max_n: Optional[int] = None) -> List[SuiteResult]:
    """The named suites' results, in order, at p+q <= max_n or at each one's
    default when max_n is None.  ValueError, before any suite starts, for an
    unknown name, a bound that is not a nonnegative int, one above a named
    suite's cap, or one given to fixed-domain suites alone (beside a bounded
    suite they ignore it).  The sweeps share one pass; each other suite's
    elapsed is its whole run."""
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if max_n is not None:
        if type(max_n) is not int or max_n < 0:  # neither a bool nor a float such as 2.0
            raise ValueError(f"the p+q bound must be a nonnegative int, got {max_n!r}")
        if names and all(_SUITES[name][1] is None for name in names):
            raise ValueError(f"the {names[0]} suite checks a fixed domain and takes no "
                             f"p+q bound, got {max_n}")
        for name in names:
            if _SUITES[name][2] is not None:
                _SUITES[name][2](max_n)
    sweeps = [name for name in names if name in _SWEEPS]
    results = {}
    if sweeps:  # the sweeps share one default bound
        bound = _SUITES[sweeps[0]][1] if max_n is None else max_n
        results.update(zip(sweeps, _sweep_pass(sweeps, bound)))
    for name in names:
        if name not in results:
            body, default, _ = _SUITES[name]
            t0 = time.monotonic()
            results[name] = body() if default is None else body(default if max_n is None else max_n)
            results[name].elapsed = time.monotonic() - t0
    return [results[name] for name in names]


def run_suite(name: str, max_n: Optional[int] = None) -> SuiteResult:
    """The one result of run_suites([name], max_n)."""
    return run_suites([name], max_n)[0]
