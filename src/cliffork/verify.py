"""The validation suites behind `cliffork verify`.

Each suite recomputes one family of results against an independent route
(the printed tables under `data/`, the census predicates, or a direct
matrix or multivector check) and returns a SuiteResult with its check count
and counterexamples.  The pseudo, defining and commutation sweeps read the
quaternionic cells through `quaternionic_signatures`, the iterator the
census suite reaches through `enumerate_signatures`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional, Tuple

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
    comm_parity_terms,
    cover_row,
    enumerate_signatures,
    ext_group_report,
    ext_matrices,
    predicted_F_square,
    predicted_K_square,
    predicted_S_square,
    predicted_pi_bar,
    printed_pi_bar_applicable,
    printed_pi_bar_mod4,
    product_square_sign,
    quaternionic_cells,
    quaternionic_signatures,
    signed_letter_table,
    universal_comm_sign,
)
from .finite_groups import vee_factor_check
from .quotient import (
    apply_transformation,
    central_idempotents,
    epsilon_context,
    epsilon_map,
    quotient_group,
    transfer_report,
)
from .spinor_repr import SpinBasis, SpinMatrix, load_spinbasis, signed_lookup


@functools.cache
def _bundle() -> dict:
    """Printed reference grids and worked-example tables shipped with the
    package; the verify suites compare generated output against these."""
    return json.loads(resources.files("cliffork").joinpath("data/printed_tables.json").read_text())


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checked: int
    counterexamples: List[dict] = field(default_factory=list)
    detail: str = ""
    elapsed: float = 0.0

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


def suite_tables(max_n: Optional[int] = None) -> SuiteResult:
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


def suite_example1(max_n: Optional[int] = None) -> SuiteResult:
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


def suite_example2(max_n: Optional[int] = None) -> SuiteResult:
    """End-to-end run on the bundled gamma spinbasis: constructed matrices vs
    the printed monomials (signs reported), realized signature and group, and
    the printed 8x8 table up to those per-element signs."""
    data = _bundle()["example2"]
    basis = load_spinbasis("gamma")
    mats = ext_matrices(basis)
    letters = data["letters"]

    cex: List[dict] = []
    checked = 0
    signs: Dict[str, int] = {"I": 1}
    for name in letters[1:]:
        actual = mats[name].matrix
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

    report = ext_group_report(basis)
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
        elements, cells = signed_letter_table(mats)
        if elements != letters:
            raise AssertionError(f"printed letters {letters} are not {elements}")
        for i, a in enumerate(letters):
            for j, b in enumerate(letters):
                got = cells[i][j]
                if got is None:
                    cex.append({"table": "letters", "row": a, "col": b,
                                "got": None, "check": "product left the set"})
                    continue
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


def _flag(cex: List[dict], sig: SignatureSpec, basis: SpinBasis, **kw) -> None:
    cex.append({"sig": str(sig), "basis": basis.name, **kw})


def _sweep_result(name: str, max_n: int, checked: int, cex: List[dict]) -> SuiteResult:
    detail = f"{len(quaternionic_cells(max_n))} signature cells, p+q <= {max_n}"
    return SuiteResult(name, not cex, checked, cex, detail)


def suite_pseudo(max_n: int = 8) -> SuiteResult:
    """Coefficient-conjugation matrix on the quaternionic sweep: defining
    relation, square of the induced antilinear map both by prediction and
    directly, and the printed mod-4 rule on its applicable subdomain."""
    checked = 0
    cex: List[dict] = []
    for sig, basis, report in quaternionic_signatures(max_n):
        census = report.census
        pi, form = report.matrices["Pi"].matrix, report.matrices["Pi"].form
        for i, u in enumerate(basis.mats):
            checked += 1
            if not DEFINING_RELATIONS["Pi"](u, pi):
                _flag(cex, sig, basis, check="defining", unit=i + 1)
        direct = pi * pi.conj()
        want = predicted_pi_bar(census, form)
        checked += 1
        if direct != SpinMatrix.identity(basis.dim) * want:
            _flag(cex, sig, basis, check="pi_bar_vs_prediction", predicted=want)
        checked += 1
        if report.pi_bar_sign != -1:  # antilinear intertwiner over ring H
            _flag(cex, sig, basis, check="pi_bar_commutant", got=report.pi_bar_sign)
        if printed_pi_bar_applicable(census, form):
            checked += 1
            if report.pi_bar_sign != printed_pi_bar_mod4(census, form):
                _flag(cex, sig, basis, check="pi_bar_printed_rule")
    return _sweep_result("pseudo", max_n, checked, cex)


_SQUARE_PREDICTORS = {"K": predicted_K_square, "S": predicted_S_square, "F": predicted_F_square}


def suite_defining(max_n: int = 8) -> SuiteResult:
    """K, S, F defining relations and all square-parity predicates vs the
    direct matrix squares on the quaternionic sweep."""
    checked = 0
    cex: List[dict] = []
    for sig, basis, report in quaternionic_signatures(max_n):
        mats, census = report.matrices, report.census
        ident = SpinMatrix.identity(basis.dim)
        for name, predict in _SQUARE_PREDICTORS.items():
            x, rel = mats[name].matrix, DEFINING_RELATIONS[name]
            for i, u in enumerate(basis.mats):
                checked += 1
                if not rel(u, x):
                    _flag(cex, sig, basis, check="defining", matrix=name, unit=i + 1)
            want = predict(census, mats[name].form)
            checked += 2
            if mats[name].square_sign != want:
                _flag(cex, sig, basis, check="square_predicate", matrix=name,
                      got=mats[name].square_sign, predicted=want)
            if x * x != ident * mats[name].square_sign:
                _flag(cex, sig, basis, check="square_direct", matrix=name)
        for name in MATRIX_NAMES:
            m = mats[name]
            negatives = sum(1 for i in m.factors if i > sig.p)
            checked += 1
            if m.square_sign != product_square_sign(len(m.factors), negatives):
                _flag(cex, sig, basis, check="square_census_rule", matrix=name)
    return _sweep_result("defining", max_n, checked, cex)


def suite_commutation(max_n: int = 8) -> SuiteResult:
    """Every pairwise (anti)commutation among the seven matrices vs the
    parity predicates and the universal factor-count rule, on the sweep."""
    checked = 0
    cex: List[dict] = []
    for sig, basis, report in quaternionic_signatures(max_n):
        mats, census = report.matrices, report.census
        forms = {name: mats[name].form for name in MATRIX_NAMES}
        for pair, got in report.commutation.items():
            checked += 1
            if got != universal_comm_sign(mats[pair[0]].factors, mats[pair[1]].factors):
                _flag(cex, sig, basis, check="universal_rule", pair=list(pair), got=got)
            terms = comm_parity_terms(pair, forms, census)
            if terms is None:
                continue
            printed, correction = terms
            checked += 1
            if got != (1 if (printed + correction) % 2 == 0 else -1):
                _flag(cex, sig, basis, check="parity_predicate", pair=list(pair), got=got)
            if correction == 0:
                checked += 1
                if got != (1 if printed == 0 else -1):
                    _flag(cex, sig, basis, check="printed_clause", pair=list(pair), got=got)
    return _sweep_result("commutation", max_n, checked, cex)


def suite_census(max_n: int = 8) -> SuiteResult:
    """Realized seven-sign vectors over the sweep: all must fall in the four
    admissible minus-count patterns, with at most 64 distinct vectors."""
    realized = enumerate_signatures(max_n=max_n)
    cex: List[dict] = []
    checked = 0
    for signature in sorted(realized):
        checked += 1
        minus = sum(1 for s in signature if s == -1)
        if minus not in (0, 2, 4, 6):
            cex.append({"signature": list(signature), "minus_count": minus})
    checked += 1
    if len(realized) > 64:
        cex.append({"check": "count", "distinct": len(realized)})
    detail = f"{len(realized)} distinct signatures realized (bound 64), p+q <= {max_n}"
    return SuiteResult("census", not cex, checked, cex, detail)


def suite_salingaros(max_n: int = 6) -> SuiteResult:
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


def suite_quotient(max_n: int = 7) -> SuiteResult:
    """Idempotent identities, collapse-map homomorphism law, transfer
    predicates vs direct fixed-point tests, and the printed covering labels."""
    cex: List[dict] = []
    checked = 0

    for ctx in _quotient_contexts(max_n):
        lam_p, lam_m = central_idempotents(ctx)
        one = MultiVector.scalar(ctx.sig, 1)
        for label, val in (
            ("lam+^2", lam_p * lam_p - lam_p),
            ("lam-^2", lam_m * lam_m - lam_m),
            ("lam+lam-", lam_p * lam_m),
            ("sum", lam_p + lam_m - one),
        ):
            checked += 1
            if not val.is_zero():
                cex.append({"sig": str(ctx.sig), "check": f"idempotent {label}"})

        rep = transfer_report(ctx)
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
            if not (epsilon_map(ctx.ew, ctx) - MultiVector.scalar(ctx.target, 1)).is_zero():
                cex.append({"sig": str(ctx.sig), "check": "eps(ew) != 1"})
            for a, xa in enumerate(blades):
                checked += 1
                if not epsilon_map(xa - ctx.ew * xa, ctx).is_zero():
                    cex.append({"sig": str(ctx.sig), "check": "kernel", "mask": a})
                for b, xb in enumerate(blades):
                    checked += 1
                    lhs = epsilon_map(xa * xb, ctx)
                    if not (lhs - images[a] * images[b]).is_zero():
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


def suite_core(max_n: int = 6) -> SuiteResult:
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


_SUITE_FUNCS = {
    "tables": suite_tables,
    "example1": suite_example1,
    "example2": suite_example2,
    "pseudo": suite_pseudo,
    "defining": suite_defining,
    "commutation": suite_commutation,
    "census": suite_census,
    "salingaros": suite_salingaros,
    "quotient": suite_quotient,
    "core": suite_core,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(name: str, max_n: Optional[int] = None) -> SuiteResult:
    """Run one suite at p+q <= max_n, or at the suite's own default bound
    when max_n is None (0 is a bound like any other)."""
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITE_FUNCS[name]
    t0 = time.monotonic()
    result = suite() if max_n is None else suite(max_n)
    result.elapsed = time.monotonic() - t0
    return result
